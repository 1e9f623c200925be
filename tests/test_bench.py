"""bench/compare_runs.py reports how far a differing CSV or key = value file moved, and
bench/costs.py summarizes each run's samples."""

import importlib.util
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


compare_runs, costs = _load("compare_runs"), _load("costs")


def test_a_differing_csv_reports_each_columns_largest_relative_difference(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    files = {
        "structure_factor.csv": ("k,s_k,sigma\n1.0,0.5,0.01\n2.0,0.25,0.02\n",
                                 "k,s_k,sigma\n1.0,0.5000000001,0.01\n2.0,0.25,0.0200002\n"),
        "moments.csv": ("tau,mode\n1,0.0\n", "tau,mode\n1,0\n"),
        "peaks.csv": ("time,label\n1.5,A\n", "time,label\n1.5,B\n"),
        "rows.csv": ("k,s_k\n1.0,0.5\n", "k,s_k\n1.0,0.5\n2.0,0.2\n"),
        "header.csv": ("k,s_k\n1.0,0.5\n", "k,S\n1.0,0.5\n"),
        "fit.txt": ("c_s = 1.0\nxi_fit = 2.0\n", "c_s = 1.1\nxi_fit = 2.0\n"),
        "ordering.txt": ("mode = lifo\norder = B,A\n", "mode = fifo\norder = B,A\n"),
        "keys.txt": ("dz = 1.0\n", "n_steps = 1\n"),
        "notes.txt": ("a\n", "b\n"),
        "manifest.txt": ("a\n", "a\n"),
    }
    for side, root in enumerate((base, head)):
        root.mkdir()
        for name, texts in files.items():
            (root / name).write_text(texts[side])
    (head / "only.csv").write_text("k\n1\n")

    assert compare_runs.differences(base, head) == [
        "fit.txt", "header.csv", "keys.txt", "moments.csv", "notes.txt", "only.csv",
        "ordering.txt", "peaks.csv", "rows.csv", "structure_factor.csv"]
    report = {name: compare_runs.column_differences(base / name, head / name)
              for name in compare_runs.differences(base, head)}
    # a key = value text file whose keys match is read as one column per key
    assert report == {"header.csv": None, "keys.txt": None, "notes.txt": None,
                      "only.csv": None, "rows.csv": None,
                      "fit.txt": "c_s 0.091, xi_fit 0", "ordering.txt": "mode inf, order 0",
                      "moments.csv": "tau 0, mode 0", "peaks.csv": "time 0, label inf",
                      "structure_factor.csv": "k 0, s_k 2e-10, sigma 1e-05"}


def test_relative_difference_of_numbers_written_as_text():
    assert compare_runs.relative_difference("2.0", "1.0") == 0.5
    assert compare_runs.relative_difference("-0.0", "0") == 0.0
    assert compare_runs.relative_difference("inf", "1e308") == math.inf
    assert compare_runs.relative_difference("nan", "nan") == math.inf


def test_costs_summarize_samples_by_median_and_quartiles():
    # inclusive quartiles: the median of each half, interpolated
    assert costs.summary([5.0, 1.0, 3.0, 2.0, 4.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}
    assert costs.summary([1.0, 2.0, 4.0, 8.0]) == {"median": 3.0, "q1": 1.75, "q3": 5.0}
    assert costs.summary([7.0]) == {"median": 7.0, "q1": 7.0, "q3": 7.0}
    assert costs.summary([]) is None


def test_costs_call_two_trees_apart_when_their_quartile_ranges_do_not_overlap():
    # the VmHWM samples (MiB) of beam-512 in five rounds with the trees of
    # 5329c3c and of 2aae0fc, which hands a propagation's input over instead
    # of keeping a copy of it
    before = costs.summary([52.28515625, 52.2734375, 52.23046875, 52.27734375, 52.33203125])
    after = costs.summary([47.1328125, 47.10546875, 47.1328125, 47.1328125, 47.08984375])
    assert costs.apart(before, after) and costs.apart(after, before)
    assert not costs.apart(costs.summary([1.0, 2.0, 3.0]), costs.summary([2.0, 3.0, 4.0]))


def test_costs_run_eleven_rounds_by_default_and_at_least_five(capsys):
    # at 5 rounds a load phase of the machine called unchanged code apart
    assert costs._build_parser().parse_args(["BASE", "HEAD"]).rounds == 11
    assert costs._build_parser().parse_args(["BASE", "HEAD", "--rounds", "5"]).rounds == 5
    with pytest.raises(SystemExit) as refused:
        costs.main(["BASE", "HEAD", "--rounds", "4"])
    assert refused.value.code == 2
    assert "--rounds must be at least 5" in capsys.readouterr().err


def test_costs_time_each_config_run_and_validated(tmp_path):
    config = ROOT / "configs" / "gem.ini"
    assert costs.commands("gem", config, tmp_path / "out") == {
        "gem": ["gem", "--config", str(config), "--out", str(tmp_path / "out")],
        "validate:gem": ["validate", "--config", str(config)]}
