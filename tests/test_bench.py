"""bench/compare_runs.py reports how far a differing CSV file moved."""

import importlib.util
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "bench" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)


def test_a_differing_csv_reports_each_columns_largest_relative_difference(tmp_path):
    base, head = tmp_path / "base", tmp_path / "head"
    files = {
        "structure_factor.csv": ("k,s_k,sigma\n1.0,0.5,0.01\n2.0,0.25,0.02\n",
                                 "k,s_k,sigma\n1.0,0.5000000001,0.01\n2.0,0.25,0.0200002\n"),
        "moments.csv": ("tau,mode\n1,0.0\n", "tau,mode\n1,0\n"),
        "peaks.csv": ("time,label\n1.5,A\n", "time,label\n1.5,B\n"),
        "rows.csv": ("k,s_k\n1.0,0.5\n", "k,s_k\n1.0,0.5\n2.0,0.2\n"),
        "header.csv": ("k,s_k\n1.0,0.5\n", "k,S\n1.0,0.5\n"),
        "fit.txt": ("c_s = 1.0\n", "c_s = 1.1\n"),
        "manifest.txt": ("a\n", "a\n"),
    }
    for side, root in enumerate((base, head)):
        root.mkdir()
        for name, texts in files.items():
            (root / name).write_text(texts[side])
    (head / "only.csv").write_text("k\n1\n")

    assert compare_runs.differences(base, head) == [
        "fit.txt", "header.csv", "moments.csv", "only.csv", "peaks.csv", "rows.csv",
        "structure_factor.csv"]
    report = {name: compare_runs.column_differences(base / name, head / name)
              for name in compare_runs.differences(base, head)}
    assert report == {"fit.txt": None, "header.csv": None, "only.csv": None, "rows.csv": None,
                      "moments.csv": "tau 0, mode 0", "peaks.csv": "time 0, label inf",
                      "structure_factor.csv": "k 0, s_k 2e-10, sigma 1e-05"}


def test_relative_difference_of_numbers_written_as_text():
    assert compare_runs.relative_difference("2.0", "1.0") == 0.5
    assert compare_runs.relative_difference("-0.0", "0") == 0.0
    assert compare_runs.relative_difference("inf", "1e308") == math.inf
    assert compare_runs.relative_difference("nan", "nan") == math.inf
