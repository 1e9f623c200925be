"""Check that the program in this checkout writes the same bytes as at a base
commit.

    python3 bench/compare_runs.py BASE

BASE is any git revision of this repository (a commit, a branch, HEAD~1).
Its tree is unpacked with `git archive` into a temporary directory. Each
run is made once with each tree's `src/` on PYTHONPATH, in a fresh process:
the nine shipped `configs/*.ini`, and the three benchmark workloads at
seeds 1 and 2, whose INI files perfbench/workloads.py writes (`*_inputs`).
Both trees run the configs and INIs of this checkout, so only the program
differs. Every run directory is compared file by file, manifest included.

Prints each file that differs or exists in one tree only, and each run that
exits non-zero, then a summary line. A differing CSV file whose header and
row count match is printed with the largest relative difference of each of
its columns (`structure_factor.csv: k 0, s_k 1.9e-11, sigma 2.4e-11`), and
a differing `key = value` text file whose keys match (`metrics.txt`,
`fit.txt`, `ordering.txt`) with that of each key (`fit.txt: c_s 3e-16,
...`), so that a move in the last digits reads apart from a changed result.
Exits 0 when every run succeeds and every run directory is byte-identical,
1 otherwise, 2 when BASE cannot be unpacked. Two runs go at a time, one per
tree, single-threaded.
"""

from __future__ import annotations

import argparse
import csv
import math
import os
import re
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def unpack(base: str, into: Path) -> None:
    """Extract the tree of revision base into the directory into."""
    into.mkdir()
    archive = subprocess.Popen(["git", "-C", str(ROOT), "archive", "--format=tar", base],
                               stdout=subprocess.PIPE)
    untar = subprocess.run(["tar", "-x", "-C", str(into)], stdin=archive.stdout)
    archive.stdout.close()
    if archive.wait() or untar.returncode:
        raise SystemExit(2)


def workload_inis() -> dict[str, str]:
    """{name: INI text} of each benchmark workload at each seed."""
    sys.dont_write_bytecode = True  # leave perfbench/ as it is
    sys.path.insert(0, str(ROOT / "perfbench"))
    from workloads import WORKLOADS

    return {f"{name}-seed{seed}": w.inputs(seed).ini
            for name, w in WORKLOADS.items() for seed in SEEDS}


def runs(inputs: Path) -> dict[str, Path]:
    """{run name: INI path}: the shipped configs, and the workload INIs
    written into the directory inputs."""
    named = {path.stem: path for path in sorted((ROOT / "configs").glob("*.ini"))}
    for name, text in workload_inis().items():
        named[name] = inputs / f"{name}.ini"
        named[name].write_text(text)
    return named


def run(tree: Path, config: Path, out: Path) -> int:
    """Run the config's scenario with the program of tree, in a fresh
    process; return its exit code."""
    scenario = re.search(r"^scenario\s*=\s*(\S+)", config.read_text(), re.M).group(1)
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), **dict.fromkeys(THREAD_VARS, "1"))
    return subprocess.run([sys.executable, "-m", "pfl.cli", scenario, "--config", str(config),
                           "--out", str(out)], env=env, cwd=tree,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def differences(a: Path, b: Path) -> list[str]:
    """Relative paths of the files that differ between the directories a and
    b, or that exist in one of them only."""
    files = {path.relative_to(root) for root in (a, b) if root.is_dir()
             for path in root.rglob("*") if path.is_file()}
    return [str(name) for name in sorted(files)
            if not ((a / name).is_file() and (b / name).is_file()
                    and (a / name).read_bytes() == (b / name).read_bytes())]


def column_differences(a: Path, b: Path) -> str | None:
    """The largest relative difference of each column of the tables (see
    table) of the files a and b, as "name value, ...", when both exist and
    their headers and row counts match; None otherwise. A cell that is not a
    number counts inf where it differs."""
    if not (a.is_file() and b.is_file()):
        return None
    rows_a, rows_b = table(a), table(b)
    if not rows_a or not rows_b or len(rows_a) != len(rows_b) or rows_a[0] != rows_b[0]:
        return None
    largest = dict.fromkeys(rows_a[0], 0.0)
    for row_a, row_b in zip(rows_a[1:], rows_b[1:]):
        for name, x, y in zip(rows_a[0], row_a, row_b):
            if x != y:
                largest[name] = max(largest[name], relative_difference(x, y))
    return ", ".join(f"{name} {value:.2g}" for name, value in largest.items())


def table(path: Path) -> list[list[str]] | None:
    """The rows of a CSV file, header first; of a text file of `key = value`
    lines, its keys and one row of their values; None for any other file."""
    if path.suffix == ".csv":
        return list(csv.reader(path.read_text().splitlines()))
    if path.suffix != ".txt":
        return None
    pairs = [line.split(" = ", 1) for line in path.read_text().splitlines()]
    if not pairs or any(len(pair) != 2 for pair in pairs):
        return None
    return [list(column) for column in zip(*pairs)]


def relative_difference(x: str, y: str) -> float:
    """|x - y| / max(|x|, |y|) of two numbers written as text; 0 for equal
    values, inf for text that is not a number or for unequal non-finite ones."""
    try:
        x, y = float(x), float(y)
    except ValueError:
        return math.inf
    scale = max(abs(x), abs(y))
    if x == y or not math.isfinite(scale):
        return 0.0 if x == y else math.inf
    return abs(x - y) / scale


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-runs-") as tmp:
        tmp = Path(tmp)
        trees = {"base": tmp / "base", "head": ROOT}
        unpack(args.base, trees["base"])
        (tmp / "inputs").mkdir()
        named = runs(tmp / "inputs")
        bad = 0
        with ThreadPoolExecutor(max_workers=len(trees)) as pool:
            for name, config in named.items():
                outs = {side: tmp / "runs" / side / name for side in trees}
                codes = dict(zip(trees, pool.map(run, trees.values(), [config] * len(trees),
                                                 outs.values())))
                failed = [f"{side} exited {code}" for side, code in codes.items() if code]
                diff = differences(outs["base"], outs["head"])
                for line in failed:
                    print(f"{name}: {line}")
                for file in diff:
                    columns = column_differences(outs["base"] / file, outs["head"] / file)
                    print(f"{name}: {file}" + (f": {columns}" if columns else ""))
                bad += bool(failed or diff)
        print(f"{len(named) - bad} of {len(named)} run directories identical to {args.base}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
