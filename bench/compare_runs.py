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
exits non-zero, then a summary line. Exits 0 when every run succeeds and
every run directory is byte-identical, 1 otherwise, 2 when BASE cannot be
unpacked. Two runs go at a time, one per tree, single-threaded.
"""

from __future__ import annotations

import argparse
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
                for line in failed + diff:
                    print(f"{name}: {line}")
                bad += bool(failed or diff)
        print(f"{len(named) - bad} of {len(named)} run directories identical to {args.base}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
