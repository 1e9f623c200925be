"""Measure the wall time and peak memory of every run, with the programs of
two revisions.

    python3 bench/costs.py BASE HEAD [--rounds 11] [--only NAME ...] [--out DIR]

BASE and HEAD are git revisions of this repository. Each tree is unpacked
with compare_runs.unpack, and its bytecode cache is built with compileall
before the first run, so that neither tree compiles while it is timed. The
runs are the nine shipped `configs/*.ini` and the three benchmark workloads
at seed 1, whose INI files perfbench/workloads.py writes; both trees run the
configs and INIs of this checkout, so only the program differs. Each is
also validated on its own (`pfl validate --config`), as the row
`validate:<name>`. `--only` keeps the configs named (`beam-512`,
`structure_factor`, ...), both rows of each.

Each run is a fresh process, one at a time, pinned to one core, with BLAS
and OpenMP threads 1. The child times `pfl.cli.main` from before its import
to its return, and reads its own peak resident memory (`VmHWM` in
/proc/self/status) at exit. Each round runs every run once with each tree,
the trees taking turns to go first.

Writes BENCH_<short-sha>.json per tree into DIR (default: bench/): the
machine record, and per run the median and quartiles of the wall time (s)
and of VmHWM (MiB), with the samples. Prints one line per run with both
trees' medians and whether their quartile ranges are apart. Exits 1 if a
run exits non-zero, 2 when a revision cannot be unpacked.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("compare_runs", ROOT / "bench" / "compare_runs.py")
compare_runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_runs)

SEED = 1
# the child: run the CLI on argv, then print its exit code, its seconds from
# before the import of pfl.cli and its VmHWM in KiB as the last line
CHILD = """import sys, time
start = time.perf_counter()
from pfl.cli import main
code = main(sys.argv[1:])
wall = time.perf_counter() - start
hwm = next(int(line.split()[1]) for line in open("/proc/self/status") if line.startswith("VmHWM"))
print("COSTS", code, wall, hwm)
"""


def inputs(into: Path) -> dict[str, Path]:
    """{run name: INI path}: the shipped configs, and each workload's INI at
    SEED written into the directory into."""
    named = {path.stem: path for path in sorted((ROOT / "configs").glob("*.ini"))}
    suffix = f"-seed{SEED}"
    for name, text in compare_runs.workload_inis().items():
        if name.endswith(suffix):
            named[name.removesuffix(suffix)] = into / f"{name}.ini"
            named[name.removesuffix(suffix)].write_text(text)
    return named


def commands(name: str, config: Path, out: Path) -> dict[str, list[str]]:
    """{row: CLI arguments}: the run of config into out, and its validation."""
    scenario = re.search(r"^scenario\s*=\s*(\S+)", config.read_text(), re.M).group(1)
    return {name: [scenario, "--config", str(config), "--out", str(out)],
            f"validate:{name}": ["validate", "--config", str(config)]}


def measure(tree: Path, argv: list[str], core: int) -> dict:
    """{"exit": code, "wall_s": seconds, "vmhwm_mib": VmHWM} of the CLI on
    argv with the program of tree, in a fresh process pinned to core; only
    the exit code of a child that died before it could report."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               **dict.fromkeys(compare_runs.THREAD_VARS, "1"))
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env, cwd=tree,
                          capture_output=True, text=True,
                          preexec_fn=lambda: os.sched_setaffinity(0, {core}))
    last = (proc.stdout.splitlines() or [""])[-1].split()
    if last[:1] != ["COSTS"]:
        return {"exit": proc.returncode or 1}
    return {"exit": int(last[1]), "wall_s": round(float(last[2]), 6), "vmhwm_mib": int(last[3]) / 1024}


def summary(samples: list[float]) -> dict[str, float] | None:
    """The median and the quartiles (inclusive method) of samples; None for none."""
    if len(samples) <= 1:
        return dict.fromkeys(("median", "q1", "q3"), samples[0]) if samples else None
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def apart(a: dict[str, float], b: dict[str, float]) -> bool:
    """Whether two summaries' quartile ranges [q1, q3] do not overlap."""
    return a["q3"] < b["q1"] or b["q3"] < a["q1"]


def machine(core: int) -> dict:
    """What the figures depend on: CPU, memory, core, Python and numpy."""
    info = {"cpu": platform.processor() or platform.machine(), "cpus": os.cpu_count(),
            "core": core, "python": platform.python_version(), "system": platform.platform()}
    for path, key, name in (("/proc/cpuinfo", "model name", "cpu"),
                            ("/proc/meminfo", "MemTotal", "memory")):
        try:
            lines = Path(path).read_text().splitlines()
        except OSError:
            continue
        info[name] = next((line.split(":", 1)[1].strip() for line in lines
                           if line.startswith(key)), info.get(name))
    numpy = [sys.executable, "-c", "import numpy; print(numpy.__version__)"]
    info["numpy"] = subprocess.run(numpy, capture_output=True, text=True).stdout.strip()
    return info


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("revisions", nargs=2, metavar="REV", help="two git revisions")
    parser.add_argument("--rounds", type=int, default=11, help="runs per tree (at least 5)")
    parser.add_argument("--only", nargs="+", metavar="NAME", help="keep these runs")
    parser.add_argument("--out", type=Path, default=ROOT / "bench", help="where BENCH files go")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.rounds < 5:
        parser.error("--rounds must be at least 5")
    core = min(os.sched_getaffinity(0))
    shas = [subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", rev], text=True,
                           capture_output=True).stdout.strip() for rev in args.revisions]
    with tempfile.TemporaryDirectory(prefix="costs-") as tmp:
        tmp = Path(tmp)
        trees = [tmp / f"tree-{i}" for i in range(2)]
        for rev, tree in zip(args.revisions, trees):
            compare_runs.unpack(rev, tree)
            subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / "src")],
                           check=True)
        (tmp / "inputs").mkdir()
        named = inputs(tmp / "inputs")
        if args.only:
            unknown = set(args.only) - set(named)
            if unknown:
                parser.error(f"no run named {', '.join(sorted(unknown))}")
            named = {name: path for name, path in named.items() if name in args.only}
        rows = [row for name, config in named.items() for row in commands(name, config, tmp)]
        samples = [{row: {"wall_s": [], "vmhwm_mib": [], "exit": []} for row in rows}
                   for _ in trees]
        for round_ in range(args.rounds):
            order = [0, 1] if round_ % 2 == 0 else [1, 0]
            for name, config in named.items():
                for i in order:
                    out = tmp / "runs" / f"{i}-{round_}-{name}"
                    for row, argv in commands(name, config, out).items():
                        for key, value in measure(trees[i], argv, core).items():
                            samples[i][row][key].append(value)
                    shutil.rmtree(out, ignore_errors=True)
    record = machine(core)
    failed = 0
    args.out.mkdir(parents=True, exist_ok=True)
    for sha, runs in zip(shas, samples):
        bench = {"revision": sha, "rounds": args.rounds, "machine": record, "runs": {
            name: {"wall_s": summary(run["wall_s"]), "vmhwm_mib": summary(run["vmhwm_mib"]),
                   "samples": run} for name, run in runs.items()}}
        (args.out / f"BENCH_{sha}.json").write_text(json.dumps(bench, indent=1) + "\n")
        failed += sum(any(run["exit"]) for run in runs.values())
    for name in rows:
        cells = []
        for key, unit in (("wall_s", "s"), ("vmhwm_mib", "MiB")):
            a, b = (summary(runs[name][key]) for runs in samples)
            if a and b:
                cells.append(f"{key} {a['median']:.4g} -> {b['median']:.4g} {unit}"
                             + (" (apart)" if apart(a, b) else ""))
        codes = sorted({code for runs in samples for code in runs[name]["exit"]})
        print(f"{name}: " + ", ".join(cells) + ("" if codes == [0] else f", exits {codes}"))
    print(f"{shas[0]} -> {shas[1]}: {len(rows)} runs, {args.rounds} rounds, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
