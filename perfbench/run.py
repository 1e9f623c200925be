"""pfl benchmark: run one workload through the `pfl` CLI and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
./src with no install step. Every `pfl` run is a fresh single-threaded
process (`--jobs 1`, thread variables pinned to 1), one at a time: a closed
loop with one client. The benchmark and its children share one core, and
every child's time is rescaled to a core of reference speed (see Pacer).
Work files go to ./.perfbench/.

--trace 0 prints the end-to-end metrics: the workload is repeated
S / nominal_s times, rounded and at least once (see workloads.py), and each
metric is the median over repeats; set-up time is the median of several
`pfl validate` processes, rescaled the same way. --trace 1 prints the
per-layer metrics: one untraced and one traced run of the workload (see
tracer.py), then the kernel microbenchmarks (see kernels.py).

Every run's artifacts are checked: the exit code, the manifest against the
files on disk, and the workload's physics oracle (see workloads.py). The
last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy
import scipy

from layers import layer_metrics
from workloads import WORKLOADS, OracleFailure

HERE = Path(__file__).resolve().parent
RUN_LIMIT_S = 170.0  # children still running past this point are killed
SETUP_REPEATS = 3
SAMPLE_EVERY_S = 0.025  # pacing interval; the kernel takes about 1% of it
SAMPLE_WINDOW = 8
REF_SAMPLE_S = 3.5e-4  # the pacing kernel's usual time on the host where this was built
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
CLI = "import sys; from pfl.cli import main; sys.exit(main(sys.argv[1:]))"


@dataclass
class Child:
    code: int
    wall_s: float  # leaves out the pacing kernel's time on the child's core
    rss_mb: float
    cpu_s: float
    log: Path
    speed: float  # mean core speed during the run, 1.0 = the reference

    @property
    def norm_s(self) -> float:
        """The child's wall time rescaled to a core of reference speed."""
        return self.wall_s * self.speed


class Pacer:
    """Measures how fast the benchmark's core runs while a child runs on it.

    The host gives the VM's cores phases of up to 1.5x lower throughput,
    lasting seconds to minutes, which no run is long enough to average out.
    A tiny fixed kernel, timed on the same core every SAMPLE_EVERY_S, slows
    down with the child (correlation 0.96 over 0.1 s windows on the host
    where this was built), so the child's time at reference speed is its
    wall time times the mean of REF_SAMPLE_S / kernel time.
    """

    def __init__(self):
        self.field = numpy.random.default_rng(0).standard_normal((32, 32)) + 0j

    def sample(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(600):
            acc += i * i % 7
        for _ in range(4):
            spectrum = numpy.fft.fft2(self.field)
            spectrum *= 1.0001
        return time.perf_counter() - start

    @staticmethod
    def speed(samples: list[float]) -> float:
        """Mean of REF_SAMPLE_S / t over windows of SAMPLE_WINDOW samples,
        each window's t a median, so a sample cut by preemption is dropped."""
        windows = [samples[i:i + SAMPLE_WINDOW]
                   for i in range(0, len(samples), SAMPLE_WINDOW)]
        if len(windows) > 1 and len(windows[-1]) < SAMPLE_WINDOW // 2:
            windows[-2].extend(windows.pop())
        return statistics.fmean(REF_SAMPLE_S / statistics.median(w) for w in windows)


class Runner:
    """Starts children one at a time on the benchmark's single core, each
    waited for and killed at the run's deadline, times them from spawn to
    exit and paces the core while they run (see Pacer)."""

    def __init__(self, root: Path, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.pacer = Pacer()
        # the children inherit this core, so the pacer shares it with them
        self.core = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {self.core})
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"),
                        **{var: "1" for var in THREAD_VARS})

    def run(self, tag: str, argv: list[str]) -> Child:
        log = self.work / f"{tag}.log"
        samples, busy = [], 0.0
        with log.open("w") as fh:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=fh,
                                    stderr=subprocess.STDOUT)
            pidfd = os.pidfd_open(proc.pid)
            try:
                while True:
                    left = self.deadline - time.monotonic()
                    if left <= 0.0:
                        proc.kill()
                        break
                    if select.select([pidfd], [], [], min(SAMPLE_EVERY_S, left))[0]:
                        break
                    samples.append(self.pacer.sample())
                    busy += samples[-1]
                wall = time.perf_counter() - start
            finally:
                os.close(pidfd)
                _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if not samples:
            samples.append(self.pacer.sample())
        return Child(proc.returncode, wall - busy, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, log, Pacer.speed(samples))

    def cli(self, tag: str, args: list[str]) -> Child:
        return self.run(tag, ["-c", CLI, *args])


def manifest(out: Path) -> dict[str, str]:
    entries = {}
    for line in (out / "manifest.txt").read_text().splitlines():
        digest, _, name = line.partition("  ")
        entries[name] = digest
    return entries


def check_run(child: Child, out: Path, workload) -> float:
    """Oracle error of one run; raises OracleFailure on any defect."""
    if child.code != 0:
        tail = child.log.read_text()[-400:]
        raise OracleFailure(f"exit code {child.code}: {tail}")
    try:
        listed = manifest(out)
        on_disk = {p.name for p in out.iterdir() if p.name != "manifest.txt"}
        if set(listed) != on_disk:
            raise OracleFailure(f"manifest lists {sorted(listed)}, "
                                f"directory has {sorted(on_disk)}")
        for name, digest in listed.items():
            if hashlib.sha256((out / name).read_bytes()).hexdigest() != digest:
                raise OracleFailure(f"manifest hash mismatch for {name}")
        return workload.check(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        raise OracleFailure(f"unreadable artifacts: {exc!r}") from exc


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def environment(runner: Runner, args, scenario: str) -> dict:
    """Children run this interpreter with its packages, so the versions seen
    here are the program's."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.partition(":")[2].strip()
                break
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "cpu_model": cpu, "platform": platform.platform(),
        "workload": args.workload, "scenario": scenario, "seed": args.seed,
        "jobs": 1, "seconds": args.seconds, "trace": args.trace,
        "threads": {var: runner.env[var] for var in THREAD_VARS},
        "core": runner.core,
        "isolation": "benchmark and children share one core, paced every "
                     f"{SAMPLE_EVERY_S} s; caches not dropped; other load on "
                     "the host shows in the raw wall times",
    }


def end_to_end(runner: Runner, args, workload, inputs, config: Path) -> dict:
    setups = []
    for i in range(SETUP_REPEATS):
        child = runner.cli(f"setup{i}", ["validate", "--config", str(config)])
        if child.code != 0:
            raise OracleFailure(f"pfl validate exited {child.code}")
        setups.append(child.norm_s)

    walls, raw, speeds, rss, cpu, attempted, failed = [], [], [], [], [], 0, 0
    planned = max(1, round(args.seconds / workload.nominal_s))
    while attempted < planned:
        out = runner.work / f"out{attempted}"
        child = runner.cli(f"run{attempted}", [
            workload.scenario, "--config", str(config), "--jobs", "1", "--out", str(out)])
        attempted += 1
        try:
            check_run(child, out, workload)
            walls.append(child.norm_s)
            raw.append(child.wall_s)
            speeds.append(child.speed)
            rss.append(child.rss_mb)
            cpu.append(child.cpu_s)
        except OracleFailure as exc:
            failed += 1
            print(f"run {attempted} failed: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        if time.monotonic() + child.wall_s > runner.deadline - 10.0:
            break
    if not walls:
        return {"attempted": attempted, "failed": failed, "metrics": {}}

    wall, setup = statistics.median(walls), statistics.median(setups)
    print(json.dumps({"detail": {
        "norm_wall_s": {"quartiles": quartiles(walls), "n": len(walls), "samples": walls},
        "setup_s": {"quartiles": quartiles(setups), "n": len(setups), "samples": setups},
        "wall_s": {"samples": raw}, "speed": {"samples": speeds},
        "cpu_s": {"samples": cpu}, "peak_rss_mb": {"samples": rss},
        "site_updates": inputs.site_updates}}))
    return {"attempted": attempted, "failed": failed, "metrics": {
        "norm_wall_s": (wall, "s"),
        "setup_s": (setup, "s"),
        "site_updates_per_s": (inputs.site_updates / wall, "1/s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }}


def per_layer(runner: Runner, args, workload, inputs, config: Path) -> dict:
    cli_args = [workload.scenario, "--config", str(config), "--jobs", "1"]
    plain_out, traced_out = runner.work / "out_plain", runner.work / "out_traced"
    spans_path = runner.work / "spans.json"
    kernels_path = runner.work / "kernels.json"
    plain = runner.cli("plain", [*cli_args, "--out", str(plain_out)])
    traced = runner.run("traced", [str(HERE / "tracer.py"), str(spans_path),
                                   *cli_args, "--out", str(traced_out)])
    kernels = runner.run("kernels", [str(HERE / "kernels.py"), str(config),
                                     str(kernels_path)])
    failed = 0
    oracle_err = {}
    for child, out in ((plain, plain_out), (traced, traced_out)):
        try:
            oracle_err[child.log.stem] = check_run(child, out, workload)
        except OracleFailure as exc:
            failed += 1
            print(f"{child.log.stem} run failed: {exc}")
    if kernels.code != 0:
        failed += 1
        print(f"kernel microbenchmarks failed: {kernels.log.read_text()[-400:]}")
    if failed:
        return {"attempted": 3, "failed": failed, "metrics": {}}

    plain_manifest, traced_manifest = manifest(plain_out), manifest(traced_out)
    differing = sum(plain_manifest.get(name) != traced_manifest.get(name)
                    for name in set(plain_manifest) | set(traced_manifest))
    written = sum(p.stat().st_size for p in traced_out.iterdir())
    kernel_figures = json.loads(kernels_path.read_text())
    metrics = layer_metrics(json.loads(spans_path.read_text()), kernel_figures)
    metrics.update({
        "fileio.bytes_written": (written, "B"),
        "fileio.nonreproducible_files": (differing, "count"),
        "trace.overhead_frac": (traced.norm_s / plain.norm_s - 1.0, "ratio"),
        "check.oracle_err": (oracle_err["plain"], "ratio"),
    })
    return {"attempted": 3, "failed": 0, "metrics": metrics,
            "env": {"fft_call": kernel_figures["fft_call"]}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "pfl" / "cli.py").is_file():
        print("error: run from the root of a pfl checkout (no src/pfl/cli.py here)",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    inputs = workload.inputs(args.seed)
    work = root / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    config = work / "workload.ini"
    config.write_text(inputs.ini)

    runner = Runner(root, work, time.monotonic() + RUN_LIMIT_S)
    measure = per_layer if args.trace else end_to_end
    try:
        result = measure(runner, args, workload, inputs, config)
    except OracleFailure as exc:
        print(f"set-up failed: {exc}")
        result = {"attempted": 1, "failed": 1, "metrics": {}}
    for out in work.glob("out*"):
        shutil.rmtree(out, ignore_errors=True)

    env = environment(runner, args, workload.scenario) | result.get("env", {})
    (work / "env.json").write_text(json.dumps(env, indent=1))
    print(json.dumps({"env": env}))
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"], "failed": result["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
