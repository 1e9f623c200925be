"""python tests/observed_runs.py OUT NAME=INI [NAME=INI ...]

Runs each INI once through pfl.cli.main into OUT/NAME and pickles what the
run did to OUT/NAME.pickle (see conftest.shipped_runs). Each run is a child
forked from this process, which loaded numpy and pfl.scenarios, as every run
does, but no scipy and no scenario module (dispersion, stats, hydro, gem,
potentials)."""

import contextlib
import io
import multiprocessing
import pickle
import re
import sys
import warnings
from pathlib import Path
from types import SimpleNamespace

from pfl import plans, rules, solver, sources

record = SimpleNamespace(planned=[], kernel_runs=[], propagates=[], calls=[], memories=[],
                         echo_peaks=[])
running = False  # inside run_scenario, where calls are counted


def spy(module, name, on_call):
    """Replace module.name by a wrapper that passes (args, result) to on_call."""
    function = getattr(module, name)

    def call(*args, **kwargs):
        result = function(*args, **kwargs)
        on_call(args, result)
        return result
    setattr(module, name, call)


def kernel_run(kernel, values, plan, on_snapshot, run=solver.SplitStepKernel.run):
    zs = []
    record.kernel_runs.append((values.shape, plan, kernel.dz, zs))
    return run(kernel, values, plan, lambda z, stack: zs.append(z) or on_snapshot(z, stack))


solver.SplitStepKernel.run = kernel_run
# before scenarios and dispersion bind propagate
spy(solver, "propagate", lambda args, records: record.propagates.append(
    [(args[1].length, [z for z, _ in r.snapshots]) for r in records]))
spy(plans, "propagations", lambda args, runs: running or record.planned.extend(runs))
from pfl import scenarios  # noqa: E402
from pfl.cli import main  # noqa: E402

for module, name in ((rules, "probe"), (rules, "probe_kick"), (rules, "tracked_snapshots"),
                     (scenarios, "build_source"), (scenarios, "plane_wave"),
                     (sources, "plane_wave")):
    spy(module, name, lambda args, result, name=name: running and record.calls.append(name))


def observed_run(*args, run=scenarios.run_scenario):
    global running
    running = True
    return run(*args)


def observe(ini: Path, out: Path):
    scenario = re.search(r"^scenario\s*=\s*(\S+)", ini.read_text(), re.M).group(1)
    if scenario.startswith("gem"):  # the memory scenarios load pfl.gem anyway
        from pfl import gem
        spy(gem, "gem_evolve", lambda args, _: record.memories.append((args[0], tuple(args[1]))))
        spy(gem, "echo_peaks", lambda args, peaks: record.echo_peaks.append((*args, peaks)))
    scenarios.run_scenario, stderr = observed_run, io.StringIO()
    with warnings.catch_warnings(record=True) as caught, contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        record.code = main([scenario, "--config", str(ini), "--out", str(out)])
    record.modules = sorted(m for m in sys.modules if m.partition(".")[0] in ("pfl", "scipy")
                            or m.split(".")[:2] == ["numpy", "ma"])
    record.warnings = [(w.category.__name__, str(w.message)) for w in caught]
    record.stderr, record.out = stderr.getvalue(), out
    Path(f"{out}.pickle").write_bytes(pickle.dumps(record))


if __name__ == "__main__":
    fork, children = multiprocessing.get_context("fork"), []
    for name, ini in (arg.split("=", 1) for arg in sys.argv[2:]):
        children.append(fork.Process(target=observe, args=(Path(ini), Path(sys.argv[1], name))))
        children[-1].start()
        children[-1].join()
    sys.exit(any(child.exitcode for child in children))
