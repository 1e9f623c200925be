import importlib.util
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from pfl.grid import Field2D, make_grid
from pfl.medium import MediumParams

WAVELENGTH = 780e-9  # D2 line of Rb
BENCHMARK_WORKLOADS = ("beam-512", "sf-ensemble-64", "bogoliubov-256")
CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))

# HYPOTHESIS_PROFILE=ci draws the same examples on every run; elsewhere
# each run explores new ones
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


def defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0, rho=1.0, tau=10.0,
                     n0=1.0, ny=None):
    """Plane-wave defocusing fluid with a prescribed healing length.

    Returns (grid, medium, background, scales) where scales is a dict with
    z_nl, xi, c_s and dn_nl for the background density rho = |E|^2.
    """
    grid = make_grid(nx, ny or nx, dx)
    k0 = 2.0 * np.pi / WAVELENGTH
    xi = xi_cells * dx
    z_nl = xi**2 * k0 * n0
    chi3 = -(1.0 / (z_nl * rho)) * 2.0 * n0 / k0
    medium = MediumParams(wavelength=WAVELENGTH, n0=n0, chi3=chi3,
                          length=tau * z_nl)
    dn_nl = abs(chi3) * rho / (2.0 * n0)
    background = Field2D(grid=grid,
                         values=np.full((grid.ny, grid.nx), np.sqrt(rho),
                                        dtype=np.complex128))
    scales = {"z_nl": z_nl, "xi": xi, "c_s": float(np.sqrt(dn_nl / n0)),
              "dn_nl": dn_nl, "k0": k0}
    return grid, medium, background, scales


@pytest.fixture
def small_grid():
    return make_grid(64, 64, 1e-5)


def workload_ini(name: str, seed: int) -> str:
    """The INI the benchmark runs pfl on for a workload of
    perfbench/workloads.py at a seed, that module loaded from its file."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up in sys.modules
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules[spec.name]
    return workloads.WORKLOADS[name].inputs(seed).ini


@pytest.fixture(scope="session")
def shipped_runs(tmp_path_factory):
    """{name: record} of one run of each shipped config (by file stem) and of
    each benchmark workload's INI at seed 1 (by workload), made once per
    session by observed_runs.py; every run must exit 0. A record holds the
    run's code, stderr, out (its run directory), modules (of pfl and scipy,
    and numpy.ma), warnings ((category, message), none filtered) and its
    calls: planned, the Propagations `pfl validate` planned; kernel_runs,
    (stack shape, plan, dz, snapshot z) per SplitStepKernel.run; propagates,
    per propagate call, (length, z_final, snapshot z) per member; calls, the names of
    the rules.probe, probe_kick, tracked_snapshots, build_source and
    plane_wave calls in run_scenario; memories, (config, pulses) per
    gem_evolve call; echo_peaks, (power, height, distance, peaks) per call."""
    out = tmp_path_factory.mktemp("shipped")
    inis = {path.stem: path for path in CONFIGS}
    for name in BENCHMARK_WORKLOADS:
        inis[name] = out / f"{name}.ini"
        inis[name].write_text(workload_ini(name, 1))
    # one BLAS thread, so that the launcher forks from a single-threaded process
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, str(Path(__file__).with_name("observed_runs.py")),
                           str(out), *(f"{name}={path}" for name, path in inis.items())],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    runs = {name: pickle.loads((out / f"{name}.pickle").read_bytes()) for name in inis}
    assert {name: run.stderr for name, run in runs.items() if run.code} == {}
    return runs
