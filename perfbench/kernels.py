"""Microbenchmarks of the solver's layers, untraced, in a fresh process.

    python3 perfbench/kernels.py CONFIG.ini OUT.json

Times the public `grid.fft2` + `grid.ifft2` pair and `solver.nonlinear_step`
on the workload's own initial field and medium, then sweeps a plane-wave
fluid at 64^2, 256^2, 512^2 and 1024^2 timing the same pair, the same kick
and a 10-step `solver.propagate` per step. Last it times the GEM layer:
`gem.gem_evolve` and `gem.gem_efficiency_measured` at the physics of
configs/gem_efficiency_sweep.ini. The FFT and solver figures are medians
over repeats after one warm-up call. FLOP and byte figures are computed from
the grid size, not counted by hardware.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from pfl import gem, solver
from pfl.config import parse_config
from pfl.gem import GaussianPulse, GemConfig
from pfl.grid import Field2D, fft2, ifft2, make_grid
from pfl.medium import MediumParams
from pfl.scenarios import build_grid, build_medium, build_plan, build_source
from pfl.solver import StepPlan, propagate

SWEEP_SIZES = (64, 256, 512, 1024)
SWEEP_STEPS = 10
# minimum traffic of one merged split step, bytes per complex128 site: the
# forward and inverse transforms each read and write the field (64), the
# kick reads and writes it (32), the spectral multiply reads the field and
# the kinetic factor and writes the field (48)
STEP_BYTES_PER_SITE = 144
GEM_REPEATS = 5


def median_ms(fn, budget_s: float = 0.3, min_reps: int = 3) -> float:
    """Median time of fn() in ms over about budget_s, after one warm-up call."""
    start = time.perf_counter()
    fn()
    first = time.perf_counter() - start
    reps = max(min_reps, min(200, int(budget_s / max(first, 1e-9))))
    samples = []
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1e3 * statistics.median(samples)


def layer_times(field: Field2D, medium: MediumParams, dz: float) -> tuple[float, float]:
    """(FFT pair, kick) in ms; the kick reads 0 if the program no longer has
    a public `solver.nonlinear_step`."""
    pair = median_ms(lambda: ifft2(fft2(field.values)))
    kick_step = getattr(solver, "nonlinear_step", None)
    if kick_step is None:
        return pair, 0.0
    return pair, median_ms(lambda: kick_step(field, dz, medium, 0.5 * dz))


def workload_layers(config_text: str) -> dict[str, float]:
    cfg = parse_config(config_text)
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    field = build_source(cfg, grid, medium)
    dz = build_plan(cfg).resolve_dz(medium.length)
    pair, kick = layer_times(field, medium, dz)
    return {"grid.fft_pair_ms": pair, "solver.kick_ms": kick}


def sweep() -> dict[str, float]:
    out = {}
    wavelength, dx = 780e-9, 5e-6
    k0 = 2.0 * math.pi / wavelength
    z_nl = (1.5 * dx) ** 2 * k0  # healing length of 1.5 cells at |E|^2 = 1
    dz = z_nl / 15.0
    medium = MediumParams(wavelength=wavelength, n0=1.0, chi3=-2.0 / (k0 * z_nl),
                          length=SWEEP_STEPS * dz)
    plan = StepPlan(n_steps=SWEEP_STEPS)
    for n in SWEEP_SIZES:
        grid = make_grid(n, n, dx)
        field = Field2D(grid=grid, values=np.ones((n, n), dtype=np.complex128))
        pair, kick = layer_times(field, medium, dz)
        step = median_ms(lambda: propagate(field, medium, plan)) / SWEEP_STEPS
        sites = n * n
        flops = 2 * 5.0 * sites * math.log2(sites)
        out[f"grid.fft_pair_ms.n{n}"] = pair
        out[f"solver.kick_ms.n{n}"] = kick
        out[f"solver.step_ms.n{n}"] = step
        out[f"grid.fft_gflops_computed.n{n}"] = flops / (pair * 1e-3) / 1e9
        out[f"solver.step_bytes_computed.n{n}"] = STEP_BYTES_PER_SITE * sites
    return out


def gem_layer() -> dict[str, float]:
    """gem_evolve per time sample, and the rest of gem_efficiency_measured,
    for one ratio (2 pi g N / eta = 1) of the sweep config. Both come from
    the same calls: gem.gem_evolve is timed from inside them. Each is the
    median over GEM_REPEATS calls."""
    g = math.sqrt(20.0 / (2.0 * math.pi))
    config = GemConfig(g=g, density=g, eta0=20.0, z_extent=2.0, nz=256,
                       t_extent=8.0, nt=1600, eta_flips=(3.0,))
    pulse = GaussianPulse(center=1.5, width=0.18)
    evolve_s = []

    def timed_evolve(*args, **kwargs):
        start = time.perf_counter()
        try:
            return evolve(*args, **kwargs)
        finally:
            evolve_s.append(time.perf_counter() - start)

    evolve, gem.gem_evolve = gem.gem_evolve, timed_evolve
    rest_s = []
    try:
        for _ in range(GEM_REPEATS):
            start = time.perf_counter()
            gem.gem_efficiency_measured(config, pulse)
            rest_s.append(time.perf_counter() - start - evolve_s[-1])
    finally:
        gem.gem_evolve = evolve
    return {"gem.step_us": 1e6 * statistics.median(evolve_s) / config.nt,
            "gem.measure_s": statistics.median(rest_s)}


def main(argv: list[str]) -> int:
    config_path, out_path = argv
    # the names pfl.grid.fft2 calls, such as np.fft.fft2, identify the FFT backend
    result = {"fft_call": ".".join(fft2.__code__.co_names)}
    result.update(workload_layers(Path(config_path).read_text()))
    result.update(sweep())
    result.update(gem_layer())
    Path(out_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
