"""Acceptance criteria, one test per criterion.

Each test prints a single CRITERION line with the measured numbers; run
with `pytest -s tests/test_acceptance.py` to see them as they complete.
"""

import time

import numpy as np
import pytest

from pfl.cli import main as cli_main
from pfl.dispersion import (dispersion_from_group_velocity, measure_group_velocity,
                            sound_speed_scaling)
from pfl.gem import (GaussianPulse, GemConfig, gem_efficiency_measured,
                     gem_efficiency_theory, gem_evolve, recall_order)
from pfl.grid import Field2D, fft2, ifft2, make_grid
from pfl.hydro import circulation_batch, detect_vortices
from pfl.medium import MediumParams
from pfl.plans import ProbeSpec, probe_stack, sound_scaling_runs
from pfl.potentials import lattice_potential
from pfl.solver import StepPlan, propagate
from pfl.sources import gaussian_beam, imprint_vortex, speckle
from pfl.stats import intensity_statistics, structure_factor

from conftest import WAVELENGTH, defocusing_setup

K0 = 2.0 * np.pi / WAVELENGTH


def report(number: int, name: str, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"\nCRITERION {number:2d} [{status}] {name}: {detail}")


def test_criterion_01_free_diffraction_oracle():
    # Gaussian at 780 nm, w0 = 100 um, linear medium, z = 2 z_R
    w0 = 100e-6
    z_r = np.pi * w0**2 / WAVELENGTH
    grid = make_grid(256, 256, 5e-6)
    beam = gaussian_beam(grid, w0, 1.0, 1.0)
    medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=2 * z_r)
    t0 = time.perf_counter()
    record = propagate(beam, medium, StepPlan(n_steps=64))
    elapsed = time.perf_counter() - t0
    rho = record.final_field.density()
    x = grid.x_coords()
    marg = rho.sum(axis=0)
    w_measured = 2.0 * np.sqrt(float((marg * x**2).sum() / marg.sum()))
    w_expected = w0 * np.sqrt(1.0 + (2.0) ** 2)
    rel = abs(w_measured / w_expected - 1.0)
    ok = rel < 0.005 and elapsed < 10.0
    report(1, "free-diffraction oracle", ok,
           f"waist error {rel * 100:.4f}% (tol 0.5%), runtime {elapsed:.2f} s (< 10 s)")
    assert rel < 0.005
    assert elapsed < 10.0


def test_criterion_02_unitarity():
    # alpha = 0, real potential, defocusing run of 1000 steps
    grid, medium, background, scales = defocusing_setup(nx=64, dx=5e-6,
                                                        xi_cells=3.0, tau=10.0)
    dn = lattice_potential(grid, 0.05 / (medium.k0 * medium.length), 16 * grid.dx)
    medium.potential = dn.real.astype(complex)
    record = propagate(background, medium, StepPlan(n_steps=1000))
    power = record.power_trace[:, 1]
    drift = float(np.max(np.abs(power / power[0] - 1.0)))
    ok = drift < 1e-10
    report(2, "unitarity over 1000 steps", ok, f"max power drift {drift:.3e} (tol 1e-10)")
    assert drift < 1e-10


def test_criterion_03_loss_law():
    grid = make_grid(128, 128, 5e-6)
    with pytest.warns(UserWarning, match="beam waist"):
        beam = gaussian_beam(grid, 1.2e-4, 1.0, 1.0)
    alpha, length = 37.0, 0.042
    medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, alpha=alpha,
                          length=length)
    record = propagate(beam, medium, StepPlan(n_steps=211))
    ratio = record.final_field.power() / beam.power()
    expected = np.exp(-alpha * length)
    rel = abs(ratio / expected - 1.0)
    ok = rel < 1e-6
    report(3, "exponential loss law", ok, f"relative error {rel:.2e} (tol 1e-6)")
    assert rel < 1e-6


def test_criterion_04_strang_order():
    grid, medium, _, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=5.0)
    with pytest.warns(UserWarning, match="beam waist"):
        beam = gaussian_beam(grid, 8e-5, 1e-4, 1.0)
    bump = Field2D(grid=grid,
                   values=1.0 + 0.4 * beam.values / np.abs(beam.values).max())
    ref = propagate(bump, medium, StepPlan(n_steps=1280)).final_field.values
    errs = [np.linalg.norm(
        propagate(bump, medium, StepPlan(n_steps=n)).final_field.values - ref)
        for n in (160, 320)]
    ratio = errs[0] / errs[1]
    ok = 3.5 <= ratio <= 4.5
    report(4, "Strang second-order self-convergence", ok,
           f"error ratio dz vs dz/2 = {ratio:.3f} (band [3.5, 4.5])")
    assert 3.5 <= ratio <= 4.5


def test_criterion_05_bogoliubov_sonic_branch():
    t0 = time.perf_counter()
    grid, medium, _, scales = defocusing_setup(nx=256, dx=5e-6, xi_cells=1.5, tau=35.0)
    xi, c_s = scales["xi"], scales["c_s"]
    plan = StepPlan(n_steps=525, snapshot_every=10)
    k_xis = (0.12, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0)
    probes = [ProbeSpec(waist=15 * xi, k_perp=k_xi / xi, power_ratio=1e-5) for k_xi in k_xis]
    # over defocusing_setup's plane wave of density 1
    measured = measure_group_velocity(probe_stack(medium, 1.0, probes, plan, grid), grid)
    plateau = [m.v_g for k_xi, m in zip(k_xis, measured) if k_xi <= 0.3]
    elapsed = time.perf_counter() - t0
    spread = (max(plateau) - min(plateau)) / np.mean(plateau)
    curve = dispersion_from_group_velocity(measured, medium)
    cs_err = abs(curve.c_s / c_s - 1.0)
    ok = spread < 0.10 and cs_err < 0.05 and elapsed < 300.0
    report(5, "Bogoliubov sonic branch", ok,
           f"plateau spread {spread * 100:.2f}% (tol 10%), fitted c_s error "
           f"{cs_err * 100:.2f}% (tol 5%), runtime {elapsed:.0f} s (< 300 s)")
    assert spread < 0.10
    assert cs_err < 0.05
    assert elapsed < 300.0


def test_criterion_06_sound_speed_scaling():
    grid = make_grid(256, 256, 5e-6)
    xi_ref = 2.4 * grid.dx
    z_nl_ref = xi_ref**2 * K0
    chi3 = -(1.0 / z_nl_ref) * 2.0 / K0
    medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=chi3, length=1.0)
    runs = sound_scaling_runs(medium, [1.0, 2.0, 4.0, 7.0, 10.0], grid, tau=25.0,
                              k_perp_xi=0.2, probe_waist_xi=10.0, power_ratio=1e-5)
    result = sound_speed_scaling(runs, grid)
    ok = abs(result.exponent - 0.5) <= 0.05
    report(6, "sound speed scales as sqrt(density)", ok,
           f"log-log exponent {result.exponent:.4f} +- {result.stderr:.4f} "
           f"(target 0.50 +- 0.05)")
    assert abs(result.exponent - 0.5) <= 0.05


def test_criterion_07_precondensation_signature():
    grid = make_grid(128, 128, 16e-6)
    xi = 2.2 * grid.dx
    z_nl = xi**2 * K0
    chi3 = -(1.0 / z_nl) * 2.0 / K0
    from pfl.medium import density_to_intensity
    mean_intensity = density_to_intensity(1.0, 1.0)
    members = [speckle(grid, 10 * xi, mean_intensity, seed=500 + i, n0=1.0)
               for i in range(4)]
    g2_values = []
    modes = []
    for tau in (1.0, 3.0, 6.0):
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=chi3,
                              length=tau * z_nl)
        finals = [propagate(m, medium, StepPlan(n_steps=max(60, int(tau * 30))))
                  .final_field for m in members]
        stats = intensity_statistics(finals, bins=64)
        g2_values.append(stats.g2)
        modes.append(stats.mode / stats.mean)
    monotone = g2_values[0] > g2_values[1] > g2_values[2]
    mode_positive = modes[-1] > 0.0
    ok = monotone and mode_positive
    report(7, "pre-condensation P(I) signature", ok,
           f"g2(tau=1,3,6) = {g2_values[0]:.3f}, {g2_values[1]:.3f}, "
           f"{g2_values[2]:.3f} (monotone decreasing), final mode at "
           f"{modes[-1]:.2f} x mean intensity (> 0)")
    assert monotone
    assert mode_positive


def test_criterion_08_gem_efficiency():
    eta = 20.0
    worst = 0.0
    echo_offsets = []
    for ratio in (0.5, 1.0, 1.5, 2.0, 3.0):
        g_n = ratio * eta / (2.0 * np.pi)
        g = density = float(np.sqrt(g_n))
        cfg = GemConfig(g=g, density=density, eta0=eta, z_extent=2.0, nz=256,
                        t_extent=8.0, nt=1600, eta_flips=(3.0,))
        pulse = GaussianPulse(center=1.5, width=0.18)
        measured = gem_efficiency_measured(cfg, pulse)
        theory = gem_efficiency_theory(g, density, eta)
        worst = max(worst, abs(measured.sigma / theory - 1.0))
        echo_offsets.append(abs(measured.echo_time - (2 * 3.0 - 1.5)))
    dt = 8.0 / (1600 - 1)
    ok = worst < 0.05 and max(echo_offsets) <= dt
    report(8, "GEM efficiency vs closed form", ok,
           f"worst relative error {worst * 100:.3f}% over the ratio sweep "
           f"(tol 5%), echo offset {max(echo_offsets) / dt:.2f} time cells (<= 1)")
    assert worst < 0.05
    assert max(echo_offsets) <= dt


def test_criterion_09_fifo_filo():
    eta = 20.0
    g = density = float(np.sqrt(1.5 * eta / (2.0 * np.pi)))
    train = [GaussianPulse(1.0, 0.15, label="A"), GaussianPulse(2.0, 0.15, label="B")]
    filo_cfg = GemConfig(g=g, density=density, eta0=eta, z_extent=2.0, nz=256,
                         t_extent=7.0, nt=1400, eta_flips=(3.0,))
    filo = recall_order(filo_cfg, train, gem_evolve(filo_cfg, train, store_polarization=False))
    fifo_cfg = GemConfig(g=g, density=density, eta0=eta, z_extent=2.0, nz=256,
                         t_extent=9.0, nt=2000, eta_flips=(3.0, 5.5),
                         coupling_windows=((0.0, 3.2), (5.7, 9.0)))
    fifo = recall_order(fifo_cfg, train, gem_evolve(fifo_cfg, train, store_polarization=False))
    ok = filo.labels == ["B", "A"] and fifo.labels == ["A", "B"]
    report(9, "FIFO/FILO pulse ordering", ok,
           f"FILO peaks {[f'{t:.3f}' for t in filo.peak_times]} -> "
           f"{','.join(filo.labels)}; FIFO peaks "
           f"{[f'{t:.3f}' for t in fifo.peak_times]} -> {','.join(fifo.labels)}")
    assert filo.labels == ["B", "A"]
    assert fifo.labels == ["A", "B"]
    assert (filo.mode, fifo.mode) == ("FILO", "FIFO")  # the schedule sets the mode


def test_criterion_10_vortex_invariants():
    grid = make_grid(128, 128, 1e-5)
    with pytest.warns(UserWarning, match="beam waist"):
        base = gaussian_beam(grid, 2.4e-4, 1.0, 1.0)
    recovered = {}
    for charge in (-3, -2, -1, 1, 2, 3):
        f = imprint_vortex(base, charge, center=(0.5e-5, 0.5e-5), core_width=3e-5)
        recovered[charge] = detect_vortices(f).total_winding
    windings_exact = all(recovered[q] == q for q in recovered)

    # circulation quantization on 1e4 random loops avoiding the cores
    from pfl.sources import plane_wave
    field = plane_wave(grid, 10.0, 1.0)
    cores = [(84, 64), (44, 64)]  # grid indices of the two cores below
    field = imprint_vortex(field, +1, center=(20.5e-5, 0.5e-5))
    field = imprint_vortex(field, -1, center=(-19.5e-5, 0.5e-5))
    rng = np.random.default_rng(4242)
    loops = []
    while len(loops) < 10_000:
        ix0 = rng.integers(1, 110)
        iy0 = rng.integers(1, 110)
        ix1 = ix0 + rng.integers(4, 17)
        iy1 = iy0 + rng.integers(4, 17)
        edges_clear = all(
            not (ix0 - 2 <= cx <= ix1 + 2 and iy0 - 2 <= cy <= iy1 + 2)
            or (ix0 + 2 < cx < ix1 - 2 and iy0 + 2 < cy < iy1 - 2)
            for cx, cy in cores
        )
        if edges_clear:
            loops.append((ix0, iy0, ix1, iy1))
    circs = circulation_batch(field, np.asarray(loops))
    windings = circs / (2.0 * np.pi)
    max_dev = float(np.max(np.abs(windings - np.rint(windings))))
    ok = windings_exact and max_dev < 1e-6
    report(10, "vortex winding and circulation quantization", ok,
           f"recovered {recovered}, worst quantization deviation "
           f"{max_dev:.2e} over 10^4 loops (tol 1e-6)")
    assert windings_exact
    assert max_dev < 1e-6


def test_criterion_11_structure_factor():
    # (a) self-referenced normalization: S = 1 +- 3 sigma everywhere
    grid_a = make_grid(48, 48, 1e-5)

    def noise_ensemble(seed0, n):
        out = []
        for i in range(n):
            rng = np.random.default_rng(seed0 + i)
            noise = 1e-3 * (rng.standard_normal((48, 48))
                            + 1j * rng.standard_normal((48, 48)))
            out.append(np.abs(1.0 + noise) ** 2)
        return out

    sf_self = structure_factor(zip(noise_ensemble(0, 200), noise_ensemble(10_000, 200)),
                               grid=grid_a, nbins=10)
    self_ok = bool(np.all(np.abs(sf_self.s_k - 1.0) <= 3.0 * sf_self.sigma))

    # (b) defocusing surrogate vs the linearized Bogoliubov oracle
    grid, medium, _, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=4.0,
                                               tau=2.0)
    xi = scales["xi"]
    length = medium.length
    band = np.sqrt(grid.k_squared()) <= 0.75 * np.pi / grid.dx
    plan = StepPlan(n_steps=180)  # 0.46 rad of kinetic phase per step
    signal, reference = [], []
    rng = np.random.default_rng(1234)
    for _ in range(200):
        white = (rng.standard_normal((64, 64))
                 + 1j * rng.standard_normal((64, 64))) / np.sqrt(2.0)
        noise = ifft2(fft2(1e-3 * white) * band)
        f = Field2D(grid=grid, values=1.0 + noise)
        reference.append(f.density())
        signal.append(propagate(f, medium, plan).final_field.density())
    nbins = 64
    sf = structure_factor(zip(signal, reference), grid=grid, nbins=nbins)

    # oracle: S(k) = 1 - (2 mu / (E + 2 mu)) sin^2(Omega L), bin-averaged
    # over the same discrete modes
    kk = np.sqrt(grid.k_squared())
    e_k = kk**2 / (2.0 * K0)
    mu = K0 * scales["dn_nl"]
    omega = np.sqrt(e_k * (e_k + 2.0 * mu))
    oracle_mode = 1.0 - (2.0 * mu / (e_k + 2.0 * mu)) * np.sin(omega * length) ** 2
    k_max = float(np.max(np.abs(grid.kx())))
    edges = np.linspace(0.0, k_max, nbins + 1)
    idx = np.clip(np.digitize(kk.ravel(), edges) - 1, 0, nbins - 1)
    keep = (kk.ravel() > 0) & (kk.ravel() <= k_max)
    o_sum = np.bincount(idx[keep], weights=oracle_mode.ravel()[keep], minlength=nbins)
    o_cnt = np.bincount(idx[keep], minlength=nbins)
    centers = edges[:-1] + 0.5 * np.diff(edges)
    oracle = {c: s / n for c, s, n in zip(centers, o_sum, o_cnt) if n > 0}

    band_sel = sf.k * xi < 1.0
    below_one = bool(np.all(sf.s_k[band_sel] < 1.0))
    deviation = max(abs(s - oracle[k]) for k, s in zip(sf.k[band_sel],
                                                       sf.s_k[band_sel]))
    ok = self_ok and below_one and deviation < 0.10
    report(11, "structure factor", ok,
           f"self-referenced |S-1| <= 3 sigma everywhere: {self_ok}; "
           f"S(k xi < 1) < 1: {below_one}; max |S - oracle| in band "
           f"{deviation:.3f} (tol 0.10)")
    assert self_ok
    assert below_one
    assert deviation < 0.10


def test_criterion_12_reproducibility(tmp_path):
    config_text = """
[run]
scenario = propagate
seed = 2026

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -5e-21
length = 0.02

[plan]
n_steps = 40

[source]
kind = speckle
intensity = 80.0
correlation_length = 6e-5
"""
    cfg_path = tmp_path / "repro.ini"
    cfg_path.write_text(config_text)
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli_main(["propagate", "--config", str(cfg_path),
                         "--out", str(out)]) == 0
        outs.append(out)
    # the whole run directory, manifest.txt and metrics.txt included
    names = sorted(p.name for p in outs[0].iterdir())
    expected = {"manifest.txt", "metrics.txt", "power.csv", "input.pfl1", "final.pfl1"}
    identical = (names == sorted(p.name for p in outs[1].iterdir())
                 and all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                         for n in names))
    ok = identical and expected <= set(names)
    report(12, "seeded reproducibility", ok,
           f"all {len(names)} files of the run directory, manifest.txt and "
           f"metrics.txt included, byte-identical across repeated runs")
    assert expected <= set(names)
    assert identical
