import dataclasses
import tracemalloc
from pathlib import Path
import warnings

import numpy as np
import pytest

from pfl.cli import main as cli_main
from pfl.dispersion import (GroupVelocityMeasurement, _fit_bogoliubov, _group_velocities,
                            _line_fit, bogoliubov_group_velocity, bogoliubov_omega,
                            dispersion_from_group_velocity,
                            measure_group_velocity, probe_line)
from pfl.grid import fft2, make_grid
from pfl.medium import MediumParams, intensity_to_density, shift_scales
from pfl.plans import ProbeSpec, StepPlan, probe_stack, sound_scaling_runs
from pfl.solver import propagate

from conftest import WAVELENGTH, defocusing_setup

# a UserWarning fails these tests, also one that pyproject.toml filters out
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

K0 = 2 * np.pi / WAVELENGTH
SHIPPED = Path(__file__).resolve().parent.parent / "configs" / "bogoliubov_dispersion.ini"
SHIPPED_DN = 3.082e-12 * intensity_to_density(132720.0, 1.0) / 2.0  # c_s = 0.0124137


def _measure(medium, probes, plan, grid, density=1.0):
    """measure_group_velocity of the probe stack plans.probe_stack builds
    over a uniform background of this density (defocusing_setup's 1.0)."""
    return measure_group_velocity(probe_stack(medium, density, probes, plan, grid), grid)


def _measurements(k, v_g, omega):
    return [GroupVelocityMeasurement(k_perp=kk, v_g=vv, omega=oo)
            for kk, vv, oo in zip(k, v_g, omega)]


def _shipped_run(tmp_path, *edits):
    """(dispersion.csv's rows, fit.txt's c_s) of a run of the shipped
    dispersion config with each (old, new) of edits replaced in its text."""
    text = SHIPPED.read_text()
    for old, new in edits:
        assert old in text
        text = text.replace(old, new)
    config, out = tmp_path / "run.ini", tmp_path / "run"
    config.write_text(text)
    assert cli_main(["dispersion", "--config", str(config), "--out", str(out)]) == 0
    fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
    return np.loadtxt(out / "dispersion.csv", delimiter=",", skiprows=1), float(fit["c_s"])


def _probe_plane(background, probe):
    """The 2D field whose y-mean probe_line propagates: the background plus
    sqrt(power_ratio) |E0| exp(-r^2 / w^2) exp(i k_perp x)."""
    xx, yy = background.grid.meshgrid()
    e0 = background.values[0, 0]
    bump = np.sqrt(probe.power_ratio) * abs(e0) * np.exp(-(xx**2 + yy**2) / probe.waist**2)
    return background.with_values(e0 + bump * np.exp(1j * probe.k_perp * xx))


def _plane_reference(background, probe, medium, plan):
    """v_g read from the 2D probe run: the background is propagated with
    whole densities kept, the probe sums their difference over y over the
    decay exp(-alpha z), and the recurrence reads the evenly spaced
    snapshots."""
    planes = iter(propagate(background, medium, plan,
                            keep=lambda z, f: f.density()).snapshots)
    record = propagate(_probe_plane(background, probe), medium, plan,
                       keep=lambda z, f: (f.density() - next(planes)[1]).sum(
                           axis=0, keepdims=True) / np.exp(-medium.alpha * z))
    even = plan.n_steps // plan.snapshot_every
    changes = np.array([[change for _, change in record.snapshots[:even]]])
    _, (v_g,) = _group_velocities(changes, [probe], background.grid,
                                  plan.snapshot_every * plan.resolve_dz(medium.length))
    return v_g


class TestBogoliubovForms:
    def test_omega_asymptotics(self):
        dn = 1e-4
        k_low = np.array([1.0])
        c_s = np.sqrt(dn / 1.0)
        assert bogoliubov_omega(k_low, K0, 1.0, dn)[0] == pytest.approx(
            c_s * k_low[0], rel=1e-6)
        k_high = np.array([1e7])
        assert bogoliubov_omega(k_high, K0, 1.0, dn)[0] == pytest.approx(
            k_high[0]**2 / (2 * K0), rel=1e-2)

    def test_group_velocity_limits(self):
        dn = 1e-4
        c_s = np.sqrt(dn / 1.0)
        assert bogoliubov_group_velocity(np.array([0.0]), K0, 1.0, dn)[0] == \
            pytest.approx(c_s)
        k = np.array([1e3])
        assert bogoliubov_group_velocity(k, K0, 1.0, dn)[0] == \
            pytest.approx(c_s, rel=1e-3)

    def test_sound_speed_vanishes_without_interactions(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20)
        assert shift_scales(med, 0.0) == (np.inf, np.inf, 0.0)
        assert shift_scales(med, 1e-12)[2] < 1e-5
        assert bogoliubov_group_velocity(np.array([0.0]), K0, 1.0, 0.0)[0] == 0.0


class TestDispersionIntegration:
    def test_closed_loop_bogoliubov_fit(self):
        # synthesize Omega and v_g from the model, fit: c_s within 1%
        dn_true = 7.3e-5
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        xi = 1.0 / np.sqrt(K0**2 * dn_true)  # 1/(k0 sqrt(n0 dn))
        k = np.linspace(0.05, 3.0, 20) / xi
        curve = dispersion_from_group_velocity(_measurements(
            k, bogoliubov_group_velocity(k, K0, 1.0, dn_true),
            bogoliubov_omega(k, K0, 1.0, dn_true)), med)
        assert curve.c_s == pytest.approx(np.sqrt(dn_true / 1.0), rel=0.01)
        assert curve.xi_fit == pytest.approx(xi, rel=0.02)

    def test_sonic_line_fit_sits_on_the_boundary(self):
        # the sonic line c k falls below E_k at high k, where any dn > 0
        # widens the misfit: the constrained minimum is dn = 0, with a
        # finite stderr
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        k = np.linspace(1e4, 1e5, 8)
        curve = dispersion_from_group_velocity(_measurements(k, [3.3e-3] * 8, 3.3e-3 * k), med)
        assert curve.dn_fit == 0.0
        assert 0.0 < curve.dn_stderr < np.inf

    def test_non_finite_samples_do_not_converge(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        k = np.linspace(1e4, 5e4, 5)
        omega = np.where(k == 3e4, np.nan, 1e-3 * k)
        with pytest.raises(RuntimeError, match="Bogoliubov fit did not converge"):
            dispersion_from_group_velocity(_measurements(k, [1e-3] * 5, omega), med)

    def test_rejects_fewer_than_five_measurements(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        with pytest.raises(ValueError, match="at least 5 measurements, got 3"):
            dispersion_from_group_velocity(_measurements([1.0] * 3, [1.0] * 3, [1.0] * 3), med)


def _noisy_bogoliubov_curve(seed, dn_true=7.3e-5, n=8, with_k0=False):
    """The fit of n Bogoliubov Omega with 3% noise, at k in increasing order."""
    med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
    rng = np.random.default_rng(seed)
    xi = 1.0 / np.sqrt(K0**2 * dn_true)
    k = np.sort(rng.uniform(0.05, 3.0, n)) / xi
    if with_k0:
        k[0] = 0.0
    omega = bogoliubov_omega(k, K0, 1.0, dn_true) * (1 + 0.03 * rng.standard_normal(n))
    return dispersion_from_group_velocity(
        _measurements(k, bogoliubov_group_velocity(k, K0, 1.0, dn_true), omega), med)


class TestFitsAgainstScipy:
    """The numpy fits against the scipy routines they replace."""

    def test_line_fit_matches_linregress(self):
        from scipy import stats
        rng = np.random.default_rng(21)
        cases = [(np.arange(5.0), 2.0 * np.arange(5.0) + 1.0)]  # exact line
        for n in (3, 5, 12, 53):
            x = np.sort(rng.uniform(0.0, 1e-2, n))
            cases.append((x, 3e-3 * x - 2e-6 + 1e-7 * rng.standard_normal(n)))
        for x, y in cases:
            ref = stats.linregress(x, y)
            np.testing.assert_allclose(_line_fit(x, y), (ref.slope, ref.intercept, ref.stderr),
                                       rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("seed, dn_true, with_k0", [
        (1, 7.3e-5, False), (2, 2.0e-4, False), (3, 1.5e-5, True), (4, 7.3e-5, True)])
    def test_bogoliubov_fit_matches_curve_fit(self, seed, dn_true, with_k0):
        from scipy import optimize
        curve = _noisy_bogoliubov_curve(seed, dn_true, with_k0=with_k0)
        assert curve.k_perp[0] == 0.0 if with_k0 else curve.k_perp[0] > 0.0
        # the call the numpy fit replaces
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, pcov = optimize.curve_fit(
                lambda kk, dn: bogoliubov_omega(kk, K0, 1.0, abs(dn)), curve.k_perp,
                curve.omega, p0=[max(np.max(curve.v_g) ** 2, 1e-18)], maxfev=10000)
        assert 0.5 < curve.dn_fit / dn_true < 2.0  # an interior minimum
        assert curve.dn_fit == pytest.approx(abs(popt[0]), rel=1e-6)
        assert curve.dn_stderr == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-4)

    def test_bogoliubov_fit_zeroes_the_gradient(self):
        curve = _noisy_bogoliubov_curve(5)
        dn, _ = _fit_bogoliubov(curve.k_perp, curve.omega, K0, 1.0, 1e-4)
        h = 1e-6 * dn
        ssr = [np.sum((bogoliubov_omega(curve.k_perp, K0, 1.0, d) - curve.omega) ** 2)
               for d in (dn - h, dn, dn + h)]
        assert ssr[1] <= min(ssr[0], ssr[2])


def test_a_sweep_runs_one_transform(monkeypatch):
    # the modes of every probe and snapshot come from one forward transform
    # of the (K, S, 1, nx) stack
    from pfl import dispersion
    calls = []

    def counted(values):
        calls.append(values.shape)
        return fft2(values)

    monkeypatch.setattr(dispersion, "fft2", counted)
    grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                        xi_cells=2.0, tau=8.0)
    plan = StepPlan(n_steps=160, snapshot_every=16)
    probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k_xi / scales["xi"],
                        power_ratio=1e-4) for k_xi in (0.5, 1.0, 1.5)]
    _measure(medium, probes, plan, grid)
    assert calls == [(3, 10, 1, 128)]


class TestContinuumBranch:
    """Each probe's v_g against bogoliubov_group_velocity, relative."""

    def test_criterion_05_probes_and_a_zero_k_probe(self):
        # criterion 05's set-up and a k_perp = 0 probe: 1.2e-4 to 4.1e-4
        # measured
        grid, medium, _, scales = defocusing_setup(nx=256, dx=5e-6, xi_cells=1.5, tau=35.0)
        xi = scales["xi"]
        probes = [ProbeSpec(waist=15 * xi, k_perp=k_xi / xi, power_ratio=1e-5)
                  for k_xi in (0.0, 0.12, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0)]
        measured = _measure(medium, probes, StepPlan(n_steps=525, snapshot_every=10), grid)
        v = np.array([m.v_g for m in measured])
        k = np.array([p.k_perp for p in probes])
        theory = bogoliubov_group_velocity(k, K0, 1.0, scales["dn_nl"])
        assert np.max(np.abs(v / theory - 1.0)) < 1e-3

    def test_criterion_06_runs(self):
        # criterion 06's five sound-scaling runs: 1.0e-4 to 4.2e-4 measured
        grid = make_grid(256, 256, 5e-6)
        xi_ref = 2.4 * grid.dx
        chi3 = -(1.0 / (xi_ref**2 * K0)) * 2.0 / K0
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=chi3, length=1.0)
        runs = sound_scaling_runs(medium, [1.0, 2.0, 4.0, 7.0, 10.0], grid, tau=25.0,
                                  k_perp_xi=0.2, probe_waist_xi=10.0, power_ratio=1e-5)
        for run in runs:
            (m,) = measure_group_velocity(run, grid)
            dn = abs(chi3) * run.density / 2.0
            theory = bogoliubov_group_velocity(np.array([m.k_perp]), K0, 1.0, dn)[0]
            assert m.v_g == pytest.approx(theory, rel=1e-3)

    def test_the_shipped_dispersion_config_over_twice_its_length(self, tmp_path):
        # twice the length in twice the steps: each v_g within 1.5e-3
        # measured
        rows, _ = _shipped_run(tmp_path, ("length = 0.012888", "length = 0.025776"),
                               ("n_steps = 240", "n_steps = 480"))
        theory = bogoliubov_group_velocity(rows[:, 0], K0, 1.0, SHIPPED_DN)
        assert len(rows) == 5
        assert np.max(np.abs(rows[:, 1] / theory - 1.0)) < 3e-3

    def test_the_shipped_dispersion_config_reads_each_omega(self, tmp_path):
        # each probe's Omega, the parabola's value at |k_perp|, lies on the
        # continuum branch (3.9e-4 relative measured; an integral of v_g
        # over k_perp read 6.7e-3)
        rows, _ = _shipped_run(tmp_path)
        theory = bogoliubov_omega(rows[:, 0], K0, 1.0, SHIPPED_DN)
        assert np.max(np.abs(rows[:, 2] / theory - 1.0)) < 1e-3

    def test_a_sparse_sweep_fits_the_sound_speed(self, tmp_path):
        # a sweep whose top probe sits far above the others: the fit takes
        # each probe's Omega, so no interpolation between probes enters it
        # (0.14% high measured; an integral of v_g over k_perp read 11.5%)
        _, c_s = _shipped_run(tmp_path, ("k_perp_list = 20000, 30000, 40000, 60000, 90000",
                                         "k_perp_list = 20000, 30000, 40000, 60000, 300000"))
        assert c_s == pytest.approx(np.sqrt(SHIPPED_DN), rel=0.05)

    def test_a_probe_near_the_nyquist_mode_fits_the_sound_speed(self, tmp_path):
        # the top probe at 623000 1/m reads modes up to nx/2 with a snapshot
        # every step, under the solver's resolution warning (0.72% high
        # measured; an integral of v_g over k_perp read 40.5%)
        with pytest.warns(UserWarning, match="step size"):
            _, c_s = _shipped_run(
                tmp_path, ("k_perp_list = 20000, 30000, 40000, 60000, 90000",
                           "k_perp_list = 20000, 30000, 40000, 60000, 623000"),
                ("snapshot_every = 8", "snapshot_every = 1"))
        assert c_s == pytest.approx(np.sqrt(SHIPPED_DN), rel=0.05)

    def test_the_uneven_last_snapshot_is_not_read(self):
        # criterion 05's plan, 525 steps with a snapshot every 10, reads what
        # 520 of its steps read, bit for bit: its last snapshot, 5 steps
        # after the one before, is dropped. dz is a dyadic number near the
        # criterion's, so that 525 dz and 520 dz give it back exactly
        grid, medium, _, scales = defocusing_setup(nx=256, dx=5e-6, xi_cells=1.5, tau=35.0)
        xi = scales["xi"]
        probes = [ProbeSpec(waist=15 * xi, k_perp=k_xi / xi, power_ratio=1e-5)
                  for k_xi in (0.12, 0.15, 0.2, 0.25, 0.3, 0.5, 0.7, 1.0)]
        dz = round(medium.length / 525 * 2**30) / 2**30
        full, cut = (probe_stack(medium.with_length(n * dz), 1.0, probes,
                                 StepPlan(n_steps=n, snapshot_every=10), grid)
                     for n in (525, 520))
        assert full.dz == cut.dz == dz
        read = [[m.v_g for m in measure_group_velocity(run, grid)] for run in (full, cut)]
        assert read[0] == read[1]


class TestProbeLine:
    def test_is_the_y_mean_of_the_plane_probe(self):
        grid, _, background, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=3 * (2 * np.pi / grid.extent_x),
                          power_ratio=1e-4)
        line = probe_line(grid, 1.0, probe)  # defocusing_setup's density
        assert line.grid == dataclasses.replace(grid, ny=1)
        np.testing.assert_allclose(line.values[0],
                                   _probe_plane(background, probe).values.mean(axis=0),
                                   rtol=1e-15, atol=0.0)

    def test_peak_set_by_the_power_ratio(self):
        # the probe's peak intensity is power_ratio times the background's;
        # the line carries it times the y-mean of exp(-y^2 / w^2)
        g = make_grid(256, 256, 5e-6)
        probe = ProbeSpec(waist=1e-4, k_perp=0.0, power_ratio=1e-3)
        delta = probe_line(g, 9.0, probe).values[0] - 3.0
        y_mean = np.mean(np.exp(-(g.y_coords() / 1e-4) ** 2))
        assert y_mean == pytest.approx(np.sqrt(np.pi) * 1e-4 / g.extent_y, rel=1e-12)
        assert np.max(np.abs(delta)) == pytest.approx(np.sqrt(1e-3) * 3.0 * y_mean, rel=1e-14)


class TestMeasurement:
    def test_free_particle_slope(self):
        # chi3 = 0: v_g = k / (k0 n0) and Omega = k^2 / (2 k0 n0), which the
        # parabola through the exact Omega of three modes reads exactly
        # (2e-9 measured)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        free = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0,
                            length=medium.length)
        k = 10 * (2 * np.pi / grid.extent_x)
        plan = StepPlan(n_steps=120, snapshot_every=10)
        probe = ProbeSpec(waist=12e-5, k_perp=k, power_ratio=1e-4)
        (m,) = _measure(free, [probe], plan, grid)
        assert m.v_g == pytest.approx(k / K0, rel=1e-6)
        assert m.omega == pytest.approx(k**2 / (2 * K0), rel=1e-6)

    def test_zero_k_reads_the_sound_speed(self):
        # a k_perp = 0 probe reads the slope at the origin of the parabola
        # through modes 0, 1 and 2 (0.9983 c_s measured)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=320, snapshot_every=8)
        probe = ProbeSpec(waist=8 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        (m,) = _measure(medium, [probe], plan, grid)
        assert m.v_g == pytest.approx(scales["c_s"], rel=2e-3)

    def test_zero_k_unresolved_pair_reads_the_sound_speed(self):
        # over 8 nonlinear lengths a 10 xi probe's two counter-propagating
        # packets never part; its modes read the sound speed all the same
        # (0.99853 c_s measured)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        (m,) = _measure(medium, [probe], plan, grid)
        assert m.v_g == pytest.approx(scales["c_s"], rel=1.5e-3)

    def test_a_negative_k_mirrors_the_positive_k(self):
        # a probe at -k reads the modes of +k: Omega(k) and, signed, -v_g(k)
        # (1.3425 and 1.7008 c_s measured at k xi = 1.0 and 1.5, where the
        # continuum branch gives 1.3416 and 1.7)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=sign * k_xi / scales["xi"],
                            power_ratio=1e-5) for k_xi in (1.0, 1.5) for sign in (1, -1)]
        measured = _measure(medium, probes, plan, grid)
        v = [m.v_g / scales["c_s"] for m in measured]
        theory = bogoliubov_group_velocity(np.array([1.0, 1.5]) / scales["xi"], K0, 1.0,
                                           scales["dn_nl"]) / scales["c_s"]
        assert v[0] == pytest.approx(theory[0], rel=1e-3)
        assert v[2] == pytest.approx(theory[1], rel=1e-3)
        assert v[1] == pytest.approx(-v[0], rel=1e-4)
        assert v[3] == pytest.approx(-v[2], rel=1e-4)
        assert measured[1].omega == pytest.approx(measured[0].omega, rel=1e-4)
        assert measured[3].omega == pytest.approx(measured[2].omega, rel=1e-4)

    def test_sonic_point(self):
        grid, medium, _, scales = defocusing_setup(nx=256, dx=5e-6,
                                                            xi_cells=1.5, tau=30.0)
        plan = StepPlan(n_steps=450, snapshot_every=10)
        k = 0.25 / scales["xi"]
        probe = ProbeSpec(waist=15 * scales["xi"], k_perp=k, power_ratio=1e-5)
        (m,) = _measure(medium, [probe], plan, grid)
        vg_true = bogoliubov_group_velocity(np.array([k]), K0, 1.0,
                                            scales["dn_nl"])[0]
        assert m.v_g == pytest.approx(vg_true, rel=1e-3)  # 1.6e-4 measured

    def test_holds_less_than_one_list_of_full_snapshots(self):
        # the probe run keeps 1-D profiles and the background is a closed
        # form, so a 40-snapshot measurement peaks below 40 full complex fields
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0, tau=8.0)
        free = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=medium.length)
        plan = StepPlan(n_steps=120, snapshot_every=3)
        k = 6 * (2 * np.pi / grid.extent_x)
        probe = ProbeSpec(waist=6e-5, k_perp=k, power_ratio=1e-4)
        one_list = (plan.n_steps // plan.snapshot_every) * 16 * grid.nx * grid.ny
        tracemalloc.start()
        try:
            (m,) = _measure(free, [probe], plan, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert m.v_g == pytest.approx(k / K0, rel=1e-3)
        assert peak < one_list

    @pytest.mark.parametrize("alpha, i_sat", [(0.0, None), (40.0, None), (0.0, 1e-3)],
                             ids=["lossless", "lossy", "saturable"])
    def test_background_line_density_has_a_closed_form(self, alpha, i_sat):
        # the closed form measure_group_velocity subtracts, |E0|^2
        # exp(-alpha z) at every site: a propagated plane wave keeps
        # sum_y |E|^2 = rho_line(0) exp(-alpha z) at every snapshot
        # (i_sat = 1e-3 W/m^2 is below the fluid's 1.3e-3 W/m^2)
        grid, medium, background, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0,
                                                       tau=8.0)
        medium = dataclasses.replace(medium, alpha=alpha, i_sat=i_sat)
        plan = StepPlan(n_steps=160, snapshot_every=10)
        record = propagate(background, medium, plan,
                           keep=lambda z, field: field.density().sum(axis=0))
        line0 = background.density().sum(axis=0)
        assert len(record.snapshots) == 16
        for z, rho in record.snapshots:
            expected = line0 * np.exp(-alpha * z)
            assert np.max(np.abs(rho / expected - 1.0)) < 1e-12
        if alpha:
            assert record.snapshots[-1][1][0] < 0.8 * line0[0]

    @pytest.fixture
    def propagated(self, monkeypatch):
        """(member count, plan) of each propagate call a measurement makes."""
        from pfl import dispersion
        calls = []

        def counted(fields, medium, plan, **kwargs):
            calls.append((len(fields), plan))
            return propagate(fields, medium, plan, **kwargs)

        monkeypatch.setattr(dispersion, "propagate", counted)
        return calls

    def test_one_propagation_per_probe(self, propagated):
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        _measure(medium, [probe], plan, grid)
        assert propagated == [(1, plan)]

    def test_one_propagation_per_sweep(self, propagated):
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k_xi / scales["xi"],
                            power_ratio=1e-4) for k_xi in (0.5, 1.0, 1.5)]
        measured = _measure(medium, probes, plan, grid)
        assert propagated == [(3, plan)]
        assert [m.k_perp for m in measured] == [p.k_perp for p in probes]

    def test_a_sweep_equals_lone_calls(self):
        # each member of the stack reads what a one-probe call reads, bit for bit,
        # with k_perp = 0 (modes 0, 1 and 2) between probes on a carrier
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=320, snapshot_every=8)
        probes = [ProbeSpec(waist=8 * scales["xi"], k_perp=k_xi / scales["xi"],
                            power_ratio=1e-4) for k_xi in (1.0, 0.0, 0.5)]
        swept = _measure(medium, probes, plan, grid)
        assert len(swept) == len(probes)
        for probe, m in zip(probes, swept):
            (lone,) = _measure(medium, [probe], plan, grid)
            assert m.k_perp == lone.k_perp
            assert m.v_g == lone.v_g
            assert m.omega == lone.omega

    def test_a_sweep_of_one_returns_a_list(self):
        grid, medium, _, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0,
                                                            tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        swept = _measure(medium, (probe,), plan, grid)
        assert isinstance(swept, list) and len(swept) == 1
        assert swept[0].v_g == _measure(medium, [probe], plan, grid)[0].v_g

    def test_lossy_background_matches_a_propagated_reference(self):
        # reference: the 2D probe run, with the background propagated and
        # its density subtracted; the closed form exp(-alpha z) on the probe
        # line reads the same v_g up to the 2D probe's own nonlinearity
        # (see the gap test), 9.5e-6 relative at power_ratio 1e-4
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        medium = dataclasses.replace(medium, alpha=0.2 / medium.length)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        reference = _plane_reference(background, probe, medium, plan)
        (m,) = _measure(medium, [probe], plan, grid)
        assert m.v_g == pytest.approx(reference, rel=1e-4)

    def test_background_record_keeps_line_densities(self):
        # 40 snapshots of a 128^2 background: one (nx,) line density each,
        # less in all than one float64 density of the plane
        grid, medium, background, _ = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0,
                                                       tau=8.0)
        plan = StepPlan(n_steps=120, snapshot_every=3)
        record = propagate(background, medium, plan,
                           keep=lambda z, field: field.density().sum(axis=0))
        assert len(record.snapshots) == 40
        assert all(rho.shape == (grid.nx,) for _, rho in record.snapshots)
        assert sum(rho.nbytes for _, rho in record.snapshots) < 8 * grid.nx * grid.ny

    @pytest.mark.parametrize("k_xi", [0.0, 1.0])
    def test_line_densities_match_plane_densities(self, k_xi):
        # reference: the 2D probe run, whose background keeps whole
        # densities and whose probe sums their difference over y; the probe
        # line reads the same v_g up to the 2D probe's own nonlinearity:
        # 2.7e-6 relative at k xi = 1 and power_ratio 1e-4. At k xi = 0 the
        # plane probe's |delta E|^2 term sits on the modes 0, 1 and 2 it
        # reads, and the gap is 2.0e-3 c_s
        tau, plan, waist_xi = ((16.0, StepPlan(n_steps=320, snapshot_every=8), 8) if k_xi == 0.0
                               else (8.0, StepPlan(n_steps=160, snapshot_every=16), 10))
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=tau)
        probe = ProbeSpec(waist=waist_xi * scales["xi"], k_perp=k_xi / scales["xi"],
                          power_ratio=1e-4)
        reference = _plane_reference(background, probe, medium, plan)
        (m,) = _measure(medium, [probe], plan, grid)
        if k_xi == 0.0:
            assert abs(m.v_g - reference) < 2.5e-3 * scales["c_s"]
        else:
            assert m.v_g == pytest.approx(reference, rel=1e-4)

    def test_line_plane_gap_is_the_plane_probes_nonlinearity(self):
        # the probe line is exact in linear response, so its gap to the 2D
        # probe run shrinks with the probe amplitude: each decade of
        # power_ratio at least halves it (2.5e-4, 7.6e-5, 2.4e-5 and 7.5e-6
        # measured from 1e-4 to 1e-7: a factor sqrt(10) per decade)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=240, snapshot_every=10)
        probes = [ProbeSpec(waist=8 * scales["xi"], k_perp=0.3 / scales["xi"],
                            power_ratio=ratio) for ratio in (1e-4, 1e-5, 1e-6, 1e-7)]
        measured = _measure(medium, probes, plan, grid)
        gaps = [abs(m.v_g / _plane_reference(background, probe, medium, plan) - 1.0)
                for probe, m in zip(probes, measured)]
        assert all(small < 0.5 * large for large, small in zip(gaps, gaps[1:]))

    def test_chi3_and_density_enter_through_product(self):
        # doubling chi3 at fixed density and doubling density at fixed chi3
        # give the same sound speed: both enter through |g| rho (3e-12 apart
        # measured)
        grid, medium, _, scales = defocusing_setup(nx=192, dx=5e-6,
                                                            xi_cells=1.8, rho=1.0,
                                                            tau=25.0)
        medium_2chi = dataclasses.replace(medium, chi3=2.0 * medium.chi3)
        xi_half = scales["xi"] / np.sqrt(2.0)  # both cases halve z_nl identically
        plan = StepPlan(n_steps=500, snapshot_every=10)
        probe = ProbeSpec(waist=14 * xi_half, k_perp=0.22 / xi_half,
                          power_ratio=1e-5)
        (m_chi,) = _measure(medium_2chi, [probe], plan, grid)
        (m_rho,) = _measure(medium, [probe], plan, grid, density=2.0)
        assert m_chi.v_g == pytest.approx(m_rho.v_g, rel=1e-6)
