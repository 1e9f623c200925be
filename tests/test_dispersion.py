import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from pfl.dispersion import (ProbeSpec, _fit_bogoliubov, _fit_drift, _line_fit,
                            _parabolic_peak, _probe_displacement, _threshold_islands,
                            _trailing_run, _wrap_coord,
                            bogoliubov_group_velocity, bogoliubov_omega,
                            bogoliubov_sound_speed, dispersion_from_group_velocity,
                            measure_group_velocity, packet_displacement,
                            demodulated_envelope, probe_line, snapshot_density)
from pfl.grid import Field2D, make_grid
from pfl.medium import MediumParams
from pfl.solver import StepPlan, propagate

from conftest import WAVELENGTH, defocusing_setup

# a UserWarning fails these tests, also one that pyproject.toml filters out
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

K0 = 2 * np.pi / WAVELENGTH


def _probe_plane(background, probe):
    """The 2D field whose y-mean probe_line propagates: the background plus
    sqrt(power_ratio) |E0| exp(-r^2 / w^2) exp(i k_perp x)."""
    xx, yy = background.grid.meshgrid()
    e0 = background.values[0, 0]
    bump = np.sqrt(probe.power_ratio) * abs(e0) * np.exp(-(xx**2 + yy**2) / probe.waist**2)
    return background.with_values(e0 + bump * np.exp(1j * probe.k_perp * xx))


def _plane_reference(background, probe, medium, plan):
    """Drift fitted from the 2D probe run: the background is propagated
    with whole densities kept, and the probe sums their difference over y."""
    planes = iter(propagate(background, medium, plan,
                            keep=lambda z, f: f.density()).snapshots)

    def plane_change(z, field):
        delta = field.density() - next(planes)[1]
        return _probe_displacement(delta.sum(axis=0), probe, background.grid)

    return _fit_drift(propagate(_probe_plane(background, probe), medium, plan,
                                keep=plane_change), probe, background.grid)


class TestBogoliubovForms:
    def test_omega_asymptotics(self):
        dn = 1e-4
        k_low = np.array([1.0])
        c_s = bogoliubov_sound_speed(1.0, dn)
        assert bogoliubov_omega(k_low, K0, 1.0, dn)[0] == pytest.approx(
            c_s * k_low[0], rel=1e-6)
        k_high = np.array([1e7])
        assert bogoliubov_omega(k_high, K0, 1.0, dn)[0] == pytest.approx(
            k_high[0]**2 / (2 * K0), rel=1e-2)

    def test_group_velocity_limits(self):
        dn = 1e-4
        c_s = bogoliubov_sound_speed(1.0, dn)
        assert bogoliubov_group_velocity(np.array([0.0]), K0, 1.0, dn)[0] == \
            pytest.approx(c_s)
        k = np.array([1e3])
        assert bogoliubov_group_velocity(k, K0, 1.0, dn)[0] == \
            pytest.approx(c_s, rel=1e-3)

    def test_sound_speed_vanishes_without_interactions(self):
        assert bogoliubov_sound_speed(1.0, 0.0) == 0.0
        assert bogoliubov_sound_speed(1.0, 1e-12) < 1e-5


class TestDispersionIntegration:
    def test_constant_vg_gives_exact_sonic_line(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        c = 3.3e-3
        k = np.linspace(1e4, 1e5, 8)
        curve = dispersion_from_group_velocity([(kk, c) for kk in k], med)
        assert np.allclose(curve.omega, c * k, rtol=1e-12)

    def test_linear_vg_gives_exact_parabola(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        k = np.linspace(1e4, 1e5, 8)
        samples = [(kk, kk / (K0 * 1.0)) for kk in k]
        curve = dispersion_from_group_velocity(samples, med)
        assert np.allclose(curve.omega, k**2 / (2 * K0), rtol=1e-12)

    def test_closed_loop_bogoliubov_fit(self):
        # synthesize v_g from the model, integrate, fit: c_s within 1%
        dn_true = 7.3e-5
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        xi = 1.0 / np.sqrt(K0**2 * dn_true)  # 1/(k0 sqrt(n0 dn))
        k = np.linspace(0.05, 3.0, 20) / xi
        v = bogoliubov_group_velocity(k, K0, 1.0, dn_true)
        curve = dispersion_from_group_velocity(list(zip(k, v)), med)
        assert curve.c_s == pytest.approx(bogoliubov_sound_speed(1.0, dn_true),
                                          rel=0.01)
        assert curve.xi_fit == pytest.approx(xi, rel=0.02)

    def test_sonic_line_fit_sits_on_the_boundary(self):
        # the sonic line c k falls below E_k at high k, where any dn > 0
        # widens the misfit: the constrained minimum is dn = 0, with a
        # finite stderr
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        k = np.linspace(1e4, 1e5, 8)
        curve = dispersion_from_group_velocity([(kk, 3.3e-3) for kk in k], med)
        assert curve.dn_fit == 0.0
        assert 0.0 < curve.dn_stderr < np.inf

    def test_non_finite_samples_do_not_converge(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        samples = [(k, np.nan if k == 3e4 else 1e-3) for k in np.linspace(1e4, 5e4, 5)]
        with pytest.raises(RuntimeError, match="Bogoliubov fit did not converge"):
            dispersion_from_group_velocity(samples, med)

    def test_rejects_sparse_or_unsorted(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        with pytest.raises(ValueError, match="at least 5"):
            dispersion_from_group_velocity([(1.0, 1.0)] * 3, med)
        bad = [(1.0, 1.0), (2.0, 1.0), (2.0, 1.0), (3.0, 1.0), (4.0, 1.0)]
        with pytest.raises(ValueError, match="strictly increasing"):
            dispersion_from_group_velocity(bad, med)


def _noisy_bogoliubov_curve(seed, dn_true=7.3e-5, n=8, with_k0=False):
    """A dispersion curve integrated from Bogoliubov v_g with 3% noise."""
    med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
    rng = np.random.default_rng(seed)
    xi = 1.0 / np.sqrt(K0**2 * dn_true)
    k = np.sort(rng.uniform(0.05, 3.0, n)) / xi
    if with_k0:
        k[0] = 0.0
    v = bogoliubov_group_velocity(k, K0, 1.0, dn_true) * (1 + 0.03 * rng.standard_normal(n))
    return dispersion_from_group_velocity(list(zip(k, v)), med), v


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
        curve, v = _noisy_bogoliubov_curve(seed, dn_true, with_k0=with_k0)
        assert curve.k_perp[0] == 0.0 if with_k0 else curve.k_perp[0] > 0.0
        # the call the numpy fit replaces
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            popt, pcov = optimize.curve_fit(
                lambda kk, dn: bogoliubov_omega(kk, K0, 1.0, abs(dn)), curve.k_perp,
                curve.omega, p0=[max(np.max(v) ** 2, 1e-18)], maxfev=10000)
        assert 0.5 < curve.dn_fit / dn_true < 2.0  # an interior minimum
        assert curve.dn_fit == pytest.approx(abs(popt[0]), rel=1e-6)
        assert curve.dn_stderr == pytest.approx(np.sqrt(pcov[0, 0]), rel=1e-4)

    def test_bogoliubov_fit_zeroes_the_gradient(self):
        curve, _ = _noisy_bogoliubov_curve(5)
        dn, _ = _fit_bogoliubov(curve.k_perp, curve.omega, K0, 1.0, 1e-4)
        h = 1e-6 * dn
        ssr = [np.sum((bogoliubov_omega(curve.k_perp, K0, 1.0, d) - curve.omega) ** 2)
               for d in (dn - h, dn, dn + h)]
        assert ssr[1] <= min(ssr[0], ssr[2])


def _trailing_run_loop(flags):
    out = np.zeros(len(flags), dtype=bool)
    for i in range(len(flags) - 1, -1, -1):
        if not flags[i]:
            break
        out[i] = True
    return out


def test_trailing_run_matches_loop():
    rng = np.random.default_rng(8)
    cases = [np.ones(7, bool), np.zeros(7, bool), np.array([True] * 6 + [False]),
             np.array([], bool), np.array([True]), np.array([False])]
    cases += [rng.random(n) < p for n in (1, 5, 53) for p in (0.3, 0.8, 0.95)
              for _ in range(10)]
    for flags in cases:
        assert np.array_equal(_trailing_run(flags), _trailing_run_loop(flags))


def _threshold_islands_loop(envelope, x, extent):
    """Reference island scan, one sample at a time: rotate into a gap, then
    walk each run of above-threshold samples."""
    dx = float(x[1] - x[0])
    mask = envelope > 0.35 * float(np.max(envelope))
    if mask.all():
        idx = int(np.argmax(envelope))
        return [(_parabolic_peak(envelope, x, idx, dx, extent), float(np.sum(envelope)))]
    start = int(np.argmin(mask))
    mask_r, env_r, n = np.roll(mask, -start), np.roll(envelope, -start), len(mask)
    islands, i = [], 0
    while i < n:
        if not mask_r[i]:
            i += 1
            continue
        j = i
        while j < n and mask_r[j]:
            j += 1
        idx = (start + i + int(np.argmax(env_r[i:j]))) % n
        islands.append((_parabolic_peak(envelope, x, idx, dx, extent),
                        float(np.sum(env_r[i:j]))))
        i = j
    islands.sort(key=lambda t: -t[1])
    return islands


def test_threshold_islands_match_loop():
    n = 128
    x = (np.arange(n) - n // 2) * 1.0
    rng = np.random.default_rng(20)
    seam = np.exp(-(_wrap_coord(x - 63.0, n) / 4.0) ** 2)  # crosses x = +-n/2
    cases = [seam, 1.0 + 0.01 * rng.random(n), np.zeros(n)]
    cases += [rng.random(n) ** p for p in (1, 4, 12) for _ in range(20)]
    cases += [np.convolve(np.tile(rng.random(n), 3), np.ones(7), "same")[n:2 * n]
              for _ in range(20)]
    for env in cases:
        assert _threshold_islands(env, x, n) == _threshold_islands_loop(env, x, n)
    assert len(_threshold_islands(seam, x, n)) == 1
    assert len(_threshold_islands(cases[1], x, n)) == 1
    assert _threshold_islands(np.zeros(n), x, n) == []


class TestEnvelopeTools:
    def test_demodulated_envelope_recovers_gaussian(self):
        x = (np.arange(256) - 128) * 1.0
        k = 0.5
        env_true = np.exp(-((x - 20.0) ** 2) / (2 * 15.0**2))
        profile = env_true * np.cos(k * x + 0.3)
        env = demodulated_envelope(profile, x, k, 15.0)
        peak = x[np.argmax(env)]
        assert abs(peak - 20.0) <= 2.0

    def test_packet_displacement_pair(self):
        x = (np.arange(256) - 128) * 1.0
        bump = lambda c: np.exp(-((x - c) ** 2) / (2 * 8.0**2))
        env = bump(+30.0) + 0.8 * bump(-30.0)
        d, paired = packet_displacement(env, x, 256.0)
        assert paired
        assert d == pytest.approx(30.0, abs=1.0)

    def test_packet_displacement_single(self):
        x = (np.arange(256) - 128) * 1.0
        env = np.exp(-((x - 12.0) ** 2) / (2 * 8.0**2))
        d, paired = packet_displacement(env, x, 256.0)
        assert not paired
        assert d == pytest.approx(12.0, abs=0.5)


class TestProbeLine:
    def test_is_the_y_mean_of_the_plane_probe(self):
        grid, _, background, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=3 * (2 * np.pi / grid.extent_x),
                          power_ratio=1e-4)
        line = probe_line(background, probe)
        assert line.grid == dataclasses.replace(grid, ny=1)
        np.testing.assert_allclose(line.values[0],
                                   _probe_plane(background, probe).values.mean(axis=0),
                                   rtol=1e-15, atol=0.0)

    def test_peak_set_by_the_power_ratio(self):
        # the probe's peak intensity is power_ratio times the background's;
        # the line carries it times the y-mean of exp(-y^2 / w^2)
        g = make_grid(256, 256, 5e-6)
        background = Field2D(grid=g, values=np.full((256, 256), 3.0 + 0j))
        probe = ProbeSpec(waist=1e-4, k_perp=0.0, power_ratio=1e-3)
        delta = probe_line(background, probe).values[0] - 3.0
        y_mean = np.mean(np.exp(-(g.y_coords() / 1e-4) ** 2))
        assert y_mean == pytest.approx(np.sqrt(np.pi) * 1e-4 / g.extent_y, rel=1e-12)
        assert np.max(np.abs(delta)) == pytest.approx(np.sqrt(1e-3) * 3.0 * y_mean, rel=1e-14)


class TestMeasurement:
    def test_free_particle_slope(self):
        # chi3 = 0: v_g = k / (k0 n0) exactly
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        free = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0,
                            length=medium.length)
        k = 10 * (2 * np.pi / grid.extent_x)
        plan = StepPlan(n_steps=120, snapshot_every=10)
        probe = ProbeSpec(waist=12e-5, k_perp=k, power_ratio=1e-4)
        m = measure_group_velocity(background, probe, free, plan)
        assert m.v_g == pytest.approx(k / K0, rel=0.02)

    def test_zero_k_reads_the_sound_speed(self):
        # the entrance quench splits a k_perp = 0 probe into two packets
        # leaving at +-c_s; their half separation is tracked like any other
        # low-k probe's (1.016 c_s measured)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=320, snapshot_every=8)
        probe = ProbeSpec(waist=8 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        m = measure_group_velocity(background, probe, medium, plan)
        assert m.v_g == pytest.approx(scales["c_s"], rel=0.03)

    def test_zero_k_unresolved_pair_fails_the_residual_check(self):
        # over 8 nonlinear lengths a 10 xi probe's two packets never part,
        # so the tracker has no ballistic displacement to fit
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        with pytest.raises(RuntimeError, match="fit residual"):
            measure_group_velocity(background, probe, medium, plan)

    def test_a_negative_k_mirrors_the_positive_k(self):
        # the demodulation cut sees |k|: a probe at -k drifts at -v_g(k)
        # (1.454 and 1.773 c_s measured at k xi = 1.0 and 1.5; before the
        # fix, -1.0 read -2.105 c_s)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=sign * k_xi / scales["xi"],
                            power_ratio=1e-5) for k_xi in (1.0, 1.5) for sign in (1, -1)]
        v = [m.v_g / scales["c_s"]
             for m in measure_group_velocity(background, probes, medium, plan)]
        assert v[0] == pytest.approx(1.454, abs=1e-3)
        assert v[1] == pytest.approx(-v[0], rel=1e-4)
        assert v[3] == pytest.approx(-v[2], rel=1e-4)

    def test_sonic_point(self):
        grid, medium, background, scales = defocusing_setup(nx=256, dx=5e-6,
                                                            xi_cells=1.5, tau=30.0)
        plan = StepPlan(n_steps=450, snapshot_every=10)
        k = 0.25 / scales["xi"]
        probe = ProbeSpec(waist=15 * scales["xi"], k_perp=k, power_ratio=1e-5)
        m = measure_group_velocity(background, probe, medium, plan)
        vg_true = bogoliubov_group_velocity(np.array([k]), K0, 1.0,
                                            scales["dn_nl"])[0]
        assert m.v_g == pytest.approx(vg_true, rel=0.05)

    def test_holds_less_than_one_list_of_full_snapshots(self):
        # the background keeps densities and the probe run 1-D profiles, so
        # a 40-snapshot measurement peaks below 40 full complex fields
        grid, medium, background, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0,
                                                       tau=8.0)
        free = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=medium.length)
        plan = StepPlan(n_steps=120, snapshot_every=3)
        k = 6 * (2 * np.pi / grid.extent_x)
        probe = ProbeSpec(waist=6e-5, k_perp=k, power_ratio=1e-4)
        one_list = (plan.n_steps // plan.snapshot_every) * 16 * grid.nx * grid.ny
        tracemalloc.start()
        try:
            m = measure_group_velocity(background, probe, free, plan)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(m.z_samples) == 40
        assert m.v_g == pytest.approx(k / K0, rel=0.02)
        assert peak < one_list

    @pytest.mark.parametrize("alpha, i_sat", [(0.0, None), (40.0, None), (0.0, 1e-3)],
                             ids=["lossless", "lossy", "saturable"])
    def test_background_line_density_has_a_closed_form(self, alpha, i_sat):
        # the closed form measure_group_velocity subtracts: a propagated
        # plane wave keeps sum_y |E|^2 = rho_line(0) exp(-alpha z) at every
        # snapshot (i_sat = 1e-3 W/m^2 is below the fluid's 1.3e-3 W/m^2)
        grid, medium, background, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0,
                                                       tau=8.0)
        medium = dataclasses.replace(medium, alpha=alpha, i_sat=i_sat)
        plan = StepPlan(n_steps=160, snapshot_every=10)
        record = propagate(background, medium, plan, keep=snapshot_density)
        line0 = snapshot_density(0.0, background)
        assert len(record.snapshots) == 16
        for z, rho in record.snapshots:
            expected = line0 * np.exp(-alpha * z)
            assert np.max(np.abs(rho / expected - 1.0)) < 1e-12
        if alpha:
            assert record.snapshots[-1][1][0] < 0.8 * line0[0]

    def test_one_propagation_per_probe(self, monkeypatch):
        from pfl import dispersion
        calls = []

        def counted(field, medium, plan, **kwargs):
            calls.append(plan)
            return propagate(field, medium, plan, **kwargs)

        monkeypatch.setattr(dispersion, "propagate", counted)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        measure_group_velocity(background, probe, medium, plan)
        assert calls == [plan]

    def test_one_propagation_per_sweep(self, monkeypatch):
        from pfl import dispersion
        calls = []

        def counted(fields, medium, plan, **kwargs):
            calls.append(len(fields))
            return propagate(fields, medium, plan, **kwargs)

        monkeypatch.setattr(dispersion, "propagate", counted)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k_xi / scales["xi"],
                            power_ratio=1e-4) for k_xi in (0.5, 1.0, 1.5)]
        measured = measure_group_velocity(background, probes, medium, plan)
        assert calls == [3]
        assert [m.k_perp for m in measured] == [p.k_perp for p in probes]

    def test_a_sweep_equals_lone_calls(self):
        # each member of the stack reads what a lone call reads, bit for bit,
        # with k_perp = 0 (no demodulation) between probes on a carrier; the
        # set-up is long enough for the k_perp = 0 pair to part
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=320, snapshot_every=8)
        probes = [ProbeSpec(waist=8 * scales["xi"], k_perp=k_xi / scales["xi"],
                            power_ratio=1e-4) for k_xi in (1.0, 0.0, 0.5)]
        swept = measure_group_velocity(background, probes, medium, plan)
        assert len(swept) == len(probes)
        for probe, m in zip(probes, swept):
            lone = measure_group_velocity(background, probe, medium, plan)
            assert m.k_perp == lone.k_perp
            assert m.v_g == lone.v_g
            assert m.stderr == lone.stderr
            assert np.array_equal(m.z_samples, lone.z_samples)
            assert np.array_equal(m.displacements, lone.displacements)
            assert m.fit_start_index == lone.fit_start_index

    def test_a_sweep_of_one_returns_a_list(self):
        grid, medium, background, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0,
                                                            tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        swept = measure_group_velocity(background, (probe,), medium, plan)
        assert isinstance(swept, list) and len(swept) == 1
        assert swept[0].v_g == measure_group_velocity(background, probe, medium, plan).v_g

    @pytest.mark.parametrize("bad, match", [
        ({"k_perp": 1e9}, "Nyquist"), ({"power_ratio": -1e-5}, "power_ratio"),
        ({"waist": 1e-6}, "waist")], ids=["k_perp", "power_ratio", "waist"])
    def test_a_bad_probe_fails_before_anything_propagates(self, monkeypatch, bad, match):
        from pfl import dispersion
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(dispersion, "propagate", counted)
        grid, medium, background, scales = defocusing_setup(nx=64)
        good = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=1e-4)
        probes = [good, dataclasses.replace(good, k_perp=2e4),
                  dataclasses.replace(good, **bad)]
        with pytest.raises(ValueError, match=match):
            measure_group_velocity(background, probes, medium,
                                   StepPlan(n_steps=40, snapshot_every=4))
        assert calls == []

    def test_lossy_background_matches_a_propagated_reference(self):
        # reference: the 2D probe run, with the background propagated and
        # its density subtracted; the closed form exp(-alpha z) on the probe
        # line reads the same v_g up to the 2D probe's own nonlinearity,
        # about 9e-4 relative at power_ratio 1e-4 (see the gap test), so
        # the bound is 2e-3
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        medium = dataclasses.replace(medium, alpha=0.2 / medium.length)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1.0 / scales["xi"],
                          power_ratio=1e-4)
        reference = _plane_reference(background, probe, medium, plan)
        m = measure_group_velocity(background, probe, medium, plan)
        assert m.v_g == pytest.approx(reference.v_g, rel=2e-3)

    def test_rejects_an_inhomogeneous_background(self):
        grid, medium, background, scales = defocusing_setup(nx=64)
        plan = StepPlan(n_steps=40, snapshot_every=10)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e5, power_ratio=1e-4)
        bumpy = background.values.copy()
        bumpy[3, 5] *= 1.01
        with pytest.raises(ValueError, match="not one uniform value"):
            measure_group_velocity(background.with_values(bumpy), probe, medium, plan)
        flat = np.zeros((grid.ny, grid.nx), dtype=np.complex128)
        with pytest.raises(ValueError, match="has a potential"):
            measure_group_velocity(background, probe,
                                   dataclasses.replace(medium, potential=flat), plan)

    def test_background_record_keeps_line_densities(self):
        # 40 snapshots of a 128^2 background: one (nx,) line density each,
        # less in all than one float64 density of the plane
        grid, medium, background, _ = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0,
                                                       tau=8.0)
        plan = StepPlan(n_steps=120, snapshot_every=3)
        record = propagate(background, medium, plan, keep=snapshot_density)
        assert len(record.snapshots) == 40
        assert all(rho.shape == (grid.nx,) for _, rho in record.snapshots)
        assert sum(rho.nbytes for _, rho in record.snapshots) < 8 * grid.nx * grid.ny

    @pytest.mark.parametrize("k_xi", [0.0, 1.0])
    def test_line_densities_match_plane_densities(self, k_xi):
        # reference: the 2D probe run, whose background keeps whole
        # densities and whose probe sums their difference over y; the probe
        # line reads the same v_g up to the 2D probe's own nonlinearity,
        # about 9e-4 relative at k xi = 1 and power_ratio 1e-4, so the
        # bound is 2e-3; the k xi = 0 pair needs the longer run to part, and
        # its gap reads 9.2e-4 c_s there
        tau, plan, waist_xi = ((16.0, StepPlan(n_steps=320, snapshot_every=8), 8) if k_xi == 0.0
                               else (8.0, StepPlan(n_steps=160, snapshot_every=16), 10))
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=tau)
        probe = ProbeSpec(waist=waist_xi * scales["xi"], k_perp=k_xi / scales["xi"],
                          power_ratio=1e-4)
        reference = _plane_reference(background, probe, medium, plan)
        m = measure_group_velocity(background, probe, medium, plan)
        if k_xi == 0.0:
            assert abs(m.v_g - reference.v_g) < 1e-3 * scales["c_s"]
        else:
            assert m.v_g == pytest.approx(reference.v_g, rel=2e-3)

    def test_line_plane_gap_is_the_plane_probes_nonlinearity(self):
        # the probe line is exact in linear response, so its gap to the 2D
        # probe run shrinks with the probe amplitude: each decade of
        # power_ratio at least halves it (1.0e-3, 3.3e-4, 1.1e-4 and 3.4e-5
        # measured from 1e-4 to 1e-7: a factor sqrt(10) per decade)
        grid, medium, background, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=240, snapshot_every=10)
        probes = [ProbeSpec(waist=8 * scales["xi"], k_perp=0.3 / scales["xi"],
                            power_ratio=ratio) for ratio in (1e-4, 1e-5, 1e-6, 1e-7)]
        measured = measure_group_velocity(background, probes, medium, plan)
        gaps = [abs(m.v_g / _plane_reference(background, probe, medium, plan).v_g - 1.0)
                for probe, m in zip(probes, measured)]
        assert all(small < 0.5 * large for large, small in zip(gaps, gaps[1:]))

    def test_rejects_a_negative_power_ratio(self):
        grid, medium, background, scales = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=-1e-5)
        with pytest.raises(ValueError, match="power_ratio must be non-negative"):
            measure_group_velocity(background, probe, medium,
                                   StepPlan(n_steps=10, snapshot_every=2))

    @pytest.mark.parametrize("cells", [3.9, 32.5])
    def test_rejects_an_unresolved_or_wrapping_waist(self, cells):
        # 4 cells at least, half the 64-cell grid at most
        grid, medium, background, _ = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=cells * grid.dx, k_perp=1e4, power_ratio=1e-4)
        with pytest.raises(ValueError, match="waist"):
            measure_group_velocity(background, probe, medium,
                                   StepPlan(n_steps=10, snapshot_every=2))

    def test_requires_snapshots(self):
        grid, medium, background, scales = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=1e-4)
        with pytest.raises(ValueError, match="snapshot_every"):
            measure_group_velocity(background, probe, medium, StepPlan(n_steps=10))

    def test_chi3_and_density_enter_through_product(self):
        # doubling chi3 at fixed density and doubling density at fixed chi3
        # give the same sound speed: both enter through |g| rho
        grid, medium, background, scales = defocusing_setup(nx=192, dx=5e-6,
                                                            xi_cells=1.8, rho=1.0,
                                                            tau=25.0)
        medium_2chi = dataclasses.replace(medium, chi3=2.0 * medium.chi3)
        background_2rho = background.with_values(np.sqrt(2.0) * background.values)
        xi_half = scales["xi"] / np.sqrt(2.0)  # both cases halve z_nl identically
        plan = StepPlan(n_steps=500, snapshot_every=10)
        probe = ProbeSpec(waist=14 * xi_half, k_perp=0.22 / xi_half,
                          power_ratio=1e-5)
        m_chi = measure_group_velocity(background, probe, medium_2chi, plan)
        m_rho = measure_group_velocity(background_2rho, probe, medium, plan)
        assert m_chi.v_g == pytest.approx(m_rho.v_g, rel=0.03)
