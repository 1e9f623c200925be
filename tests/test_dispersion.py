import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from pfl.dispersion import (_fit_bogoliubov, _fit_drift, _line_fit,
                            _threshold_islands, _trailing_run, _wrap_coord,
                            bogoliubov_group_velocity, bogoliubov_omega,
                            dispersion_from_group_velocity,
                            measure_group_velocity, packet_displacement,
                            demodulated_envelope, probe_line, snapshot_density,
                            track_packets)
from pfl.grid import fft, ifft, make_grid
from pfl.medium import MediumParams, shift_scales
from pfl.plans import ProbeSpec, StepPlan, probe_stack
from pfl.solver import propagate

from conftest import WAVELENGTH, defocusing_setup

# a UserWarning fails these tests, also one that pyproject.toml filters out
pytestmark = pytest.mark.filterwarnings("error::UserWarning")

K0 = 2 * np.pi / WAVELENGTH


def _measure(medium, probes, plan, grid, density=1.0):
    """measure_group_velocity of the probe stack plans.probe_stack builds
    over a uniform background of this density (defocusing_setup's 1.0)."""
    return measure_group_velocity(probe_stack(medium, density, probes, plan, grid), grid)


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
    record = propagate(_probe_plane(background, probe), medium, plan,
                       keep=lambda z, f: (f.density() - next(planes)[1]).sum(axis=0))
    z = np.array([z for z, _ in record.snapshots])
    changes = np.array([[change for _, change in record.snapshots]])
    (displacements,), (paired,) = track_packets(changes, [probe], background.grid)
    return _fit_drift(z, displacements, paired, probe, background.grid)


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
        assert curve.c_s == pytest.approx(np.sqrt(dn_true / 1.0), rel=0.01)
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


# The per-snapshot tracker that the batched one replaced, kept as its
# oracle: one demodulation and one island scan for each snapshot line.

def _demodulated_envelope_one(profile, x, k_carrier, waist):
    dx = x[1] - x[0]
    signal = profile * np.exp(-1j * k_carrier * x)
    k_axis = 2.0 * np.pi * np.fft.fftfreq(len(x), d=dx)
    k_cut = min(abs(k_carrier), 4.0 / waist) or 4.0 / waist
    window = np.exp(-((k_axis / k_cut) ** 2))
    return np.abs(ifft(fft(signal) * window))


def _parabolic_peak_one(envelope, x, idx, dx, extent):
    em, e0, ep = envelope[np.array([idx - 1, idx, idx + 1]) % len(envelope)]
    denom = em - 2.0 * e0 + ep
    shift = 0.0 if denom == 0.0 else 0.5 * (em - ep) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    return float(_wrap_coord(x[idx] + shift * dx, extent))


def _threshold_islands_loop(envelope, x, extent):
    """Reference island scan, one sample at a time: rotate into a gap, then
    walk each run of above-threshold samples."""
    dx = float(x[1] - x[0])
    mask = envelope > 0.35 * float(np.max(envelope))
    if mask.all():
        idx = int(np.argmax(envelope))
        return [(_parabolic_peak_one(envelope, x, idx, dx, extent), float(np.sum(envelope)))]
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
        islands.append((_parabolic_peak_one(envelope, x, idx, dx, extent),
                        float(np.sum(env_r[i:j]))))
        i = j
    islands.sort(key=lambda t: -t[1])
    return islands


def _packet_displacement_one(envelope, x, extent):
    islands = _threshold_islands_loop(envelope, x, extent)
    if not islands:
        return 0.0, False
    if len(islands) >= 2:
        (c1, m1), (c2, m2) = islands[0], islands[1]
        if m2 > 0.2 * m1 and c1 * c2 < 0.0:
            forward, backward = (c1, c2) if c1 > 0 else (c2, c1)
            return 0.5 * (forward - backward), True
    return islands[0][0], False


def _track_one(delta, probe, grid):
    """(displacement, paired) of one snapshot's line density change."""
    x = grid.x_coords()
    env = _demodulated_envelope_one(delta, x, probe.k_perp, probe.waist)
    return _packet_displacement_one(env, x, grid.extent_x)


def _island_cases(n, seed):
    """Envelopes of n samples: an island across the x = +-n/2 seam, a row
    above the threshold everywhere, an all-zero row, then random rows."""
    x = (np.arange(n) - n // 2) * 1.0
    rng = np.random.default_rng(seed)
    seam = np.exp(-(_wrap_coord(x - 63.0, n) / 4.0) ** 2)
    cases = [seam, 1.0 + 0.01 * rng.random(n), np.zeros(n)]
    cases += [rng.random(n) ** p for p in (1, 4, 12) for _ in range(20)]
    cases += [np.convolve(np.tile(rng.random(n), 3), np.ones(7), "same")[n:2 * n]
              for _ in range(20)]
    return x, np.array(cases)


def test_threshold_islands_match_loop():
    # one scan over the stack finds each row's islands, positions and masses
    # exactly as the walk over that row does, in the same order
    n = 128
    x, cases = _island_cases(n, 20)
    row, position, mass = _threshold_islands(cases, x, n)
    for r, env in enumerate(cases):
        assert list(zip(position[row == r].tolist(), mass[row == r].tolist())) == \
            _threshold_islands_loop(env, x, n)
    assert np.sum(row == 0) == 1  # the seam island is one island
    assert np.sum(row == 1) == 1
    assert np.sum(row == 2) == 0


def test_packet_displacement_of_a_stack_matches_the_oracle():
    # a synthetic row stack, reshaped to (K, S, nx): the seam island, the
    # row above the threshold everywhere and the all-zero row included
    n = 128
    x, cases = _island_cases(n, 9)
    pair = [np.exp(-((x - c) / 6.0) ** 2) * m for c, m in ((30.0, 1.0), (-25.0, 0.7))]
    cases = np.concatenate([cases, [pair[0] + pair[1], pair[0] + 0.1 * pair[1], pair[1]]])
    d, paired = packet_displacement(cases.reshape(2, -1, n), x, n)
    assert d.shape == paired.shape == (2, len(cases) // 2)
    expected = [_packet_displacement_one(env, x, n) for env in cases]
    assert np.array_equal(d.ravel(), [e for e, _ in expected])
    assert np.array_equal(paired.ravel(), [p for _, p in expected])
    assert paired.ravel()[-3] and not paired.ravel()[-2:].any()
    assert (d.ravel()[2], paired.ravel()[2]) == (0.0, False)  # all-zero row


def test_track_packets_of_a_sweep_matches_the_oracle(monkeypatch):
    # the (K, S, nx) line changes of a real sweep, tracked in one pass, read
    # what the per-snapshot tracker reads from each line, bit for bit
    from pfl import dispersion
    stacks = []

    def recorded(changes, probes, grid):
        stacks.append(changes)
        return track_packets(changes, probes, grid)

    monkeypatch.setattr(dispersion, "track_packets", recorded)
    grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                        xi_cells=2.0, tau=16.0)
    plan = StepPlan(n_steps=320, snapshot_every=8)
    probes = [ProbeSpec(waist=8 * scales["xi"], k_perp=k_xi / scales["xi"],
                        power_ratio=1e-4) for k_xi in (1.0, 0.0, -0.5)]
    measured = _measure(medium, probes, plan, grid)
    (changes,) = stacks
    assert changes.shape == (3, 40, 128)
    d, paired = track_packets(changes, probes, grid)
    for probe, m, lines, dk, pk in zip(probes, measured, changes, d, paired):
        expected = [_track_one(delta, probe, grid) for delta in lines]
        assert np.array_equal(dk, [e for e, _ in expected])
        assert np.array_equal(pk, [p for _, p in expected])
        assert np.array_equal(m.displacements, dk)
    assert paired.any() and not paired.all()


def test_a_sweep_runs_one_transform_pair(monkeypatch):
    # the envelopes of every probe and snapshot come from one forward and one
    # inverse transform of the (K, S, nx) stack
    from pfl import dispersion
    calls = {"fft": [], "ifft": []}

    def counted(name, transform):
        def call(values):
            calls[name].append(values.shape)
            return transform(values)
        return call

    monkeypatch.setattr(dispersion, "fft", counted("fft", fft))
    monkeypatch.setattr(dispersion, "ifft", counted("ifft", ifft))
    grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                        xi_cells=2.0, tau=8.0)
    plan = StepPlan(n_steps=160, snapshot_every=16)
    probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k_xi / scales["xi"],
                        power_ratio=1e-4) for k_xi in (0.5, 1.0, 1.5)]
    _measure(medium, probes, plan, grid)
    assert calls == {"fft": [(3, 10, 128)], "ifft": [(3, 10, 128)]}


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
        # chi3 = 0: v_g = k / (k0 n0) exactly
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        free = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0,
                            length=medium.length)
        k = 10 * (2 * np.pi / grid.extent_x)
        plan = StepPlan(n_steps=120, snapshot_every=10)
        probe = ProbeSpec(waist=12e-5, k_perp=k, power_ratio=1e-4)
        (m,) = _measure(free, [probe], plan, grid)
        assert m.v_g == pytest.approx(k / K0, rel=0.02)

    def test_zero_k_reads_the_sound_speed(self):
        # the entrance quench splits a k_perp = 0 probe into two packets
        # leaving at +-c_s; their half separation is tracked like any other
        # low-k probe's (1.016 c_s measured)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=16.0)
        plan = StepPlan(n_steps=320, snapshot_every=8)
        probe = ProbeSpec(waist=8 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        (m,) = _measure(medium, [probe], plan, grid)
        assert m.v_g == pytest.approx(scales["c_s"], rel=0.03)

    def test_zero_k_unresolved_pair_fails_the_residual_check(self):
        # over 8 nonlinear lengths a 10 xi probe's two packets never part,
        # so the tracker has no ballistic displacement to fit
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=0.0, power_ratio=1e-4)
        with pytest.raises(RuntimeError, match="fit residual"):
            _measure(medium, [probe], plan, grid)

    def test_a_negative_k_mirrors_the_positive_k(self):
        # the demodulation cut sees |k|: a probe at -k drifts at -v_g(k)
        # (1.454 and 1.773 c_s measured at k xi = 1.0 and 1.5; before the
        # fix, -1.0 read -2.105 c_s)
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6,
                                                            xi_cells=2.0, tau=8.0)
        plan = StepPlan(n_steps=160, snapshot_every=16)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=sign * k_xi / scales["xi"],
                            power_ratio=1e-5) for k_xi in (1.0, 1.5) for sign in (1, -1)]
        v = [m.v_g / scales["c_s"]
             for m in _measure(medium, probes, plan, grid)]
        assert v[0] == pytest.approx(1.454, abs=1e-3)
        assert v[1] == pytest.approx(-v[0], rel=1e-4)
        assert v[3] == pytest.approx(-v[2], rel=1e-4)

    def test_sonic_point(self):
        grid, medium, _, scales = defocusing_setup(nx=256, dx=5e-6,
                                                            xi_cells=1.5, tau=30.0)
        plan = StepPlan(n_steps=450, snapshot_every=10)
        k = 0.25 / scales["xi"]
        probe = ProbeSpec(waist=15 * scales["xi"], k_perp=k, power_ratio=1e-5)
        (m,) = _measure(medium, [probe], plan, grid)
        vg_true = bogoliubov_group_velocity(np.array([k]), K0, 1.0,
                                            scales["dn_nl"])[0]
        assert m.v_g == pytest.approx(vg_true, rel=0.05)

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
        # with k_perp = 0 (no demodulation) between probes on a carrier; the
        # set-up is long enough for the k_perp = 0 pair to part
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
            assert m.stderr == lone.stderr
            assert np.array_equal(m.z_samples, lone.z_samples)
            assert np.array_equal(m.displacements, lone.displacements)
            assert m.fit_start_index == lone.fit_start_index

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
        (m,) = _measure(medium, [probe], plan, grid)
        assert m.v_g == pytest.approx(reference.v_g, rel=2e-3)

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
        (m,) = _measure(medium, [probe], plan, grid)
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
        measured = _measure(medium, probes, plan, grid)
        gaps = [abs(m.v_g / _plane_reference(background, probe, medium, plan).v_g - 1.0)
                for probe, m in zip(probes, measured)]
        assert all(small < 0.5 * large for large, small in zip(gaps, gaps[1:]))

    def test_chi3_and_density_enter_through_product(self):
        # doubling chi3 at fixed density and doubling density at fixed chi3
        # give the same sound speed: both enter through |g| rho
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
        assert m_chi.v_g == pytest.approx(m_rho.v_g, rel=0.03)
