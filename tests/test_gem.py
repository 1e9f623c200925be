from pathlib import Path

import numpy as np
import pytest

from pfl import gem, rules
from pfl.cli import main as cli_main
from pfl.gem import (GaussianPulse, GemConfig, _schedule, echo_peaks,
                     gem_efficiency_measured, gem_efficiency_theory, gem_evolve, recall_order)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

ETA = 20.0


def make_config(ratio=1.0, **overrides):
    g_n = ratio * ETA / (2 * np.pi)
    g = density = float(np.sqrt(g_n))
    base = dict(g=g, density=density, eta0=ETA, z_extent=2.0, nz=128,
                t_extent=8.0, nt=1200, eta_flips=(3.0,))
    base.update(overrides)
    return GemConfig(**base)


def eta_integral(config, t0, t1):
    """Scalar reference: exact integral of eta over [t0, t1], one piece per
    stretch between sign flips, summed in time order."""
    def eta_at(t):
        return config.eta0 * (-1.0) ** np.searchsorted(np.asarray(config.eta_flips), t,
                                                       side="right")
    edges = [t0] + [t for t in config.eta_flips if t0 < t < t1] + [t1]
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        total += eta_at(0.5 * (a + b)) * (b - a)
    return total


def coupling_at(config, t):
    """Scalar reference: the coupling gate at one time; no windows means
    always on."""
    if not config.coupling_windows:
        return 1.0
    for t_on, t_off in config.coupling_windows:
        if t_on <= t <= t_off:
            return 1.0
    return 0.0


class TestSchedule:
    # nt = 801 over t_extent = 8: the grid times are linspace nodes, and the
    # flips and window edges below are taken from the grid itself
    T = np.linspace(0.0, 8.0, 801)
    T_MID = 0.5 * (T[:-1] + T[1:])

    # windows None: the config's default, no windows
    @pytest.mark.parametrize("flips, windows", [
        ((), None),                                     # no flip
        ((3.0037,), None),                              # between nodes
        ((T[300], T_MID[450]), None),                   # on a grid and a half-step node
        ((0.0, 3.0, 8.0), None),                        # at 0 and at t_extent
        ((3.0, 5.5), ((0.0, T[320]), (T[570], 8.0))),   # window edges on grid nodes
        ((3.0, 5.5), ((T_MID[100], 3.2), (5.7, 9.0))),  # and on a half-step node
    ])
    def test_matches_scalar_reference_bit_for_bit(self, flips, windows):
        cfg = make_config(nz=64, nt=801, eta_flips=tuple(float(f) for f in flips),
                          **({} if windows is None else {"coupling_windows": windows}))
        t = gem_evolve(cfg, [], store_polarization=False).times  # the lattice a run steps
        assert t.tobytes() == self.T.tobytes()
        phase, t_mid, c_mid, c_node = _schedule(cfg, t)
        assert t_mid.tobytes() == self.T_MID.tobytes()
        halves = []
        for t0, tm, t1 in zip(t[:-1], t_mid, t[1:]):
            halves += [eta_integral(cfg, t0, tm), eta_integral(cfg, tm, t1)]
        assert phase.tobytes() == np.array(halves).tobytes()
        assert c_mid.tolist() == [coupling_at(cfg, tm) for tm in t_mid]
        assert c_node.tolist() == [coupling_at(cfg, tn) for tn in t]


class TestTheoryFormula:
    def test_zero_coupling(self):
        assert gem_efficiency_theory(0.0, 5.0, 2.0) == 0.0

    def test_strong_coupling_asymptote(self):
        assert gem_efficiency_theory(100.0, 100.0, 1.0) == pytest.approx(1.0)

    def test_reference_point(self):
        # 2 pi g N / eta = 1: sqrt(sigma) = 1 - 1/e
        g = n = np.sqrt(1.0 / (2 * np.pi))
        sigma = gem_efficiency_theory(g, n, 1.0)
        assert np.sqrt(sigma) == pytest.approx(1.0 - np.exp(-1.0), rel=1e-12)
        assert sigma == pytest.approx(0.39958, abs=5e-6)

    def test_sign_of_eta_irrelevant(self):
        assert gem_efficiency_theory(1.0, 1.0, 3.0) == \
            gem_efficiency_theory(1.0, 1.0, -3.0)

    def test_zero_eta_rejected(self):
        with pytest.raises(ValueError):
            gem_efficiency_theory(1.0, 1.0, 0.0)


class TestEvolution:
    def test_decoupled_transit(self):
        cfg = make_config(ratio=1.0, g=0.0, density=0.0)
        pulse = GaussianPulse(center=1.5, width=0.2)
        result = gem_evolve(cfg, [pulse])
        assert np.allclose(result.output_field, result.input_field, atol=1e-12)
        assert not np.any(result.polarization)

    def test_strong_absorption_depth_law(self):
        # intensity transmission during the write follows exp(-2 pi g N / eta)
        cfg = make_config(ratio=4.0)
        pulse = GaussianPulse(center=1.5, width=0.2)
        result = gem_evolve(cfg, [pulse], store_polarization=False)
        t = result.times
        write = (t > 0.7) & (t < 2.3)
        transmitted = np.trapezoid(np.abs(result.output_field[write]) ** 2, t[write])
        incoming = np.trapezoid(np.abs(result.input_field[write]) ** 2, t[write])
        assert transmitted / incoming == pytest.approx(np.exp(-4.0), rel=0.2)
        assert transmitted / incoming < 0.02  # pulse essentially fully absorbed

    def test_memory_starts_empty(self):
        cfg = make_config()
        result = gem_evolve(cfg, [GaussianPulse(1.5, 0.2)])
        assert not np.any(result.polarization[:, 0])

    def test_coupling_off_freezes_polarization_norm(self):
        cfg = make_config(coupling_windows=((0.0, 2.0),), t_extent=6.0, nt=900,
                          eta_flips=())
        pulse = GaussianPulse(center=1.0, width=0.2)
        result = gem_evolve(cfg, [pulse])
        t = result.times
        dz = cfg.dz
        norms = np.sum(np.abs(result.polarization) ** 2, axis=0) * dz
        after_off = norms[t >= 2.05]
        assert after_off[0] > 0
        assert np.max(np.abs(after_off / after_off[0] - 1.0)) < 1e-8

    def test_no_windows_is_the_default_and_always_on(self):
        # () is the default; a window over the whole run gates nothing off
        cfg = make_config(nz=64, nt=1200)
        train = [GaussianPulse(center=1.5, width=0.18)]
        default = gem_evolve(cfg, train).output_field.tobytes()
        for windows in ((), ((0.0, cfg.t_extent),)):
            run = gem_evolve(make_config(nz=64, nt=1200, coupling_windows=windows), train)
            assert run.output_field.tobytes() == default

    def test_cfl_guard(self):
        with pytest.raises(ValueError, match="under-resolves"):
            make_config(nt=64)

    def test_pulse_margin_validation(self):
        cfg = make_config()
        with pytest.raises(ValueError, match="4 sigma"):
            gem_evolve(cfg, [GaussianPulse(0.2, 0.2)])

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            make_config(eta_flips=(3.0, 3.0))
        with pytest.raises(ValueError, match="at least"):
            make_config(nz=16)


class TestEfficiency:
    def test_echo_at_two_tau(self):
        cfg = make_config(ratio=1.5)
        pulse = GaussianPulse(center=1.5, width=0.18)
        m = gem_efficiency_measured(cfg, pulse)
        assert abs(m.echo_time - 4.5) <= cfg.dt

    @pytest.mark.parametrize("ratio", [0.5, 1.0, 2.0])
    def test_matches_closed_form(self, ratio):
        cfg = make_config(ratio=ratio, nz=256, nt=1600)
        pulse = GaussianPulse(center=1.5, width=0.18)
        m = gem_efficiency_measured(cfg, pulse)
        theory = gem_efficiency_theory(cfg.g, cfg.density, ETA)
        assert m.sigma == pytest.approx(theory, rel=0.05)

    def test_phase_rotation_invariance(self):
        cfg = make_config(ratio=1.0)
        a = gem_efficiency_measured(cfg, GaussianPulse(1.5, 0.18, amplitude=1.0))
        b = gem_efficiency_measured(cfg, GaussianPulse(1.5, 0.18,
                                                       amplitude=np.exp(1j * 0.9)))
        assert a.sigma == pytest.approx(b.sigma, rel=1e-10)

    def test_second_order_self_convergence(self):
        # refine dt and dz together (nt - 1 and nz - 1 double, so lattices
        # nest): successive output-trace differences shrink 4x
        pulse = GaussianPulse(center=1.5, width=0.18)
        outputs = []
        for nz, nt in ((65, 501), (129, 1001), (257, 2001)):
            cfg = make_config(ratio=1.5, nz=nz, nt=nt)
            result = gem_evolve(cfg, [pulse], store_polarization=False)
            outputs.append(result.output_field)
        # compare every level on the coarse time samples
        e_coarse = np.linalg.norm(outputs[0] - outputs[1][::2])
        e_fine = np.linalg.norm(outputs[1][::2] - outputs[2][::4])
        ratio = e_coarse / e_fine
        assert 3.0 < ratio < 5.5

    def test_grid_refinement_converges_to_theory(self):
        ratio = 1.0
        pulse = GaussianPulse(center=1.5, width=0.18)
        theory = gem_efficiency_theory(*(np.sqrt(ratio * ETA / (2 * np.pi)),) * 2, ETA)
        errors = []
        for nz, nt in ((64, 600), (128, 1200), (256, 2400)):
            cfg = make_config(ratio=ratio, nz=nz, nt=nt)
            errors.append(abs(gem_efficiency_measured(cfg, pulse).sigma - theory))
        assert errors[-1] < errors[0]
        assert errors[-1] / theory < 0.01

    def test_overlapping_windows_rejected(self):
        cfg = make_config(eta_flips=(1.2,))
        with pytest.raises(ValueError, match="overlap"):
            gem_efficiency_measured(cfg, GaussianPulse(1.0, 0.2))

    def test_ratio_is_what_matters(self):
        # doubling both g*N and eta leaves sigma unchanged
        pulse = GaussianPulse(center=1.5, width=0.18)
        cfg1 = make_config(ratio=1.0)
        g2 = cfg1.g * np.sqrt(2.0)
        cfg2 = GemConfig(g=g2, density=g2, eta0=2 * ETA, z_extent=2.0, nz=128,
                         t_extent=8.0, nt=2400, eta_flips=(3.0,))
        m1 = gem_efficiency_measured(cfg1, pulse)
        m2 = gem_efficiency_measured(cfg2, pulse)
        assert m1.sigma == pytest.approx(m2.sigma, rel=0.02)


def recall(cfg, train):
    """The recall order of a run of train on cfg, read as the gem scenario reads it."""
    return recall_order(cfg, train, gem_evolve(cfg, train, store_polarization=False))


class TestOrdering:
    def _train(self):
        return [GaussianPulse(1.0, 0.15, label="A"), GaussianPulse(2.0, 0.15, label="B")]

    def test_filo_b_before_a(self):
        cfg = make_config(ratio=1.5, t_extent=7.0, nt=1400, eta_flips=(3.0,))
        result = recall(cfg, self._train())
        assert (result.mode, result.labels) == ("FILO", ["B", "A"])
        # rephasing arithmetic: echoes at 2 tau - t_p = 4 and 5
        assert result.peak_times[0] == pytest.approx(4.0, abs=0.1)
        assert result.peak_times[1] == pytest.approx(5.0, abs=0.1)

    def test_fifo_a_before_b(self):
        cfg = make_config(ratio=1.5, t_extent=9.0, nt=2000,
                          eta_flips=(3.0, 5.5),
                          coupling_windows=((0.0, 3.2), (5.7, 9.0)))
        result = recall(cfg, self._train())
        assert (result.mode, result.labels) == ("FIFO", ["A", "B"])
        assert result.peak_times[0] == pytest.approx(6.0, abs=0.1)
        assert result.peak_times[1] == pytest.approx(7.0, abs=0.1)

    def test_identical_pulses_ordered_by_timing(self):
        train = [GaussianPulse(1.0, 0.15, label="A", amplitude=1.0),
                 GaussianPulse(2.0, 0.15, label="B", amplitude=1.0)]
        cfg = make_config(ratio=1.5, t_extent=7.0, nt=1400, eta_flips=(3.0,))
        result = recall(cfg, train)
        assert result.labels == ["B", "A"]

    def test_unresolved_pulses_rejected(self):
        train = [GaussianPulse(1.6, 0.15, label="A"), GaussianPulse(2.0, 0.15, label="B")]
        cfg = make_config(ratio=1.5, t_extent=7.0, nt=1400)
        with pytest.raises(ValueError, match="resolved"):
            recall(cfg, train)

    def test_fifo_schedule_sanity_checked(self):
        # two flips without a coupling-off window set no order; a window must
        # cover both first-flip echoes (at 4 and 5)
        cfg = make_config(ratio=1.5, t_extent=9.0, nt=2000, eta_flips=(3.0, 5.5))
        assert recall(cfg, self._train()) is None
        cfg = make_config(ratio=1.5, t_extent=9.0, nt=2000, eta_flips=(3.0, 5.5),
                          coupling_windows=((0.0, 3.2), (4.5, 9.0)))
        with pytest.raises(ValueError, match="suppressed echo time 5"):
            recall(cfg, self._train())

    def test_echo_time_is_the_one_formula(self):
        # rules.ordering and recall_order both read it: FILO at 2 tau1 - t_p,
        # FIFO at t_p + 2 (tau2 - tau1)
        assert [rules.echo_time("FILO", (3.0,), t) for t in (1.0, 2.0)] == [5.0, 4.0]
        assert [rules.echo_time("FIFO", (3.0, 5.5), t) for t in (1.0, 2.0)] == [6.0, 7.0]

    @pytest.mark.parametrize("eta0", ["0.5"])
    def test_an_echo_away_from_its_echo_time_is_no_recall(self, eta0, tmp_path):
        # a gradient too weak to store the pulses: the output still peaks
        # twice after the last flip, 2.0 and 4.3 widths from the echo times
        # 6 and 7, in the order A, B that FIFO expects. No rule of `pfl
        # validate` bounds a nonzero eta0 below, so the run exits 3 without
        # an order (eta0 = 0 is refused: test_config_cli's fifo-filo-eta-zero)
        path = tmp_path / "weak.ini"
        path.write_text((CONFIGS / "fifo_filo.ini").read_text()
                        .replace("eta0 = 20.0", f"eta0 = {eta0}"))
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert cli_main(["gem", "--config", str(path), "--out", str(tmp_path / "run")]) == 3
        assert not (tmp_path / "run" / "ordering.txt").exists()

    def test_unknown_mode(self):
        # the schedule sets the mode; one flip with a coupling window has none
        cfg = make_config(eta_flips=(3.0,), coupling_windows=((0.0, 3.2),))
        assert recall(cfg, self._train()) is None


class TestEchoPeaks:
    """echo_peaks against scipy.signal.find_peaks with the same height and
    distance, on traces without two equal peak heights."""

    @pytest.fixture
    def checked(self, monkeypatch):
        """Patches gem.echo_peaks so that each call recall_order makes is
        checked against find_peaks; returns the list of peaks it found."""
        from scipy.signal import find_peaks
        calls = []

        def check(power, height, distance):
            peaks = echo_peaks(power, height, distance)
            np.testing.assert_array_equal(
                peaks, find_peaks(power, height=height, distance=distance)[0])
            calls.append(peaks)
            return peaks

        monkeypatch.setattr(gem, "echo_peaks", check)
        return calls

    @pytest.mark.parametrize("nz", [128, 256])  # TestOrdering's and criterion 09's
    def test_the_ordering_tests_traces(self, nz, checked):
        for flips, windows, t_extent, nt in (((3.0,), (), 7.0, 1400),
                                             ((3.0, 5.5), ((0.0, 3.2), (5.7, 9.0)), 9.0, 2000)):
            cfg = make_config(ratio=1.5, nz=nz, t_extent=t_extent, nt=nt, eta_flips=flips,
                              coupling_windows=windows)
            recall(cfg, TestOrdering()._train())
        assert [len(p) for p in checked] == [2, 2]

    @pytest.mark.parametrize("name, peaks", [("gem", [799, 999]),
                                             ("fifo_filo", [1327, 1549])])
    def test_the_memory_configs(self, name, peaks, shipped_runs):
        from scipy.signal import find_peaks
        calls = shipped_runs[name].echo_peaks
        for power, height, distance, found in calls:
            np.testing.assert_array_equal(
                found, find_peaks(power, height=height, distance=distance)[0])
        assert [found.tolist() for *_, found in calls] == [peaks]

    def test_random_traces(self):
        from scipy.signal import find_peaks
        rng = np.random.default_rng(7)
        for i in range(1500):
            trace = rng.random(rng.integers(1, 200))
            if i % 2:  # plateaus: each sample repeated 1 to 4 times
                trace = np.repeat(trace, rng.integers(1, 5, len(trace)))
            height = float(rng.uniform(0.0, 1.0))
            distance = int(rng.integers(1, 30))
            np.testing.assert_array_equal(
                echo_peaks(trace, height, distance),
                find_peaks(trace, height=height, distance=distance)[0])

    @pytest.mark.parametrize("trace, distance, peaks", [
        ([0, 1, 0, 1, 0], 3, [1]),                 # equal heights: the earlier is taken
        ([0, 1, 0, 1, 0, 1, 0], 3, [1, 5]),        # and drops only its own neighbours
        ([0, 1, 0, 2, 0, 1, 0], 3, [3]),           # a higher peak is taken first
        ([0, 2, 2, 0], 1, [1]),                    # a plateau's midpoint, rounded down
        ([0, 2, 2, 2, 2, 0], 1, [2]),
        ([2, 2, 0, 1, 1, 1, 0, 3, 3], 1, [4]),     # end samples are never peaks
        ([0, 1, 1, 2, 0], 1, [3]),                 # a step up is not a plateau peak
    ])
    def test_tie_and_plateau_rules(self, trace, distance, peaks):
        assert echo_peaks(np.array(trace, dtype=float), 0.5, distance).tolist() == peaks
