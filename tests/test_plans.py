import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfl import plans, rules
from pfl.cli import main as cli_main
from pfl.config import SCENARIOS, parse_config
from pfl.grid import make_grid
from pfl.medium import MediumParams, bogoliubov_omega, fluid_scales
from pfl.plans import ProbeSpec, StepPlan, probe_stack, sound_scaling_runs
from pfl.scenarios import build_grid, build_medium

from conftest import WAVELENGTH, defocusing_setup

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
STRUCTURE_FACTOR = (CONFIGS / "structure_factor.ini").read_text()


def test_member_runs_cover_the_ensemble(monkeypatch):
    monkeypatch.setattr(plans, "BLOCK_SITES", 24 * 64)
    # a member larger than BLOCK_SITES still makes a run of one
    assert plans.member_runs(3, 64, 64) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    monkeypatch.setattr(plans, "BLOCK_SITES", 2**15)
    assert plans.member_runs(10, 64, 64) == [slice(0, 8), slice(8, 10)]
    assert plans.member_runs(2, 256, 256) == [slice(0, 1), slice(1, 2)]
    assert plans.member_runs(5, 1, 256) == [slice(0, 5)]  # up to 128 lines a run


@pytest.mark.parametrize("band_fraction, modes", [(0.03125, 5), (0.0312, 1)])
def test_the_noise_band_holds_a_mode_besides_k_zero(band_fraction, modes, tmp_path):
    # on 64^2 at dx = 5 um the first mode 2 pi / (64 dx) is 1/32 of pi / dx:
    # the structure-factor handler's band keeps it, along each axis and
    # sign, at band_fraction 0.03125, and only k = 0 just below. With k = 0
    # alone the run propagated its whole ensemble and then exited 3
    grid = make_grid(64, 64, 5e-6)
    edge = band_fraction * min(grid.k_nyquist_x, grid.k_nyquist_y)
    assert np.count_nonzero(np.sqrt(grid.k_squared()) <= edge) == modes
    config, out = tmp_path / "sf.ini", tmp_path / "out"
    config.write_text(STRUCTURE_FACTOR.replace("band_fraction = 0.75",
                                               f"band_fraction = {band_fraction}")
                      .replace("realizations = 100", "realizations = 8"))
    assert cli_main(["validate", "--config", str(config)]) == (0 if modes > 1 else 2)
    assert cli_main(["structure-factor", "--config", str(config),
                     "--out", str(out)]) == (0 if modes > 1 else 2)


@pytest.mark.parametrize("name", ["structure_factor", "bogoliubov_dispersion"])
def test_a_zero_source_intensity_is_refused_where_noise_or_probes_ride_on_it(name):
    # validated, these runs stepped and then exited 3: the structure factor's
    # reference had no density fluctuations, and the Bogoliubov fit read
    # dn = nan. At chi3 = 0 the source still carries them, and the run plans
    cfg = parse_config((CONFIGS / f"{name}.ini").read_text())
    grid = build_grid(cfg)

    def planned(source, medium):
        run = cfg._replace(source={**cfg.source, **source}, medium={**cfg.medium, **medium})
        return plans.propagations(run, grid, build_medium(run, grid))

    with pytest.raises(ValueError, match="the source intensity is zero"):
        planned({"intensity": 0.0}, {})
    assert planned({}, {"chi3": 0.0})[0].density > 0


@pytest.mark.parametrize("source", [
    {"kind": "plane", "intensity": 0.0},
    {"kind": "speckle", "intensity": 0.0, "correlation_length": 2e-5},
    {"kind": "gaussian", "waist": 1e-4, "power": 0.0}], ids=["plane", "speckle", "gaussian"])
def test_a_stripe_on_a_zero_source_is_refused(source):
    # validated, these runs exited 3 when the stripe met the zero field; an
    # imprint on the same source, and a stripe on a nonzero one, still plan
    cfg = parse_config((CONFIGS / "vortex_pair.ini").read_text())
    grid = build_grid(cfg)
    stripe = {"kind": "stripe", "stripe_position": 0.0, "stripe_angle": 0.0,
              "stripe_contrast": 0.8}

    def planned(source, params):
        run = cfg._replace(source=source, params=params)
        return plans.propagations(run, grid, build_medium(run, grid))

    with pytest.raises(ValueError, match="^the source intensity is zero: the noise, the "
                       "probes or the stripe ride on the source amplitude"):
        planned(source, stripe)
    planned(source, cfg.params)
    planned({**source, "intensity" if "intensity" in source else "power": 1e-3}, stripe)


class TestProbeStack:
    """The rules of a probe stack, each applied once, by plans.probe_stack:
    a measurement steps the stack it returns."""

    def test_one_line_per_probe_in_probe_order(self):
        grid, medium, _, scales = defocusing_setup(nx=64)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k_perp, power_ratio=1e-4)
                  for k_perp in (2e4, 0.0, 1e4)]
        plan = StepPlan(n_steps=40, snapshot_every=4)
        assert probe_stack(medium, 1.0, probes, plan, grid) == plans.Propagation(
            slice(0, 3), (1, 64), plan, medium, 1.0, probes=tuple(probes))

    @pytest.mark.parametrize("bad, match", [
        ({"k_perp": 1e9}, "Nyquist"), ({"power_ratio": -1e-5}, "power_ratio"),
        ({"power_ratio": 0.0}, r"power_ratio must lie in \(0, 1\)"),
        ({"waist": 1e-6}, "waist")], ids=["k_perp", "power_ratio", "zero-power-ratio", "waist"])
    def test_a_bad_probe_fails_before_anything_propagates(self, monkeypatch, bad, match):
        # a bad probe anywhere in the stack refuses the whole stack, so no line
        # of it reaches the measurement
        from pfl import dispersion
        calls = []
        monkeypatch.setattr(dispersion, "propagate", lambda *args, **kwargs: calls.append(args))
        grid, medium, _, scales = defocusing_setup(nx=64)
        good = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=1e-4)
        probes = [good, good._replace(k_perp=2e4), good._replace(**bad)]
        with pytest.raises(ValueError, match=match):
            dispersion.measure_group_velocity(
                probe_stack(medium, 1.0, probes, StepPlan(n_steps=40, snapshot_every=4), grid),
                grid)
        assert calls == []

    def test_rejects_a_negative_power_ratio(self):
        grid, medium, _, scales = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=-1e-5)
        with pytest.raises(ValueError, match=r"power_ratio must lie in \(0, 1\), got -1e-05"):
            probe_stack(medium, 1.0, [probe], StepPlan(n_steps=10, snapshot_every=2), grid)

    def test_refuses_snapshots_the_arccos_aliases(self):
        # the highest mode read, j + 1 of the largest |k_perp|, turns by
        # Omega Delta on the continuum branch between snapshots Delta apart:
        # just below pi passes, pi and above is refused
        grid, medium, _, scales = defocusing_setup(nx=64, tau=40.0)
        probes = [ProbeSpec(waist=10 * scales["xi"], k_perp=k, power_ratio=1e-4)
                  for k in (1e4, 3e4)]
        top = rules.probe_modes(3e4, grid)[1] + 1
        k = top * 2.0 * math.pi / grid.extent_x
        omega = float(bogoliubov_omega(k, medium.k0, medium.n0, scales["dn_nl"]))
        every = math.floor(math.pi / (omega * medium.length / 400))
        probe_stack(medium, 1.0, probes, StepPlan(n_steps=400, snapshot_every=every), grid)
        with pytest.raises(ValueError, match=rf"^mode {top} .* turns 3\.\d\d rad \(>= pi\)"):
            probe_stack(medium, 1.0, probes, StepPlan(n_steps=400, snapshot_every=every + 1),
                        grid)

    def test_refuses_a_probe_whose_modes_pass_the_nyquist_mode(self):
        # the shipped dispersion set-up with a snapshot every step: at
        # |k_perp| = 623000 1/m (63.46 modes) the highest mode read, j + 1,
        # is the Nyquist mode nx/2 = 64 and the stack plans; at 625000
        # (63.66 modes) j + 1 = 65 is index 65 of the line's transform,
        # mode -63, and the stack is refused
        grid, medium, _, _ = defocusing_setup(nx=128, tau=16.0)
        plan = StepPlan(n_steps=240, snapshot_every=1)
        for sign in (1.0, -1.0):
            probe = ProbeSpec(waist=8e-5, k_perp=sign * 623000.0, power_ratio=1e-4)
            probe_stack(medium, 1.0, [probe], plan, grid)
            with pytest.raises(ValueError, match=r"^probe \|k_perp\| = 625000 1/m reads mode 65, "
                               r"past the grid's Nyquist mode nx/2 = 64: .* = 623410 1/m$"):
                probe_stack(medium, 1.0, [probe._replace(k_perp=sign * 625000.0)],
                            plan, grid)

    @pytest.mark.parametrize("cells", [3.9, 32.5])
    def test_rejects_an_unresolved_or_wrapping_waist(self, cells):
        # 4 cells at least, half the 64-cell grid at most
        grid, medium, _, _ = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=cells * grid.dx, k_perp=1e4, power_ratio=1e-4)
        with pytest.raises(ValueError, match="waist"):
            probe_stack(medium, 1.0, [probe], StepPlan(n_steps=10, snapshot_every=2), grid)

    def test_requires_snapshots(self):
        grid, medium, _, scales = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e4, power_ratio=1e-4)
        with pytest.raises(ValueError,
                           match=r"the plan makes 0 snapshots \(10 steps, one every 0\)"):
            probe_stack(medium, 1.0, [probe], StepPlan(n_steps=10), grid)

    def test_rejects_a_potential(self):
        grid, medium, _, scales = defocusing_setup(nx=64)
        probe = ProbeSpec(waist=10 * scales["xi"], k_perp=1e5, power_ratio=1e-4)
        flat = np.zeros((grid.ny, grid.nx), dtype=np.complex128)
        with pytest.raises(ValueError, match="the background must be homogeneous: the medium "
                                             "has a potential"):
            probe_stack(medium._replace(potential=flat), 1.0, [probe],
                        StepPlan(n_steps=40, snapshot_every=10), grid)


class TestSoundScalingRuns:
    # criterion 06's fluid: xi = 2.4 dx at density 1 on 256^2
    GRID = make_grid(256, 256, 5e-6)
    MEDIUM = MediumParams(wavelength=WAVELENGTH, n0=1.0,
                          chi3=-2.0 / ((2.4 * 5e-6) ** 2 * (2 * np.pi / WAVELENGTH) ** 2),
                          length=1.0)
    PROBE = {"tau": 25.0, "k_perp_xi": 0.2, "probe_waist_xi": 10.0, "power_ratio": 1e-5}

    def test_each_density_is_a_probe_stack_of_one(self):
        runs = sound_scaling_runs(self.MEDIUM, [10.0, 1.0, 4.0, 2.0], self.GRID, **self.PROBE)
        assert [run.density for run in runs] == [1.0, 2.0, 4.0, 10.0]
        for i, run in enumerate(runs):
            alone = probe_stack(run.medium, run.density, run.probes, run.plan, self.GRID)
            assert run == alone._replace(members=slice(i, i + 1), tau=25.0)
        assert runs[0].plan == StepPlan(n_steps=375, snapshot_every=7)

    # the sound-scaling key's own interval, so that widening it past the
    # ratio of 34.3 at which the first kick reaches pi breaks this test
    WITHIN = SCENARIOS["sound-scaling"]["sound-scaling"]["power_ratio"].within
    LO, HI = map(float, WITHIN[1:-1].split(","))

    @settings(max_examples=200, deadline=None)
    @given(power_ratio=st.floats(LO, HI, exclude_min=WITHIN[0] == "(",
                                 exclude_max=WITHIN[-1] == ")", allow_infinity=False),
           tau=st.floats(0.3, 1000.0), density=st.floats(1e-3, 1e3),
           isat=st.none() | st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    def test_the_first_kick_passes_at_every_power_ratio_the_key_takes(self, power_ratio, tau,
                                                                       density, isat):
        # |g| rho z_nl = 1, so the first kick is (1 + sqrt(p))^2 tau /
        # ceil(STEPS_PER_Z_NL tau) rad < 4/15 at p < 1; saturation only lowers it
        medium = self.MEDIUM._replace(i_sat=isat)
        z_nl, _, _ = fluid_scales(medium, density)
        rules.probe_kick(medium.with_length(tau * z_nl), density, power_ratio,
                         math.ceil(tau * plans.STEPS_PER_Z_NL))

    @pytest.mark.parametrize("densities, match", [
        ([1.0, 2.0, 10.0], "need at least 4 densities"),
        ([2.0, 0.0, 4.0, 10.0], "densities must be positive"),
        ([1.0, -2.0, 4.0, 10.0], "densities must be positive")])
    def test_refuses_too_few_or_non_positive_densities(self, densities, match):
        # the intensities key takes 4 positive values at least, so only a
        # library call reaches these
        with pytest.raises(ValueError, match=match):
            sound_scaling_runs(self.MEDIUM, densities, self.GRID, **self.PROBE)


@pytest.mark.parametrize("name, stacks, probes", [("bogoliubov_dispersion", 1, 5),
                                                  ("sound_scaling", 5, 5)])
def test_a_run_applies_each_probe_stack_rule_once(name, stacks, probes, shipped_runs):
    # rules.probe and rules.probe_kick run once per probe and
    # rules.tracked_snapshots once per stack, as the handler's plan lists
    # them, and no run builds a background plane (build_source, plane_wave)
    run = shipped_runs[name]
    assert (len(run.planned), sum(len(p.probes) for p in run.planned)) == (stacks, probes)
    assert sorted(run.calls) == (["probe"] * probes + ["probe_kick"] * probes
                                 + ["tracked_snapshots"] * stacks)


def test_validate_plans_the_probe_stacks_without_numpy():
    code = ("import sys, pfl; from pfl.cli import main; "
            "codes = [main(['validate', '--config', path]) for path in sys.argv[1:]]; "
            "print(codes, pfl.ProbeSpec.__module__, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(CONFIGS / "bogoliubov_dispersion.ini"),
                           str(CONFIGS / "sound_scaling.ini")], capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "[0, 0] pfl.plans False", proc.stderr


@pytest.mark.parametrize("name, count", [("gem", 1), ("fifo_filo", 1),
                                         ("gem_efficiency_sweep", 5)])
def test_a_memory_run_integrates_what_validate_planned(name, count, shipped_runs):
    # the (config, pulses) each gem_evolve call of the run gets are the
    # memories plans.memories lists for the config, in order
    memories = plans.memories(parse_config((CONFIGS / f"{name}.ini").read_text()))
    assert len(memories) == count
    assert shipped_runs[name].memories == [(m.config, m.pulses) for m in memories]


def test_memories_are_planned_without_numpy():
    # pfl.GemConfig and pfl.GaussianPulse resolve to the classes of plans,
    # which loads no numpy
    code = ("import sys, pfl; from pfl import plans; from pfl.config import parse_config; "
            "runs = plans.memories(parse_config(open(sys.argv[1]).read())); "
            "print(len(runs), pfl.GemConfig.__module__, pfl.GaussianPulse.__module__, "
            "'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code, str(CONFIGS / "gem_efficiency_sweep.ini")],
                          capture_output=True, text=True)
    assert proc.stdout.splitlines()[-1] == "5 pfl.plans pfl.plans False", proc.stderr
