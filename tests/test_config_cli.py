import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import pytest

from pfl import config as config_module
from pfl.cli import main as cli_main
from pfl.config import REQUIRED, SCENARIOS, ConfigError, Kinds, inside, parse_config

from conftest import BENCHMARK_WORKLOADS, CONFIGS, workload_ini

GOOD_PROPAGATE = """
[run]
scenario = propagate
seed = 42

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -1e-20
length = 0.01

[plan]
n_steps = 20

[source]
kind = plane
intensity = 100.0
"""

GOOD_DISPERSION = """
[run]
scenario = dispersion
seed = 5

[grid]
nx = 128
ny = 128
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -3.082e-12
length = 0.012888

[plan]
n_steps = 240
snapshot_every = 8

[source]
kind = plane
intensity = 132720.0

[dispersion]
k_perp_list = 20000, 30000, 40000, 60000, 90000
probe_waist = 1e-4
"""

GOOD_SOUND_SCALING = """
[run]
scenario = sound-scaling

[grid]
nx = 64
ny = 64
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -7.890e-12

[sound-scaling]
intensities = 33180, 66360, 165900, 331800
"""

GOOD_PRECONDENSATION = """
[run]
scenario = precondensation

[grid]
nx = 64
ny = 64
dx = 1.6e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -2.488e-10

[plan]
n_steps = 90

[source]
kind = speckle
intensity = 132.7
correlation_length = 3.2e-4

[precondensation]
tau_list = 1, 3
"""

GOOD_STRUCTURE_FACTOR = """
[run]
scenario = structure-factor

[grid]
nx = 32
ny = 32
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -7.706e-13
length = 0.00483

[plan]
n_steps = 140

[source]
kind = plane
intensity = 132720.0

[structure-factor]
realizations = 40
"""

POTENTIAL = "\n[potential]\nkind = uniform\nvalue_re = 1e-6\n"
PLANE_SOURCE = "[source]\nkind = plane\nintensity = 100.0\n"
SPECKLE_SOURCE = "[source]\nkind = speckle\nintensity = 132.7\ncorrelation_length = 3.2e-4\n"

ROOT = Path(__file__).resolve().parent.parent
VORTEX_PAIR = (ROOT / "configs" / "vortex_pair.ini").read_text()
VORTEX_STRIPE = (VORTEX_PAIR[:VORTEX_PAIR.index("[vortices]")]
                 + "[vortices]\nkind = stripe\nstripe_contrast = 0.8\n")
FIFO_FILO = (ROOT / "configs" / "fifo_filo.ini").read_text()
PROPAGATE_GAUSSIAN = (ROOT / "configs" / "propagate_gaussian.ini").read_text()
GEM = (ROOT / "configs" / "gem.ini").read_text()
SOUND_SCALING = (ROOT / "configs" / "sound_scaling.ini").read_text()
DISPERSION = (ROOT / "configs" / "bogoliubov_dispersion.ini").read_text()
PRECONDENSATION = (ROOT / "configs" / "precondensation.ini").read_text()
STRUCTURE_FACTOR = (ROOT / "configs" / "structure_factor.ini").read_text()
SWEEP = (ROOT / "configs" / "gem_efficiency_sweep.ini").read_text()

GOOD_GEM = """
[run]
scenario = gem-efficiency-sweep
seed = 9

[gem-efficiency-sweep]
ratios = 0.5, 1.0
nz = 64
nt = 800
"""


def validate_in_a_process_of_its_own(path) -> subprocess.CompletedProcess:
    """`pfl validate` of path in a fresh process that prints 'exit <code> <numpy loaded>'."""
    code = ("import sys; from pfl.cli import main; "
            f"code = main(['validate', '--config', {str(path)!r}]); "
            "print('exit', code, 'numpy' in sys.modules)")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)


def assert_rule_rejects(text, tmp_path) -> str:
    """text breaks a rule of pfl.rules: `pfl validate` exits 2 without
    loading numpy, a run exits 2 before it makes its run directory, and the
    builders, given the config unchecked, raise the ValueError whose message
    the ConfigError carries after the scenario. Returns that message."""
    with pytest.raises(ConfigError) as rejected:
        parse_config(text)
    path = tmp_path / "bad.ini"
    path.write_text(text)
    proc = validate_in_a_process_of_its_own(path)
    assert proc.stdout.splitlines()[-1] == "exit 2 False", proc.stderr
    assert proc.stderr == f"config error: {rejected.value}\n"
    scenario = re.search(r"^scenario = (\S+)", text, re.M).group(1)
    out = tmp_path / "run"
    assert cli_main([scenario, "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    from pfl.scenarios import run_scenario
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(config_module, "validate_config", lambda cfg: None)
        unchecked = parse_config(text)
    with pytest.raises(ValueError) as built:
        run_scenario(unchecked, tmp_path / "unchecked")
    assert str(rejected.value) == f"{scenario}: {built.value}"
    return str(rejected.value)


def validate_rejects(text, message, tmp_path):
    """parse_config raises a ConfigError matching message, and `pfl validate` exits 2."""
    with pytest.raises(ConfigError, match=message):
        parse_config(text)
    cfg = tmp_path / "bad.ini"
    cfg.write_text(text)
    assert cli_main(["validate", "--config", str(cfg)]) == 2


def swap(text: str, old: str, new: str) -> str:
    assert old in text
    return text.replace(old, new)


GEM_DEFAULTS = {"g": REQUIRED, "density": REQUIRED, "eta0": REQUIRED, "z_extent": 2.0,
                "nz": 256, "t_extent": REQUIRED, "flip_times": REQUIRED,
                "coupling_windows": (), "pulse_centers": REQUIRED,
                "pulse_widths": REQUIRED}


class TestParsing:
    @pytest.mark.parametrize("scenario, own", [
        ("gem", {"nt": 1600, "decay": 0.0, "pulse_labels": ()}),
    ])
    def test_gem_schemas_share_keys_and_keep_defaults(self, scenario, own):
        schema = SCENARIOS[scenario][scenario]
        assert {k: spec.default for k, spec in schema.items()} == {**GEM_DEFAULTS, **own}
        text = (f"[run]\nscenario = {scenario}\n[{scenario}]\n"
                "g = 1.0\ndensity = 1.0\neta0 = 20.0\nt_extent = 7.0\n"
                "flip_times = 3.0\npulse_centers = 1.0, 2.0\npulse_widths = 0.15, 0.15\n")
        cfg = parse_config(text)
        assert cfg.params["nt"] == own["nt"]
        assert cfg.params["pulse_labels"] == own["pulse_labels"]

    def test_empty_scenario_rejected(self):
        with pytest.raises(ConfigError, match="scenario"):
            parse_config("[run]\nscenario =\n")

    def test_unknown_scenario_lists_valid(self):
        with pytest.raises(ConfigError, match="valid scenarios"):
            parse_config("[run]\nscenario = warp\n")

    def test_negative_wavelength_names_key(self):
        bad = GOOD_PROPAGATE.replace("lambda = 780e-9", "lambda = -780e-9")
        with pytest.raises(ConfigError, match="medium.lambda"):
            parse_config(bad)

    def test_unknown_key_with_line_number(self):
        bad = GOOD_PROPAGATE.replace("nx = 64", "nx = 64\nfrobnicate = 1")
        with pytest.raises(ConfigError, match="line .*frobnicate"):
            parse_config(bad)

    def test_syntax_error_with_line_number(self):
        with pytest.raises(ConfigError, match="line 3"):
            parse_config("[run]\nscenario = propagate\nthis is not a binding\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate key"):
            parse_config("[run]\nscenario = propagate\nscenario = gem\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(GOOD_GEM + "\n[telemetry]\nx = 1\n")

    def test_chi3_and_n2_mutually_exclusive(self):
        bad = GOOD_PROPAGATE.replace("chi3 = -1e-20", "chi3 = -1e-20\nn2 = -1e-10")
        with pytest.raises(ConfigError, match="chi3 or n2"):
            parse_config(bad)

    def test_comments_and_blank_lines(self):
        text = "# header\n" + GOOD_GEM.replace("seed = 9", "seed = 9  # trailing")
        cfg = parse_config(text)
        assert cfg.run["seed"] == 9

    def test_odd_grid_rejected(self):
        bad = GOOD_PROPAGATE.replace("nx = 64", "nx = 63")
        with pytest.raises(ConfigError, match="grid.nx"):
            parse_config(bad)

    def test_missing_required_key(self):
        bad = GOOD_PROPAGATE.replace("length = 0.01\n", "")
        with pytest.raises(ConfigError, match="length"):
            parse_config(bad)

    @pytest.mark.parametrize("text, message", [
        (GOOD_DISPERSION.replace("kind = plane", "kind = speckle\ncorrelation_length = 6e-5"),
         "kind 'plane'"),
        (GOOD_DISPERSION.replace("[source]\nkind = plane\nintensity = 132720.0\n", ""),
         "kind 'plane'"),
        (GOOD_DISPERSION + POTENTIAL, r"dispersion takes no \[potential\]"),
        (GOOD_SOUND_SCALING + POTENTIAL, r"sound-scaling takes no \[potential\]"),
    ], ids=["dispersion-speckle", "dispersion-no-source", "dispersion-potential",
            "sound-scaling-potential"])
    def test_probe_scenarios_need_a_homogeneous_fluid(self, text, message, tmp_path,
                                                      capsys):
        for good in (GOOD_DISPERSION, GOOD_SOUND_SCALING):
            parse_config(good)
        validate_rejects(text, message, tmp_path)
        assert "homogeneous fluid" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (GOOD_SOUND_SCALING.replace("chi3 = -7.890e-12\n", "chi3 = -7.890e-12\nlength = 1.0\n"),
         r"line 14: sound-scaling takes no medium.length: each density propagates over "
         r"tau \* z_nl"),
        (GOOD_SOUND_SCALING + "\n[plan]\nn_steps = 1\n",
         r"sound-scaling takes no \[plan\] section: each density takes ceil\(15 tau\) steps"),
        (GOOD_PRECONDENSATION.replace("chi3 = -2.488e-10\n", "chi3 = -2.488e-10\nlength = 1.0\n"),
         r"line 14: precondensation takes no medium.length: each tau in tau_list propagates"),
        (GOOD_SOUND_SCALING + "\n" + PLANE_SOURCE,
         r"sound-scaling takes no \[source\] section: each background is a plane wave"),
        (GOOD_STRUCTURE_FACTOR.replace("n_steps = 140", "n_steps = 140\nsnapshot_every = 1"),
         r"line 18: structure-factor takes no plan.snapshot_every: only the final field"),
        (GOOD_PRECONDENSATION.replace("n_steps = 90", "n_steps = 90\nsnapshot_every = 1"),
         r"line 17: precondensation takes no plan.snapshot_every: only the final field"),
        (VORTEX_PAIR.replace("n_steps = 200", "n_steps = 200\nsnapshot_every = 1"),
         r"line 23: vortices takes no plan.snapshot_every: only the final field"),
        (GOOD_DISPERSION.replace("seed = 5", "seed = 5\nsnapshots = true"),
         r"line 5: dispersion takes no run.snapshots: only propagate writes snapshots"),
        (GOOD_DISPERSION.replace("seed = 5", "seed = 5\npgm = true"),
         r"line 5: dispersion takes no run.pgm: only propagate, vortices and gem write"),
        (GOOD_PROPAGATE.replace("seed = 42", "seed = 42\njobs = 2"),
         r"line 5: propagate takes no run.jobs: a run takes no thread count$"),
        (GOOD_GEM.replace("seed = 9", "seed = 9\nout_dir = runs"),
         r"line 5: gem-efficiency-sweep takes no run.out_dir: use --out or \$PFL_OUT"),
        (VORTEX_PAIR + "evolve = false\n",
         r"line 34: vortices takes no vortices.evolve: set plan.n_steps = 0 for no evolution"),
        (FIFO_FILO.replace("[gem]\n", "[gem]\nmode = FIFO\n"),
         r"line 14: gem takes no gem.mode$"),  # the schedule sets it
    ], ids=["sound-scaling-length", "sound-scaling-plan", "precondensation-length",
            "sound-scaling-source", "structure-factor-snapshot-every",
            "precondensation-snapshot-every", "vortices-snapshot-every",
            "dispersion-snapshots", "dispersion-pgm", "propagate-jobs", "out-dir",
            "vortices-evolve", "fifo-filo-mode"])
    def test_values_the_scenario_sets_are_rejected(self, text, message, tmp_path, capsys):
        validate_rejects(text, message, tmp_path)
        assert "takes no" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        (GOOD_PROPAGATE.replace(PLANE_SOURCE, ""), r"propagate needs a \[source\] of kind "
         r"'gaussian' or 'plane' or 'speckle' or 'file'$"),
        (VORTEX_PAIR.replace("[source]\nkind = plane\nintensity = 132720.0\n", ""),
         r"vortices needs a \[source\] of kind 'gaussian' or 'plane'"),
        (GOOD_STRUCTURE_FACTOR.replace("kind = plane", "kind = speckle\ncorrelation_length = 6e-5"),
         r"structure-factor needs a \[source\] of kind 'plane', not 'speckle': each member "
         r"is a plane wave"),
        (GOOD_STRUCTURE_FACTOR.replace("kind = plane\nintensity = 132720.0",
                                       "kind = gaussian\nwaist = 5e-5\npower = 1e-3"),
         r"structure-factor needs a \[source\] of kind 'plane', not 'gaussian'"),
        (GOOD_PRECONDENSATION.replace(SPECKLE_SOURCE,
                                      "[source]\nkind = gaussian\nwaist = 2e-4\npower = 1e-3\n"),
         r"precondensation needs a \[source\] of kind 'plane' or 'speckle', not 'gaussian'"),
        (GOOD_PROPAGATE.replace(PLANE_SOURCE, "[source]\nkind = gaussian\nwaist = 1e-4\n"
                                "power = 1e-3\nintensity = 100.0\n"),
         r"line 24: propagate takes no source.intensity for kind 'gaussian'$"),
        (GOOD_PROPAGATE.replace(PLANE_SOURCE, "[source]\nkind = gaussian\nwaist = 1e-4\n"
                                "power = 1e-3\ncorrelation_length = 6e-5\n"),
         r"line 24: propagate takes no source.correlation_length for kind 'gaussian'$"),
    ], ids=["propagate-no-source", "vortices-no-source", "structure-factor-speckle",
            "structure-factor-gaussian", "precondensation-gaussian",
            "gaussian-intensity", "gaussian-correlation-length"])
    def test_source_must_be_of_a_kind_the_scenario_takes(self, text, message, tmp_path,
                                                         capsys):
        for good in (GOOD_PROPAGATE, VORTEX_PAIR, GOOD_STRUCTURE_FACTOR, GOOD_PRECONDENSATION):
            parse_config(good)
        validate_rejects(text, message, tmp_path)
        assert "source" in capsys.readouterr().err

    def test_benchmark_workload_inis_parse(self):
        # the benchmark runs pfl on the INIs perfbench/workloads.py writes;
        # one that stops parsing would fail every benchmark run
        scenarios = {"beam-512": "propagate", "sf-ensemble-64": "structure-factor",
                     "bogoliubov-256": "dispersion"}
        for name in BENCHMARK_WORKLOADS:
            for seed in range(5):
                cfg = parse_config(workload_ini(name, seed))
                assert (cfg.scenario, cfg.run["seed"]) == (scenarios[name], seed)

    @pytest.mark.parametrize("text", [GOOD_SOUND_SCALING, GOOD_PRECONDENSATION],
                             ids=["sound-scaling", "precondensation"])
    def test_round_trip_without_the_values_the_scenario_sets(self, text):
        cfg = parse_config(text)
        assert "length" not in cfg.medium
        assert (cfg.plan is None) == (cfg.scenario == "sound-scaling")

    # the schedule sets the mode of a two-pulse run (FILO: one flip, no
    # coupling windows; FIFO: two flips, at least one window); a run that
    # mixes the two, or has three pulses, is a plain gem run that reads no
    # recall order. None drops the coupling_windows line, as a FILO config would.
    @pytest.mark.parametrize("flips, windows, pulses", [
        ("3.0", "0.0, 3.2, 5.7, 9.0", 2),
        ("3.0, 5.5", "", 2),
        ("3.0, 5.5", None, 2),
        ("3.0", "0.0, 3.2", 2),
        ("3.0, 5.5", "0.0, 3.2, 5.7, 9.0", 3),
    ], ids=["fifo-one-flip", "fifo-no-window", "filo-two-flips", "filo-window",
            "three-pulses"])
    def test_fifo_filo_schedule_must_fit_its_mode(self, flips, windows, pulses, tmp_path):
        line = "" if windows is None else f"coupling_windows = {windows}\n"
        text = (FIFO_FILO.replace("flip_times = 3.0, 5.5", f"flip_times = {flips}")
                .replace("coupling_windows = 0.0, 3.2, 5.7, 9.0\n", line))
        if pulses == 3:
            text = (swap(text, "pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 2.0, 2.6")
                    .replace("pulse_widths = 0.15, 0.15", "pulse_widths = 0.15, 0.15, 0.15")
                    .replace("pulse_labels = A, B", "pulse_labels = A, B, C"))
        assert text != FIFO_FILO
        path, out = tmp_path / "plain.ini", tmp_path / "out"
        path.write_text(text)
        assert cli_main(["validate", "--config", str(path)]) == 0
        assert cli_main(["gem", "--config", str(path), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["input.csv", "manifest.txt",
                                                         "output.csv"]

    # the schedule rules GemConfig holds library callers to, caught before a run
    @pytest.mark.parametrize("config, binding, replacement, message", [
        ("fifo_filo.ini", "coupling_windows = 0.0, 3.2, 5.7, 9.0",
         "coupling_windows = 0.0, 3.2, 9.0, 5.7",
         "gem: coupling windows must be ordered and disjoint"),
        ("fifo_filo.ini", "flip_times = 3.0, 5.5", "flip_times = 5.5, 3.0",
         "gem: eta flip times must be strictly increasing"),
        ("fifo_filo.ini", "flip_times = 3.0, 5.5", "flip_times = 3.0, 9.5",
         "gem: eta flip times must lie within [0, t_extent]"),
        ("gem_efficiency_sweep.ini", "flip_time = 3.0", "flip_time = 9.0",
         "gem-efficiency-sweep: eta flip times must lie within [0, t_extent]"),
    ], ids=["windows-out-of-order", "flips-decreasing", "flip-after-t-extent",
            "sweep-flip-after-t-extent"])
    def test_gem_schedule_rules_exit_2(self, config, binding, replacement, message,
                                       tmp_path):
        shipped = next(c for c in CONFIGS if c.name == config).read_text()
        text = shipped.replace(binding, replacement)
        assert text != shipped
        assert assert_rule_rejects(text, tmp_path) == message

    # each passed `pfl validate` before its rule reached validate_config, and
    # the run then failed (exit 3), some after propagating a whole sweep
    @pytest.mark.parametrize("text, message", [
        (swap(PROPAGATE_GAUSSIAN, "waist = 150e-6", "waist = 10e-6"),
         "waist 1e-05 is unresolved: need at least 4*max(dx, dy) = 2e-05"),
        (swap(PROPAGATE_GAUSSIAN, "waist = 150e-6", "waist = 700e-6"),
         "waist 0.0007 exceeds half the grid extent 0.00064"),
        (swap(GOOD_PRECONDENSATION, "correlation_length = 3.2e-4", "correlation_length = 2e-5"),
         "correlation_length 2e-05 is unresolved: need at least 2*max(dx, dy)"),
        (GOOD_PROPAGATE + "[potential]\nkind = gaussian_defect\nwidth = 1e-5\n",
         "defect width 1e-05 is unresolved: need at least 2*max(dx, dy) = 2e-05"),
        (GOOD_PROPAGATE + "[potential]\nkind = lattice\nperiod = 2.5e-5\n",
         "lattice period 2.5e-05 unresolved: interference wavevector"),
        (swap(GOOD_DISPERSION, "probe_waist = 1e-4", "probe_waist = 1e-5"),
         "probe waist 1e-05 is unresolved: need at least 4*max(dx, dy)"),
        (swap(GOOD_DISPERSION, "probe_waist = 1e-4", "probe_waist = 4e-4"),
         "probe waist 0.0004 exceeds half the grid extent 0.00032"),
        (swap(GOOD_DISPERSION, "90000", "700000"),
         "probe |k_perp| = 700000 1/m reads mode 72, past the grid's Nyquist mode nx/2 = 64: "
         "|k_perp| must lie below (nx/2 - 0.5) 2 pi / (nx dx) = 623410 1/m"),
        # a swept list holds each value once: the last three passed `pfl
        # validate`, and the run then made the same measurement twice
        (swap(GOOD_DISPERSION, "20000, 30000, 40000", "20000, 30000, 30000"),
         "dispersion: k_perp_list holds 30000 twice; a sweep measures each value once"),
        (swap(PRECONDENSATION, "tau_list = 1, 3", "tau_list = 1, 1")
         .replace("realizations = 4", "realizations = 1"),
         "precondensation: tau_list holds 1 twice; a sweep measures each value once"),
        (swap(SWEEP, "ratios = 0.5, 1.0, 1.5, 2.0, 3.0", "ratios = 0.5, 0.5, 1.0"),
         "gem-efficiency-sweep: ratios holds 0.5 twice; a sweep measures each value once"),
        (swap(SOUND_SCALING, "intensities = 132720, 265440,",
              "intensities = 132720, 132720, 265440,"),
         "sound-scaling: densities holds 9.99993e+07 twice; a sweep measures each value once"),
        # each passed `pfl validate`, and the run then exited 3 at its first
        # step of dz = inf
        (swap(PRECONDENSATION, "chi3 = -2.48756e-05", "chi3 = 0.0"),
         "precondensation: the nonlinear length z_nl is infinite (chi3 = 0 or a zero source "
         "intensity), so tau z_nl sets no length"),
        (swap(PRECONDENSATION, "intensity = 1.3272e-3", "intensity = 0"),
         "precondensation: the nonlinear length z_nl is infinite"),
        # passed `pfl validate`, and the run then exited 3 after the whole
        # ensemble had propagated, finding no noise power in any bin
        (swap(STRUCTURE_FACTOR, "band_fraction = 0.75", "band_fraction = 0.01")
         .replace("realizations = 100", "realizations = 8"),
         "structure-factor: the noise band holds no mode but k = 0: its edge band_fraction "
         "* pi / max(dx, dy) = 6283.19 lies below the first mode 2 pi / (n d) = 19635"),
        # the noise, the probes and a stripe ride on the source amplitude: on a
        # zero source nothing carries them
        (swap(STRUCTURE_FACTOR, "\nintensity = 1.3272e-3", "\nintensity = 0.0"),
         "structure-factor: the source intensity is zero"),
        (swap(DISPERSION, "\nintensity = 132720.0", "\nintensity = 0.0"),
         "dispersion: the source intensity is zero"),
        (swap(VORTEX_STRIPE, "\nintensity = 132720.0", "\nintensity = 0.0"),
         "vortices: the source intensity is zero"),
        (swap(VORTEX_STRIPE, "kind = plane\nintensity = 132720.0",
              "kind = gaussian\nwaist = 1e-4\npower = 0.0"),
         "vortices: the source intensity is zero"),
        # each passed `pfl validate`, and the run then exited 3 with no packet to fit
        (swap(GOOD_DISPERSION, "n_steps = 240", "n_steps = 0"),
         "the plan makes 0 snapshots (0 steps, one every 8); reading a probe's modes "
         "needs at least 3"),
        (swap(GOOD_DISPERSION, "snapshot_every = 8", "snapshot_every = 200"),
         "the plan makes 1 snapshots (240 steps, one every 200); reading a probe's modes "
         "needs at least 3"),
        # passed `pfl validate`, and the run then exited 3 at its first kick
        (swap(DISPERSION, "n0 = 1.0", "n0 = 0.1"),
         "the first kick gives 6.71 rad of phase per step (> pi) with 240 steps; the run "
         "needs n_steps >= 513"),
        # a focusing fluid has no real Bogoliubov branch to read, and the
        # arccos of the per-mode recurrence aliases a mode that turns by pi
        # or more between snapshots
        (swap(DISPERSION, "chi3 = -3.082e-12", "chi3 = 3.082e-12"),
         "dispersion: the background must not be focusing (chi3 = 3.082e-12 > 0)"),
        (swap(DISPERSION, "snapshot_every = 8", "snapshot_every = 60"),
         "dispersion: mode 10 (k = 9.817e+04 1/m), the highest the probes read, turns 4.37 "
         "rad (>= pi) between snapshots 0.003222 m apart"),
        # passed `pfl validate`, and the run then read the last probe's
        # parabola through index 65 of a 128-sample line's transform, mode
        # -63 (at the shipped snapshot_every = 8 mode aliasing refuses it)
        (swap(DISPERSION, "60000, 90000", "60000, 625000")
         .replace("snapshot_every = 8", "snapshot_every = 1"),
         "dispersion: probe |k_perp| = 625000 1/m reads mode 65, past the grid's Nyquist mode "
         "nx/2 = 64: |k_perp| must lie below (nx/2 - 0.5) 2 pi / (nx dx) = 623410 1/m"),
        (swap(GOOD_SOUND_SCALING, "331800", "300000"),
         "densities must span at least one decade"),
        (swap(SOUND_SCALING, "probe_waist_xi = 10\n", "probe_waist_xi = 100\n"),
         "sound-scaling: probe waist 0.0012001191830877185 exceeds half the grid extent 0.00064"),
        (swap(GOOD_SOUND_SCALING, "chi3 = -7.890e-12", "n2 = -3e-9")
         + "probe_waist_xi = 1\n", "sound-scaling: probe waist 1.2"),
        (swap(GOOD_SOUND_SCALING, "chi3 = -7.890e-12", "chi3 = 0.0"),
         "sound-scaling: probe waist inf exceeds half the grid extent 0.00016"),
        # passed `pfl validate`, and the run then exited 3 with no packet to fit
        (swap(SOUND_SCALING, "tau = 25\n", "tau = 0.2\n"),
         "sound-scaling: the plan makes 2 snapshots (3 steps, one every 1); reading a probe's "
         "modes needs at least 3"),
        (swap(VORTEX_PAIR, "charges = 1, -1", "charges = 1, 0"),
         "charge must satisfy |charge| >= 1"),
        (swap(VORTEX_PAIR, "xs = 2e-4, -2e-4", "xs = 2e-4, -7e-4"),
         "vortex center (-0.0007, 0.0) lies outside the grid extent"),
        (swap(GEM, "pulse_centers = 1.0, 2.0", "pulse_centers = 0.3, 2.0"),
         "pulse at t=0.3 with width 0.15 does not fit in [0, 8.0] with 4 sigma margins"),
        (swap(SWEEP, "pulse_center = 1.5", "pulse_center = 0.5"),
         "pulse at t=0.5 with width 0.18 does not fit in [0, 8.0] with 4 sigma margins"),
        (swap(GEM, "t_extent = 8.0", "t_extent = 8.0\nnt = 100"),
         "under-resolves the gradient phase: |eta| z_max dt = 1.62 > 0.5 rad"),
        (swap(SWEEP, "eta0 = 20.0\nz_extent = 2.0\nnz = 256", "eta0 = 0.0\nz_extent = 2.0\nnz = 32")
         .replace("ratios = 0.5, 1.0, 1.5, 2.0, 3.0", "ratios = 1.0").replace("nt = 1600", "nt = 64"),
         "eta must be nonzero"),
        (swap(FIFO_FILO, "pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 1.3"),
         "pulses are not temporally resolved: separation 0.30000000000000004 < 4 widths"),
        (swap(FIFO_FILO, "coupling_windows = 0.0, 3.2", "coupling_windows = 0.0, 4.2"),
         "coupling is on at the suppressed echo time 4.0"),
        (swap(GEM, "flip_times = 3.0", "flip_times = 3.0, 5.5\n"
              "coupling_windows = 0.0, 4.5, 5.7, 8.0"),
         "coupling is on at the suppressed echo time 4.0"),
        # the builder, given an odd list unchecked, dropped its last time
        (swap(FIFO_FILO, "coupling_windows = 0.0, 3.2, 5.7, 9.0",
              "coupling_windows = 0.0, 3.2, 5.7"),
         "gem.coupling_windows must list (on, off) pairs"),
        # every pulse is simulated, so each has a width
        (swap(FIFO_FILO, "pulse_widths = 0.15, 0.15", "pulse_widths = 0.15"),
         "gem: gem.pulse_centers and pulse_widths must have equal lengths"),
        # a third pulse takes the run out of the ordering rules, not out of the
        # pulse margins, which hold for every pulse
        (swap(FIFO_FILO, "pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 2.0, 8.8")
         .replace("pulse_widths = 0.15, 0.15", "pulse_widths = 0.15, 0.15, 0.15")
         .replace("pulse_labels = A, B", "pulse_labels = A, B, C"),
         "pulse at t=8.8 with width 0.15 does not fit in [0, 9.0] with 4 sigma margins"),
        # each passed `pfl validate`, integrated the whole memory run and
        # then exited 3 reading the wrong echoes
        (swap(GEM, "flip_times = 3.0", "flip_times = 0.3"),
         "pulse at t=2.0 with width 0.15 is not stored before the first gradient flip at 0.3"),
        (swap(FIFO_FILO, "flip_times = 3.0, 5.5", "flip_times = 3.0, 7.0"),
         "FIFO echo of the pulse at t=1.0 would fall at 9.0; it must come after the last "
         "flip at 7.0 and 4 sigma before t_extent = 9.0"),
        (swap(SWEEP, "flip_time = 3.0", "flip_time = 1.8"),
         "echo window (1.3800000000000001, 2.8200000000000003) overlaps the input window"),
        (swap(SWEEP, "flip_time = 3.0", "flip_time = 6.0"),
         "echo window extends past t_extent"),
        # each passed `pfl validate`, integrated the whole memory run and then
        # exited 3 finding one echo peak (three for gem.ini at eta0 = 0): a
        # memory that stores nothing carries no recall order
        (swap(GEM, "g = 1.7841", "g = 0.0"),
         "gem: the memory stores nothing (g density = 0), so no echo would carry a recall "
         "order"),
        (swap(GEM, "density = 1.7841", "density = 0.0"), "gem: the memory stores nothing"),
        (swap(GEM, "eta0 = 20.0", "eta0 = 0.0"), "gem: eta must be nonzero"),
        (swap(FIFO_FILO, "eta0 = 20.0", "eta0 = 0.0"), "gem: eta must be nonzero"),
    ], ids=["gaussian-unresolved", "gaussian-wraps", "speckle-unresolved",
            "defect-unresolved", "lattice-past-nyquist", "probe-unresolved", "probe-wraps",
            "probe-past-nyquist", "repeated-k-perp", "repeated-tau", "repeated-ratio",
            "repeated-intensity", "precondensation-chi3-zero",
            "precondensation-without-light", "noise-band-without-a-mode",
            "structure-factor-without-light", "dispersion-without-light",
            "stripe-without-light", "gaussian-stripe-without-light", "dispersion-without-steps",
            "dispersion-too-few-snapshots", "dispersion-first-kick",
            "dispersion-focusing", "dispersion-aliasing", "dispersion-modes-past-nyquist",
            "intensities-within-a-decade",
            "sound-scaling-probe-wraps", "sound-scaling-probe-unresolved",
            "sound-scaling-chi3-zero", "sound-scaling-too-few-snapshots",
            "charge-zero", "vortex-off-grid", "gem-pulse-margins", "sweep-pulse-margins",
            "gradient-phase", "sweep-eta-zero", "fifo-filo-unresolved-pulses",
            "fifo-window-on-at-echo", "gem-window-on-at-echo", "gem-odd-windows",
            "fifo-filo-one-width", "fifo-filo-three-pulses",
            "gem-flip-before-the-pulses", "fifo-echo-past-t-extent", "sweep-echo-overlaps",
            "sweep-echo-past-t-extent", "gem-without-coupling", "gem-without-atoms",
            "gem-eta-zero", "fifo-filo-eta-zero"])
    def test_each_rule_is_the_builders_and_exits_2(self, text, message, tmp_path):
        assert message in assert_rule_rejects(text, tmp_path)

    def test_an_ordering_rule_is_checked_before_the_memory_integrates(self, tmp_path):
        # the builder, given the config unchecked, refuses the schedule
        # before gem_evolve integrates a step, not after the whole run
        from pfl import gem, scenarios
        text = swap(FIFO_FILO, "coupling_windows = 0.0, 3.2", "coupling_windows = 0.0, 4.2")

        def integrated(*args, **kwargs):
            raise AssertionError("gem_evolve ran before rules.ordering refused the schedule")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config_module, "validate_config", lambda cfg: None)
            patch.setattr(gem, "gem_evolve", integrated)  # the gem handler imports it per run
            unchecked = parse_config(text)
            with pytest.raises(ValueError, match="coupling is on at the suppressed echo time 4.0"):
                scenarios.run_scenario(unchecked, tmp_path / "unchecked")

    def test_a_probe_kick_is_checked_before_anything_propagates(self, tmp_path):
        # the handler's plan (plans.probe_stack), given the config unchecked,
        # refuses the probe stack before its lines propagate
        from pfl import dispersion, scenarios

        def propagated(*args, **kwargs):
            raise AssertionError("the probe lines propagated before rules.probe_kick refused")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(config_module, "validate_config", lambda cfg: None)
            patch.setattr(dispersion, "propagate", propagated)
            unchecked = parse_config(swap(DISPERSION, "n0 = 1.0", "n0 = 0.1"))
            with pytest.raises(ValueError, match=r"the run needs n_steps >= 513$"):
                scenarios.run_scenario(unchecked, tmp_path / "unchecked")

    # a file source is read up to its header: each case passed `pfl validate`
    # before, and the run then failed (exit 3) and left an empty run directory
    @pytest.mark.parametrize("content, message", [
        (None, "input.pfl1: cannot read snapshot: No such file or directory"),
        (b"not a snapshot", "input.pfl1: not a PFL1 snapshot (bad magic b'not ')"),
        (struct.pack("<4sQQddQd", b"PFL1", 64, 64, 1e-5, 1e-5, 0, 0.0) + bytes(16 * 64 * 63),
         "input.pfl1: truncated snapshot (64564 of 65588 bytes)"),
        (struct.pack("<4sQQddQd", b"PFL1", 128, 128, 1e-5, 1e-5, 0, 0.0) + bytes(16 * 128**2),
         "input.pfl1 grid Grid(nx=128, ny=128, dx=1e-05, dy=1e-05) does not match the "
         "configured grid Grid(nx=64, ny=64, dx=1e-05, dy=1e-05)"),
    ], ids=["missing", "not-pfl1", "truncated", "grid-mismatch"])
    def test_a_file_source_is_checked_before_the_run(self, content, message, tmp_path):
        snapshot = tmp_path / "input.pfl1"
        if content is not None:
            snapshot.write_bytes(content)
        text = swap(GOOD_PROPAGATE, PLANE_SOURCE, f"[source]\nkind = file\npath = {snapshot}\n")
        assert message in assert_rule_rejects(text, tmp_path)

    @pytest.mark.parametrize("binding, message", [
        ("snapshot_every = 0", r"line 19: plan.snapshot_every must lie in \[1, inf\), got 0"),
        ("", r"plan.snapshot_every is required in dispersion$"),
    ], ids=["zero", "absent"])
    def test_dispersion_tracks_the_probe_over_snapshots(self, binding, message, tmp_path):
        text = swap(GOOD_DISPERSION, "snapshot_every = 8\n", binding and binding + "\n")
        validate_rejects(text, message, tmp_path)

    @pytest.mark.parametrize("text, message", [
        (VORTEX_PAIR + "stripe_angle = 1.0\n",
         r"line 34: vortices takes no vortices.stripe_angle for kind 'imprint'"),
        (VORTEX_STRIPE + "charges = 1, -1\n",
         r"line 31: vortices takes no vortices.charges for kind 'stripe'"),
        (VORTEX_PAIR.replace("kind = imprint\n", ""),
         r"vortices needs a \[vortices\] of kind 'imprint' or 'stripe'$"),
    ], ids=["imprint-stripe-key", "stripe-charges", "no-kind"])
    def test_vortices_take_only_the_keys_of_their_kind(self, text, message, tmp_path):
        validate_rejects(text, message, tmp_path)

    # every pulse is simulated: a label list names each pulse or is empty
    @pytest.mark.parametrize("text, message", [
        (FIFO_FILO.replace("pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 2.0, 2.6")
         .replace("pulse_widths = 0.15, 0.15", "pulse_widths = 0.15, 0.15, 0.15"),
         r"gem.pulse_labels needs one label per pulse or none"),
        (FIFO_FILO.replace("pulse_labels = A, B", "pulse_labels = A, B, C"),
         r"gem.pulse_labels needs one label per pulse or none"),
        (FIFO_FILO.replace("pulse_labels = A, B", "pulse_labels = A"),
         r"gem.pulse_labels needs one label per pulse or none"),
        ("[run]\nscenario = gem\n[gem]\ng = 2.0\ndensity = 2.0\neta0 = 20.0\n"
         "t_extent = 8.0\nflip_times = 3.0\npulse_centers = 1.0, 2.0\n"
         "pulse_widths = 0.15, 0.15\npulse_labels = A\n",
         r"gem.pulse_labels needs one label per pulse or none"),
    ], ids=["fifo-filo-three-pulses", "fifo-filo-three-labelled-pulses",
            "fifo-filo-one-label", "gem-one-label"])
    def test_every_pulse_is_simulated(self, text, message, tmp_path):
        validate_rejects(text, message, tmp_path)

    def test_every_range_parses_and_holds_its_default(self):
        # defaults are not checked as a config is read, so they are here
        specs = [spec for reads in SCENARIOS.values() for section in reads.values()
                 if not isinstance(section, str)
                 for keys in (section.keys.values() if isinstance(section, Kinds) else [section])
                 for spec in keys.values()]
        assert inside(0, "[0, 1]") and inside(1, "[0, 1]") and inside(1e300, "[0, inf)")
        assert not inside(0, "(0, 1]") and not inside(1, "[0, 1)")
        ranged = [spec for spec in specs if spec.within is not None]
        assert len(ranged) > 30
        for spec in ranged:
            assert spec.type in ("int", "float", "ints", "floats")
            lo, hi = re.fullmatch(r"[(\[](\S+), (\S+)[)\]]", spec.within).groups()
            assert float(lo) <= float(hi)
        for spec in specs:
            if spec.default is not REQUIRED and spec.default is not None:
                values = spec.default if isinstance(spec.default, tuple) else (spec.default,)
                assert len(values) >= spec.items
                assert spec.within is None or all(inside(v, spec.within) for v in values)

    # all but the last passed validation before their key's range was
    # declared, and the run then failed, replaced the value or ignored the key
    @pytest.mark.parametrize("text, binding, message", [
        (GOOD_DISPERSION, "power_ratio = -1e-5",
         r"dispersion.power_ratio must lie in \(0, 1\), got -1e-05"),
        # a probe without power seeds no density change to read
        (GOOD_DISPERSION, "power_ratio = 0",
         r"dispersion.power_ratio must lie in \(0, 1\), got 0.0"),
        # a probe as strong as its background is no linear-response
        # measurement: the shipped dispersion config ran at 1 and read c_s
        # 0.68% low; sound-scaling at 50 exited 2 only at its first kick
        (GOOD_DISPERSION, "power_ratio = 1",
         r"dispersion.power_ratio must lie in \(0, 1\), got 1.0"),
        (GOOD_SOUND_SCALING, "power_ratio = 50",
         r"sound-scaling.power_ratio must lie in \(0, 1\), got 50.0"),
        (GOOD_GEM.replace("nz = 64\n", ""), "nz = 8",
         r"gem-efficiency-sweep.nz must lie in \[32, inf\), got 8"),
        (PROPAGATE_GAUSSIAN.replace("waist = 150e-6\n", ""), "waist = -1e-4",
         r"source.waist must lie in \(0, inf\), got -0.0001"),
        (GOOD_PRECONDENSATION, "bins = 0", r"precondensation.bins must lie in \[1, inf\), got 0"),
        (GOOD_SOUND_SCALING, "tau = -1", r"sound-scaling.tau must lie in \(0, inf\), got -1.0"),
        (GOOD_STRUCTURE_FACTOR, "nbins = 0",
         r"structure-factor.nbins must lie in \[1, inf\), got 0"),
        (GOOD_STRUCTURE_FACTOR, "noise_amplitude = 0",
         r"structure-factor.noise_amplitude must lie in \(0, inf\), got 0.0"),
        (GOOD_PROPAGATE + POTENTIAL, "amplitude_re = 5",
         r"propagate takes no potential.amplitude_re for kind 'uniform'$"),
        (GOOD_DISPERSION.replace("k_perp_list = 20000, 30000, 40000, 60000, 90000\n", ""),
         "k_perp_list = 40000, 60000, 90000",
         r"dispersion.k_perp_list needs at least 5 values, got 3"),
    ], ids=["dispersion-power-ratio", "dispersion-zero-power-ratio",
            "dispersion-unit-power-ratio", "ratio-50", "gem-nz", "source-waist",
            "precondensation-bins",
            "sound-scaling-tau", "structure-factor-nbins", "structure-factor-noise-amplitude",
            "uniform-amplitude",
            "dispersion-k-perp-list"])
    def test_out_of_range_values_are_rejected_at_their_line(self, text, binding, message,
                                                            tmp_path, capsys):
        text += binding + "\n"
        line = text.splitlines().index(binding) + 1
        with pytest.raises(ConfigError, match=f"line {line}: {message}"):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2
        assert f"line {line}: " in capsys.readouterr().err

    def test_type_errors_are_reported(self, tmp_path):
        shipped = next(c for c in CONFIGS if c.name == "propagate_gaussian.ini").read_text()
        dispersion = GOOD_DISPERSION.replace("20000, 30000", "20000, -inf")
        for text, message in [
            (GOOD_PROPAGATE.replace("n_steps = 20", "n_steps = twenty"), "n_steps"),
            (shipped.replace("dx = 5e-6", "dx = nan"), "line 13: key 'grid.dx': cannot "
                                                       "parse 'nan' as finite float"),
            (shipped.replace("dx = 5e-6", "dx = inf"), "'grid.dx'.*'inf'"),
            (shipped.replace("length = 0.075", "length = nan"), "'medium.length'.*'nan'"),
            (dispersion, "'dispersion.k_perp_list': cannot parse '-inf' as finite float"),
        ]:
            validate_rejects(text, message, tmp_path)


class TestCli:
    def test_version(self, capsys):
        assert cli_main(["version"]) == 0
        assert "pfl" in capsys.readouterr().out

    def test_validate_ok(self, tmp_path, capsys):
        cfg = tmp_path / "ok.ini"
        cfg.write_text(GOOD_GEM)
        assert cli_main(["validate", "--config", str(cfg)]) == 0

    def test_validate_bad_config_exit_2(self, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[run]\nscenario = warp\n")
        assert cli_main(["validate", "--config", str(cfg)]) == 2

    def test_missing_file_exit_2(self):
        assert cli_main(["validate", "--config", "/nonexistent.ini"]) == 2

    def test_byte_order_mark_is_read_as_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "bom.ini"
        cfg.write_bytes(b"\xef\xbb\xbf" + GOOD_GEM.lstrip().encode())
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        assert capsys.readouterr().out.startswith("ok: scenario 'gem-efficiency-sweep'")

    def test_config_that_is_not_utf8_exits_2_without_numpy(self, tmp_path):
        cfg = tmp_path / "utf16.ini"
        cfg.write_bytes(b"\xff\xfe" + GOOD_GEM.encode("utf-16-le"))
        proc = validate_in_a_process_of_its_own(cfg)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit 2 False"
        assert proc.stderr.startswith(f"config error: config file {cfg} is not UTF-8 text")
        assert "Traceback" not in proc.stderr

    def test_csv_false_exits_2_without_numpy(self, tmp_path):
        # every run writes its CSV files: csv parses, and only as true
        cfg = tmp_path / "no_csv.ini"
        cfg.write_text(GOOD_GEM.replace("seed = 9\n", "seed = 9\ncsv = false\n"))
        proc = validate_in_a_process_of_its_own(cfg)
        assert proc.stdout.splitlines()[-1] == "exit 2 False", proc.stderr
        assert proc.stderr == ("config error: run.csv must be true: every run writes "
                               "its CSV files\n")
        cfg.write_text(GOOD_GEM.replace("seed = 9\n", "seed = 9\ncsv = true\n"))
        assert cli_main(["validate", "--config", str(cfg)]) == 0
        for config in CONFIGS:  # each scenario refuses it
            with pytest.raises(ConfigError, match="every run writes its CSV files"):
                parse_config(config.read_text().replace("[run]\n", "[run]\ncsv = false\n"))

    def test_scenario_mismatch_exit_2(self, tmp_path):
        cfg = tmp_path / "gem.ini"
        cfg.write_text(GOOD_GEM)
        assert cli_main(["propagate", "--config", str(cfg)]) == 2

    def test_run_writes_manifest(self, tmp_path):
        cfg = tmp_path / "gem.ini"
        cfg.write_text(GOOD_GEM)
        out = tmp_path / "out"
        assert cli_main(["gem-efficiency-sweep", "--config", str(cfg),
                         "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().strip().splitlines()
        listed = {line.split(maxsplit=1)[1] for line in manifest}
        actual = {p.name for p in out.iterdir() if p.name != "manifest.txt"}
        assert listed == actual  # exactly the files written, no orphans

    def test_out_that_is_an_existing_file_exits_2_without_numpy(self, tmp_path):
        cfg, out = tmp_path / "gem.ini", tmp_path / "taken"
        cfg.write_text(GOOD_GEM)
        out.write_text("not a directory\n")
        argv = ["gem-efficiency-sweep", "--config", str(cfg), "--out", str(out)]
        code = (f"import sys; from pfl.cli import main; code = main({argv!r}); "
                "print('exit', code, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "exit 2 False", proc.stderr
        assert proc.stderr == f"config error: output directory {out} is an existing file\n"
        assert out.read_text() == "not a directory\n"

    def test_out_under_an_existing_file_exits_2_without_numpy(self, tmp_path):
        cfg, taken = tmp_path / "gem.ini", tmp_path / "taken"
        cfg.write_text(GOOD_GEM)
        taken.write_text("not a directory\n")
        out = taken / "runs" / "gem"
        argv = ["gem-efficiency-sweep", "--config", str(cfg), "--out", str(out)]
        code = (f"import sys; from pfl.cli import main; code = main({argv!r}); "
                "print('exit', code, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "exit 2 False", proc.stderr
        assert proc.stderr == (f"config error: output directory {out} lies under {taken}, "
                               f"which is an existing file\n")
        assert taken.read_text() == "not a directory\n"

    def test_pfl_out_env_used(self, tmp_path, monkeypatch):
        cfg = tmp_path / "gem.ini"
        cfg.write_text(GOOD_GEM)
        monkeypatch.setenv("PFL_OUT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        assert cli_main(["gem-efficiency-sweep", "--config", str(cfg)]) == 0
        assert (tmp_path / "root" / "gem-efficiency-sweep" / "manifest.txt").exists()

    def test_seed_override_changes_outputs(self, tmp_path):
        cfg = tmp_path / "prop.ini"
        cfg.write_text(GOOD_PROPAGATE.replace("kind = plane", "kind = speckle")
                       .replace("intensity = 100.0",
                                "intensity = 100.0\ncorrelation_length = 6e-5"))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert cli_main(["propagate", "--config", str(cfg), "--out", str(out1)]) == 0
        assert cli_main(["propagate", "--config", str(cfg), "--out", str(out2),
                         "--seed", "777"]) == 0
        assert (out1 / "final.pfl1").read_bytes() != (out2 / "final.pfl1").read_bytes()

    def test_reproducibility_byte_identical(self, tmp_path):
        cfg = tmp_path / "prop.ini"
        cfg.write_text(GOOD_PROPAGATE.replace("kind = plane", "kind = speckle")
                       .replace("intensity = 100.0",
                                "intensity = 100.0\ncorrelation_length = 6e-5"))
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert cli_main(["propagate", "--config", str(cfg),
                             "--out", str(out)]) == 0
            outs.append(out)
        # every file of the run directory, manifest.txt and metrics.txt included
        names = sorted(p.name for p in outs[0].iterdir())
        assert names == sorted(p.name for p in outs[1].iterdir())
        assert {"manifest.txt", "metrics.txt", "power.csv", "final.pfl1"} <= set(names)
        for fname in names:
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_console_entry_point(self, tmp_path):
        cfg = tmp_path / "gem.ini"
        cfg.write_text(GOOD_GEM)
        env = dict(os.environ, PFL_OUT=str(tmp_path))
        proc = subprocess.run(
            [sys.executable, "-m", "pfl.cli", "validate", "--config", str(cfg)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert "ok" in proc.stdout

    # the pfl modules that only some scenarios run, by scenario; the scenarios
    # module imports the rest for every run, and potentials only with a
    # [potential] section
    OWN_MODULES = {"propagate": set(), "dispersion": {"dispersion"},
                   "sound-scaling": {"dispersion"}, "precondensation": {"stats"},
                   "structure-factor": {"stats"}, "vortices": {"hydro"}, "gem": {"gem"},
                   "gem-efficiency-sweep": {"gem"}}

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
    def test_each_run_loads_only_its_scenarios_modules(self, config, shipped_runs):
        # a process per config that loaded only what every run loads, so
        # that nothing another run imported counts: no numpy.ma (np.unique
        # and np.union1d load it), no scipy, and of the scenario modules
        # exactly its own
        text = config.read_text()
        scenario = re.search(r"^scenario = (\S+)", text, re.M).group(1)
        run = shipped_runs[config.stem]
        assert [m for m in run.modules if m.partition(".")[0] != "pfl"] == []
        scenario_modules = {"dispersion", "stats", "hydro", "gem", "potentials"}
        own = self.OWN_MODULES[scenario] | ({"potentials"} if "[potential]" in text else set())
        assert {m for m in scenario_modules if f"pfl.{m}" in run.modules} == own

    def test_validate_and_version_load_neither_numpy_nor_scipy(self, tmp_path):
        # the CLI imports the scenarios only to run one, and the package
        # exports resolve on first access, so these commands touch no array;
        # nor does a range error, nor do the benchmark's workload INIs, whose
        # validation setup_s times and each of which validates as its
        # workload's scenario and seed. A config a rule refuses is a row of
        # test_each_rule_is_the_builders_and_exits_2, which checks it
        # without numpy
        bad = tmp_path / "bad.ini"
        bad.write_text(swap(PROPAGATE_GAUSSIAN, "n0 = 1.0", "n0 = -1.0"))
        scenarios = {"beam-512": "propagate", "sf-ensemble-64": "structure-factor",
                     "bogoliubov-256": "dispersion"}
        inis, oks = [], []
        for name in BENCHMARK_WORKLOADS:
            for seed in range(5):
                inis.append(tmp_path / f"{name}-{seed}.ini")
                inis[-1].write_text(workload_ini(name, seed))
                oks.append(f"ok: scenario {scenarios[name]!r}, seed {seed}")
        commands = ([["validate", "--config", str(c)] for c in CONFIGS + inis + [bad]]
                    + [["version"]])
        code = ("import sys; from pfl.cli import main; "
                f"codes = [main(argv) for argv in {commands!r}]; "
                "print(codes, sorted(m for m in sys.modules "
                "if m.partition('.')[0] in ('numpy', 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert lines[-1] == f"{[0] * (len(CONFIGS) + len(inis)) + [2, 0]} []"
        assert proc.stderr == ("config error: line 17: medium.n0 must lie in (0, inf), "
                               "got -1.0\n")
        assert len(CONFIGS) == 9
        assert all(line.startswith("ok: scenario") for line in lines[:9])
        assert lines[9:9 + len(inis)] == oks

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
    def test_validate_loads_no_numpy_dataclasses_or_inspect(self, config):
        # every record is a typing.NamedTuple, so a process that validates
        # a config loads no dataclasses, nor the inspect it imports, beyond
        # the modules it had before it imported pfl
        code = ("import sys; before = set(sys.modules); from pfl.cli import main; "
                f"code = main(['validate', '--config', {str(config)!r}]); "
                "print('exit', code, sorted({'numpy', 'dataclasses', 'inspect'} "
                "& (set(sys.modules) - before)))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.stdout.splitlines()[-1] == "exit 0 []", proc.stderr

    @pytest.mark.parametrize("argv, message", [
        (["validate", "--config", "x.ini", "--out", "run"], "validate takes no --out"),
        (["validate", "--config", "x.ini", "--jobs", "1", "--seed", "3"],
         "validate takes no --jobs, --seed"),
        (["version", "--config", "x.ini"], "version takes no --config"),
        (["validate"], "the following arguments are required: --config"),
        (["gem", "--out", "run"], "the following arguments are required: --config"),
        (["warp", "--config", "x.ini"], "argument command: invalid choice: 'warp'"),
    ], ids=["validate-out", "validate-jobs-seed", "version-config", "validate-no-config",
            "run-no-config", "unknown-command"])
    def test_an_option_its_command_does_not_take_exits_2(self, argv, message, capsys):
        # one parser takes every option; main refuses the ones a command
        # does not take, through the parser, before any config is read
        with pytest.raises(SystemExit) as exited:
            cli_main(argv)
        assert exited.value.code == 2
        assert f"pfl: error: {message}" in capsys.readouterr().err

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exited:
            cli_main(["--help"])
        assert exited.value.code == 0
        assert "{" + ",".join(["version", "validate", *SCENARIOS]) + "}" in capsys.readouterr().out

    def test_shipped_dispersion_config_runs(self, shipped_runs):
        # one stacked propagation of one line per probe: the background is
        # not propagated
        run = shipped_runs["bogoliubov_dispersion"]
        assert run.warnings == []  # no resolution or boundary warning
        k_perp_list = parse_config(DISPERSION).params["k_perp_list"]
        assert [len(members) for members in run.propagates] == [len(k_perp_list)] == [5]
        fit = dict(line.split(" = ") for line in (run.out / "fit.txt").read_text().splitlines())
        assert float(fit["c_s"]) == pytest.approx(0.0124, rel=0.05)

    def test_a_zero_k_probe_reads_the_sound_speed(self, tmp_path):
        # k_perp = 0 joins the shipped sweep: its modes are read like every
        # other probe's, and the fit stays on sqrt(dn_nl / n0) (0.012416
        # measured against 0.012414, and 0.01239 at k_perp = 0)
        from pfl.medium import fluid_scales, intensity_to_density
        from pfl.scenarios import build_grid, build_medium
        config = tmp_path / "k0.ini"
        config.write_text(swap(DISPERSION, "k_perp_list = 20000", "k_perp_list = 0, 20000"))
        out = tmp_path / "out"
        assert cli_main(["dispersion", "--config", str(config), "--out", str(out)]) == 0
        cfg = parse_config(config.read_text())
        medium = build_medium(cfg, build_grid(cfg))
        *_, c_s = fluid_scales(medium, intensity_to_density(cfg.source["intensity"], medium.n0))
        fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
        assert float(fit["c_s"]) == pytest.approx(c_s, rel=0.03)
        k_perp, v_g, _ = (out / "dispersion.csv").read_text().splitlines()[1].split(",")
        assert float(k_perp) == 0.0 and float(v_g) == pytest.approx(c_s, rel=0.03)

    def test_shipped_sound_scaling_config_runs(self, shipped_runs):
        # criterion 06's set-up: c_s grows as the square root of the density
        run = shipped_runs["sound_scaling"]
        assert run.warnings == []  # no resolution or boundary warning
        fit = dict(line.split(" = ") for line in (run.out / "fit.txt").read_text().splitlines())
        assert float(fit["exponent"]) == pytest.approx(0.50, abs=0.05)

    def test_shipped_gem_config_recalls_last_in_first_out(self, shipped_runs):
        run = shipped_runs["gem"]
        assert (run.out / "ordering.txt").read_text() == "mode = FILO\norder = B,A\n"
        assert (run.out / "polarization.pgm").exists()  # pgm = true: one run for both

    def test_shipped_fifo_config_recalls_in_input_order(self, shipped_runs):
        run = shipped_runs["fifo_filo"]
        assert (run.out / "ordering.txt").read_text() == "mode = FIFO\norder = A,B\n"
        peaks = [float(line.split(",")[0])
                 for line in (run.out / "peaks.csv").read_text().splitlines()[1:]]
        # echoes of pulses stored at 1 and 2 land at t_p + 2 (5.5 - 3.0)
        assert peaks == pytest.approx([6.0, 7.0], abs=0.1)

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
    def test_shipped_config_validates(self, config, capsys):
        assert cli_main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("ok: scenario")

    def test_configs_are_shipped(self):
        assert len(CONFIGS) >= 3
