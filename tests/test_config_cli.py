import importlib.util
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from pfl.cli import main as cli_main
from pfl.config import REQUIRED, SCENARIOS, ConfigError, parse_config, serialize_config

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
CONFIGS = sorted((ROOT / "configs").glob("*.ini"))
VORTEX_PAIR = (ROOT / "configs" / "vortex_pair.ini").read_text()
VORTEX_STRIPE = (VORTEX_PAIR[:VORTEX_PAIR.index("[vortices]")]
                 + "[vortices]\nkind = stripe\nstripe_contrast = 0.8\n")
FIFO_FILO = (ROOT / "configs" / "fifo_filo.ini").read_text()

GOOD_GEM = """
[run]
scenario = gem-efficiency-sweep
seed = 9

[gem-efficiency-sweep]
ratios = 0.5, 1.0
nz = 64
nt = 800
"""


GEM_DEFAULTS = {"g": REQUIRED, "density": REQUIRED, "eta0": REQUIRED, "z_extent": 2.0,
                "nz": 256, "t_extent": REQUIRED, "flip_times": REQUIRED,
                "coupling_windows": (), "pulse_centers": REQUIRED,
                "pulse_widths": REQUIRED}


class TestParsing:
    @pytest.mark.parametrize("scenario, own", [
        ("gem", {"nt": 1600, "decay": 0.0, "pulse_labels": ()}),
        ("fifo-filo", {"nt": 2400, "pulse_labels": ("A", "B")}),
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
        assert parse_config(serialize_config(cfg)) == cfg

    def test_round_trip_is_identity(self):
        cfg = parse_config(GOOD_PROPAGATE)
        text = serialize_config(cfg)
        cfg2 = parse_config(text)
        assert cfg == cfg2
        assert serialize_config(cfg2) == text

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
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2
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
         r"line 5: propagate takes no run.jobs: use --jobs for the FFT worker count"),
        (GOOD_GEM.replace("seed = 9", "seed = 9\nout_dir = runs"),
         r"line 5: gem-efficiency-sweep takes no run.out_dir: use --out or \$PFL_OUT"),
        (VORTEX_PAIR + "evolve = false\n",
         r"line 34: vortices takes no vortices.evolve: set plan.n_steps = 0 for no evolution"),
        (FIFO_FILO.replace("[fifo-filo]\n", "[fifo-filo]\nmode = FIFO\n"),
         r"line 14: fifo-filo takes no fifo-filo.mode: the schedule sets it: one flip"),
    ], ids=["sound-scaling-length", "sound-scaling-plan", "precondensation-length",
            "sound-scaling-source", "structure-factor-snapshot-every",
            "precondensation-snapshot-every", "vortices-snapshot-every",
            "dispersion-snapshots", "dispersion-pgm", "propagate-jobs", "out-dir",
            "vortices-evolve", "fifo-filo-mode"])
    def test_values_the_scenario_sets_are_rejected(self, text, message, tmp_path, capsys):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2
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
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2
        assert "source" in capsys.readouterr().err

    def test_benchmark_workload_inis_parse(self, monkeypatch):
        # the benchmark runs pfl on the INIs perfbench/workloads.py writes;
        # one that stops parsing would fail every benchmark run
        spec = importlib.util.spec_from_file_location(
            "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
        workloads = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, workloads)
        spec.loader.exec_module(workloads)
        for name in ("beam-512", "sf-ensemble-64", "bogoliubov-256"):
            workload = workloads.WORKLOADS[name]
            for seed in range(5):
                cfg = parse_config(workload.inputs(seed).ini)
                assert (cfg.scenario, cfg.run["seed"]) == (workload.scenario, seed)

    @pytest.mark.parametrize("text", [GOOD_SOUND_SCALING, GOOD_PRECONDENSATION],
                             ids=["sound-scaling", "precondensation"])
    def test_round_trip_without_the_values_the_scenario_sets(self, text):
        cfg = parse_config(text)
        assert "length" not in cfg.medium
        assert (cfg.plan is None) == (cfg.scenario == "sound-scaling")
        serialized = serialize_config(cfg)
        assert "\nlength =" not in serialized
        assert ("[plan]" in serialized) == (cfg.plan is not None)
        assert parse_config(serialized) == cfg

    # the schedule sets the mode (FILO: one flip, no coupling windows; FIFO:
    # two flips, at least one window); each case mixes the two. None drops
    # the coupling_windows line, as a FILO config would.
    @pytest.mark.parametrize("flips, windows", [
        ("3.0", "0.0, 3.2, 5.7, 9.0"),
        ("3.0, 5.5", ""),
        ("3.0, 5.5", None),
        ("3.0", "0.0, 3.2"),
    ], ids=["fifo-one-flip", "fifo-no-window", "filo-two-flips", "filo-window"])
    def test_fifo_filo_schedule_must_fit_its_mode(self, flips, windows, tmp_path):
        shipped = next(c for c in CONFIGS if c.name == "fifo_filo.ini").read_text()
        line = "" if windows is None else f"coupling_windows = {windows}\n"
        text = (shipped.replace("flip_times = 3.0, 5.5", f"flip_times = {flips}")
                .replace("coupling_windows = 0.0, 3.2, 5.7, 9.0\n", line))
        assert text != shipped
        with pytest.raises(ConfigError, match=r"fifo-filo needs one flip_times value and "
                                              r"no coupling_windows \(FILO\), or two"):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text, message", [
        (VORTEX_PAIR + "stripe_angle = 1.0\n",
         r"line 34: vortices takes no vortices.stripe_angle for kind 'imprint'"),
        (VORTEX_STRIPE + "charges = 1, -1\n",
         r"line 31: vortices takes no vortices.charges for kind 'stripe'"),
        (VORTEX_PAIR.replace("kind = imprint\n", ""),
         r"vortices needs a \[vortices\] of kind 'imprint' or 'stripe'$"),
    ], ids=["imprint-stripe-key", "stripe-charges", "no-kind"])
    def test_vortices_take_only_the_keys_of_their_kind(self, text, message, tmp_path):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("text", [VORTEX_PAIR, VORTEX_STRIPE], ids=["imprint", "stripe"])
    def test_vortices_round_trip_writes_the_kind_first(self, text):
        cfg = parse_config(text)
        serialized = serialize_config(cfg)
        section = serialized[serialized.index("[vortices]"):].splitlines()
        assert section[1] == f"kind = {cfg.params['kind']}"
        assert parse_config(serialized) == cfg
        assert serialize_config(parse_config(serialized)) == serialized

    # every pulse is simulated: a label list names each pulse or is empty,
    # and the ordering experiment takes exactly two pulses
    @pytest.mark.parametrize("text, message", [
        (FIFO_FILO.replace("pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 2.0, 2.6")
         .replace("pulse_widths = 0.15, 0.15", "pulse_widths = 0.15, 0.15, 0.15"),
         r"fifo-filo needs exactly two pulses, got 3"),
        (FIFO_FILO.replace("pulse_centers = 1.0, 2.0", "pulse_centers = 1.0, 2.0, 2.6")
         .replace("pulse_widths = 0.15, 0.15", "pulse_widths = 0.15, 0.15, 0.15")
         .replace("pulse_labels = A, B", "pulse_labels = A, B, C"),
         r"fifo-filo needs exactly two pulses, got 3"),
        (FIFO_FILO.replace("pulse_labels = A, B", "pulse_labels = A"),
         r"fifo-filo.pulse_labels needs one label per pulse or none"),
        ("[run]\nscenario = gem\n[gem]\ng = 2.0\ndensity = 2.0\neta0 = 20.0\n"
         "t_extent = 8.0\nflip_times = 3.0\npulse_centers = 1.0, 2.0\n"
         "pulse_widths = 0.15, 0.15\npulse_labels = A\n",
         r"gem.pulse_labels needs one label per pulse or none"),
    ], ids=["fifo-filo-three-pulses", "fifo-filo-three-labelled-pulses",
            "fifo-filo-one-label", "gem-one-label"])
    def test_every_pulse_is_simulated(self, text, message, tmp_path):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)
        cfg = tmp_path / "bad.ini"
        cfg.write_text(text)
        assert cli_main(["validate", "--config", str(cfg)]) == 2

    def test_type_errors_are_reported(self, tmp_path):
        shipped = next(c for c in CONFIGS if c.name == "propagate_gaussian.ini").read_text()
        dispersion = GOOD_DISPERSION.replace("20000, 30000", "20000, -inf")
        for text, message in [
            (GOOD_PROPAGATE.replace("n_steps = 20", "n_steps = twenty"), "n_steps"),
            (shipped.replace("dx = 5e-6", "dx = nan"), "line 14: key 'grid.dx': cannot "
                                                       "parse 'nan' as finite float"),
            (shipped.replace("dx = 5e-6", "dx = inf"), "'grid.dx'.*'inf'"),
            (shipped.replace("length = 0.075", "length = nan"), "'medium.length'.*'nan'"),
            (dispersion, "'dispersion.k_perp_list': cannot parse '-inf' as finite float"),
        ]:
            with pytest.raises(ConfigError, match=message):
                parse_config(text)
            cfg = tmp_path / "bad.ini"
            cfg.write_text(text)
            assert cli_main(["validate", "--config", str(cfg)]) == 2


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

    def test_cli_import_defers_heavy_scipy_modules(self, tmp_path):
        # scipy.signal is imported where it is used, so starting the CLI
        # does not pay for it; the dispersion fits are plain numpy, so a
        # whole dispersion run loads neither scipy.stats nor scipy.optimize
        heavy = ("scipy.stats", "scipy.optimize", "scipy.signal")
        code = ("import sys, pfl.cli; "
                f"print(','.join(m for m in {heavy!r} if m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == ""

        cfg = tmp_path / "dispersion.ini"
        cfg.write_text(GOOD_DISPERSION)
        fits = ("scipy.stats", "scipy.optimize")
        code = ("import sys; from pfl.cli import main; "
                f"code = main(['dispersion', '--config', {str(cfg)!r}, "
                f"'--out', {str(tmp_path / 'out')!r}]); "
                f"print('exit', code, [m for m in {fits!r} if m in sys.modules])")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit 0 []"
        assert (tmp_path / "out" / "fit.txt").exists()

        # grid imports scipy.fft on the first transform and the package
        # exports load numpy on first access; validate needs neither
        code = ("import sys; from pfl.cli import main; "
                f"code = main(['validate', '--config', {str(cfg)!r}]); "
                "print('exit', code, 'scipy.fft' in sys.modules, 'numpy' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "exit 0 False False"

    def test_validate_and_version_load_neither_numpy_nor_scipy(self):
        # the CLI imports the scenarios only to run one, and the package
        # exports resolve on first access, so these commands touch no array
        commands = [["validate", "--config", str(c)] for c in CONFIGS] + [["version"]]
        code = ("import sys; from pfl.cli import main; "
                f"codes = [main(argv) for argv in {commands!r}]; "
                "print(codes, sorted(m for m in sys.modules "
                "if m.partition('.')[0] in ('numpy', 'scipy')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == f"{[0] * len(commands)} []"

    def test_shipped_dispersion_config_runs(self, tmp_path, monkeypatch):
        # one stacked propagation of one line per probe: the background is
        # not propagated
        from pfl import dispersion, scenarios
        from pfl.solver import propagate
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return propagate(*args, **kwargs)

        monkeypatch.setattr(dispersion, "propagate", counted)
        monkeypatch.setattr(scenarios, "propagate", counted)
        config = next(c for c in CONFIGS if c.name == "bogoliubov_dispersion.ini")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no resolution or boundary warning
            assert cli_main(["dispersion", "--config", str(config), "--out", str(out)]) == 0
        k_perp_list = parse_config(config.read_text()).params["k_perp_list"]
        assert [len(fields) for fields, *_ in calls] == [len(k_perp_list)] == [5]
        fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
        assert float(fit["c_s"]) == pytest.approx(0.0124, rel=0.05)

    def test_shipped_sound_scaling_config_runs(self, tmp_path):
        # criterion 06's set-up: c_s grows as the square root of the density
        config = next(c for c in CONFIGS if c.name == "sound_scaling.ini")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no resolution or boundary warning
            assert cli_main(["sound-scaling", "--config", str(config), "--out", str(out)]) == 0
        fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
        assert float(fit["exponent"]) == pytest.approx(0.50, abs=0.05)

    def test_shipped_fifo_config_recalls_in_input_order(self, tmp_path):
        config = next(c for c in CONFIGS if c.name == "fifo_filo.ini")
        out = tmp_path / "out"
        assert cli_main(["fifo-filo", "--config", str(config), "--out", str(out)]) == 0
        assert (out / "ordering.txt").read_text() == "mode = FIFO\norder = A,B\n"
        peaks = [float(line.split(",")[0])
                 for line in (out / "peaks.csv").read_text().splitlines()[1:]]
        # echoes of pulses stored at 1 and 2 land at t_p + 2 (5.5 - 3.0)
        assert peaks == pytest.approx([6.0, 7.0], abs=0.1)

    @pytest.mark.parametrize("config", CONFIGS, ids=[c.name for c in CONFIGS])
    def test_shipped_config_validates(self, config, capsys):
        assert cli_main(["validate", "--config", str(config)]) == 0
        assert capsys.readouterr().out.startswith("ok: scenario")

    def test_configs_are_shipped(self):
        assert len(CONFIGS) >= 3
