"""End-to-end runs of every scenario through the config layer, checking the
emitted artifact formats."""

import tracemalloc

import numpy as np
import pytest

from pfl import plans, scenarios
from pfl.config import parse_config
from pfl.fileio import load_field, save_field
from pfl.scenarios import run_scenario
from pfl.solver import propagate

FIELD_SECTIONS = """
[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -3.8e-19
length = 0.002

[plan]
n_steps = 80
snapshot_every = 8
"""


def run(tmp_path, text, subdir="out"):
    cfg = parse_config(text)
    writer = run_scenario(cfg, tmp_path / subdir)
    return cfg, writer, tmp_path / subdir


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def test_propagate_zero_steps_echoes_input(tmp_path):
    text = """
[run]
scenario = propagate
seed = 1

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -1e-20
length = 0.0

[plan]
n_steps = 0

[source]
kind = plane
intensity = 50.0
"""
    cfg, writer, out = run(tmp_path, text)
    f_in, _ = load_field(out / "input.pfl1")
    f_out, _ = load_field(out / "final.pfl1")
    assert np.array_equal(f_in.values, f_out.values)
    assert (out / "manifest.txt").exists()


def test_propagate_accepts_pfl1_input(tmp_path):
    # chain two runs: the second one consumes the first one's final snapshot
    base = """
[run]
scenario = propagate
seed = 1
""" + FIELD_SECTIONS + """
[source]
kind = plane
intensity = 50.0
"""
    cfg, writer, out1 = run(tmp_path, base, "stage1")
    chained = base.replace(
        "kind = plane\nintensity = 50.0",
        f"kind = file\npath = {out1 / 'final.pfl1'}")
    cfg2, writer2, out2 = run(tmp_path, chained, "stage2")
    f1, _ = load_field(out1 / "final.pfl1")
    f2, _ = load_field(out2 / "input.pfl1")
    assert np.array_equal(f1.values, f2.values)


def test_propagate_metrics_format(tmp_path):
    text = """
[run]
scenario = propagate
seed = 1
""" + FIELD_SECTIONS + """
[source]
kind = plane
intensity = 50.0
"""
    cfg, writer, out = run(tmp_path, text)
    metrics = (out / "metrics.txt").read_text().splitlines()
    keys = [line.split(" = ")[0] for line in metrics]
    assert keys == ["n_steps", "dz", "max_phase_per_step"]  # no wall_time: reruns match
    header, rows = read_csv(out / "power.csv")
    assert header == ["z", "power"]
    assert len(rows) == 81


def test_propagate_streams_snapshot_files(tmp_path):
    # each snapshot is written as the step loop hands it over; the files
    # equal save_field of the default record's snapshots, and the field at
    # z = L is written once, as final.pfl1
    text = """
[run]
scenario = propagate
seed = 1
snapshots = true
""" + FIELD_SECTIONS + """
[source]
kind = gaussian
waist = 1.2e-4
power = 1e-3
"""
    with pytest.warns(UserWarning, match="beam waist"):
        cfg, writer, out = run(tmp_path, text)
    grid = scenarios.build_grid(cfg)
    medium = scenarios.build_medium(cfg, grid)
    with pytest.warns(UserWarning, match="beam waist"):
        beam = scenarios.build_source(cfg, grid, medium)
    record = propagate(beam, medium, scenarios.build_plan(cfg))
    assert len(record.snapshots) == 9
    for i, (z, snap) in enumerate(record.snapshots):
        expected = save_field(tmp_path / "expected.pfl1", snap, z).read_bytes()
        assert (out / f"snapshot_{i:04d}.pfl1").read_bytes() == expected
    assert not (out / f"snapshot_{len(record.snapshots):04d}.pfl1").exists()
    final = save_field(tmp_path / "final.pfl1", record.final_field, record.z_final)
    assert (out / "final.pfl1").read_bytes() == final.read_bytes()


def test_propagate_makes_no_snapshot_it_does_not_write(tmp_path, monkeypatch):
    # plan.snapshot_every = 8 with run.snapshots off: the step loop hands
    # out no snapshot, and every file but the manifest is the one a run that
    # writes its snapshots leaves
    text = """
[run]
scenario = propagate
seed = 1
{}""" + FIELD_SECTIONS + """
[source]
kind = plane
intensity = 50.0
"""
    kept = []

    def counting_propagate(field, medium, plan, keep=None):
        def counted(z, snap):
            kept.append(z)
            return keep(z, snap) if keep else snap
        return propagate(field, medium, plan, keep=counted)

    monkeypatch.setattr(scenarios, "propagate", counting_propagate)
    _, _, off = run(tmp_path, text.format(""), "off")
    assert kept == []
    _, _, on = run(tmp_path, text.format("snapshots = true\n"), "on")
    assert len(kept) == 9
    names = sorted(p.name for p in off.iterdir())
    assert names == ["final.pfl1", "input.pfl1", "manifest.txt", "metrics.txt", "power.csv"]
    for name in set(names) - {"manifest.txt"}:
        assert (off / name).read_bytes() == (on / name).read_bytes(), name


def test_padded_propagate_reruns_write_the_same_bytes(tmp_path):
    # at 256^2 the kernel steps rows padded off power-of-two strides, with
    # the transforms in place on strided views; a rerun must not move a byte
    # of the run directory
    text = """
[run]
scenario = propagate
seed = 1
snapshots = true
csv = true
pgm = true

[grid]
nx = 256
ny = 256
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
n2 = -5e-12
alpha = 10.0
length = 0.005

[plan]
n_steps = 20
snapshot_every = 8

[source]
kind = gaussian
waist = 1.5e-4
power = 0.5
"""
    cfg, _, out1 = run(tmp_path, text, "first")
    run_scenario(cfg, tmp_path / "second")
    names = sorted(p.name for p in out1.iterdir())
    assert "snapshot_0001.pfl1" in names and "power.csv" in names
    assert names == sorted(p.name for p in (tmp_path / "second").iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (tmp_path / "second" / name).read_bytes(), name


def test_snapshot_run_holds_no_input_next_to_the_stack(tmp_path):
    # the whole 512^2 run, source and PGM included, with a snapshot at every
    # step: the handler hands its input over to propagate, so the peak is
    # the kernel's padded stack, full kinetic factor, block buffers and one
    # snapshot, 3.40 planes of 16 nx ny bytes. Holding the input next to
    # them, it peaked at 4.40.
    text = """
[run]
scenario = propagate
seed = 1
snapshots = true
pgm = true

[grid]
nx = 512
ny = 512
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
n2 = -5e-12
alpha = 10.0
length = 0.001

[plan]
n_steps = 4
snapshot_every = 1

[source]
kind = gaussian
waist = 1.5e-4
power = 0.5
"""
    cfg = parse_config(text)
    tracemalloc.start()
    try:
        writer = run_scenario(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(p.name.startswith("snapshot_") for p in writer.paths) == 3
    assert peak <= 3.5 * 16 * 512 * 512


def test_dispersion_scenario(tmp_path):
    text = """
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
    # chi3 and intensity give xi = 2 dx and tau = 16
    cfg, writer, out = run(tmp_path, text)
    header, rows = read_csv(out / "dispersion.csv")
    assert header == ["k_perp", "v_g", "omega"]
    assert len(rows) == 5
    omega = [float(r[2]) for r in rows]
    assert all(b >= a - 1e-12 for a, b in zip(omega, omega[1:]))  # non-decreasing
    fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
    assert float(fit["c_s"]) > 0


def test_precondensation_scenario(tmp_path):
    text = """
[run]
scenario = precondensation
seed = 7

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
realizations = 2
"""
    cfg, writer, out = run(tmp_path, text)
    header, rows = read_csv(out / "moments.csv")
    assert header == ["tau", "mode", "g2"]
    assert len(rows) == 2
    assert (out / "pi_hist_tau1.csv").exists()
    assert (out / "g1_tau3.csv").exists()


def test_structure_factor_scenario_reruns_deterministic(tmp_path):
    text = """
[run]
scenario = structure-factor
seed = 3

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
nbins = 8
"""
    cfg, _, out1 = run(tmp_path, text, "first")
    run_scenario(cfg, tmp_path / "second")
    a = (out1 / "structure_factor.csv").read_bytes()
    b = (tmp_path / "second" / "structure_factor.csv").read_bytes()
    assert a == b  # member ordering and seeds fixed by the config
    header, rows = read_csv(out1 / "structure_factor.csv")
    assert header == ["k", "s_k", "sigma"]
    assert all(float(r[1]) > 0 for r in rows)


def test_structure_factor_scenario_independent_of_stack_size(tmp_path, monkeypatch):
    # members run in stacks of BLOCK_SITES lattice sites (plans.member_runs),
    # which also sizes the kick's blocks; one member per stack and eight per
    # stack must write the same bytes
    text = """
[run]
scenario = structure-factor
seed = 5

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
realizations = 20
nbins = 8
"""
    outputs = []
    for members in (1, 8):
        monkeypatch.setattr(plans, "BLOCK_SITES", members * 32 * 32)
        _, _, out = run(tmp_path, text, f"stack{members}")
        outputs.append((out / "structure_factor.csv").read_bytes())
    assert outputs[0] == outputs[1]


def test_structure_factor_scenario_holds_no_member_densities(tmp_path):
    # 200 members at 64^2: their signal and reference densities alone are
    # 13.1 MB. The estimator folds each pair into its moment sums as the
    # member runs arrive, and the run peaked at 5.4 MB (16.8 MB when the
    # densities were kept until the end)
    text = """
[run]
scenario = structure-factor
seed = 1

[grid]
nx = 64
ny = 64
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -7.705476e-05
length = 6.4443e-4

[plan]
n_steps = 18

[source]
kind = plane
intensity = 1.3272e-3

[structure-factor]
realizations = 200
nbins = 24
"""
    cfg = parse_config(text)
    tracemalloc.start()
    try:
        run_scenario(cfg, tmp_path / "out")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_vortices_scenario(tmp_path):
    text = """
[run]
scenario = vortices
seed = 2
pgm = true

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -1e-20
length = 0.001

[plan]
n_steps = 0

[source]
kind = plane
intensity = 100.0

[vortices]
kind = imprint
charges = 1, -1
xs = 1.05e-4, -9.5e-5
ys = 0.5e-5, 0.5e-5
"""
    cfg, writer, out = run(tmp_path, text)
    # no steps: the final field is the imprinted one
    assert (out / "final.pfl1").read_bytes() == (out / "initial.pfl1").read_bytes()
    assert (out / "metrics.txt").exists()
    header, rows = read_csv(out / "vortices.csv")
    assert header == ["x", "y", "charge"]
    charges = sorted(int(r[2]) for r in rows)
    assert charges == [-1, 1]
    assert (out / "density.pgm").exists()
    assert not (out / "density.pgm.scale.txt").exists()  # the scale is in the image's header


def test_vortices_stripe_mode(tmp_path):
    text = """
[run]
scenario = vortices
seed = 2

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -1e-20
length = 0.001

[plan]
n_steps = 20

[source]
kind = plane
intensity = 100.0

[vortices]
kind = stripe
stripe_contrast = 0.8
"""
    cfg, writer, out = run(tmp_path, text)
    assert (out / "vortices.csv").exists()
    assert (out / "final.pfl1").exists()


def test_gem_scenario(tmp_path):
    text = """
[run]
scenario = gem
seed = 1
pgm = true

[gem]
g = 2.0
density = 2.0
eta0 = 20.0
t_extent = 8.0
nz = 64
nt = 1200
flip_times = 3.0
pulse_centers = 1.5
pulse_widths = 0.2
"""
    cfg, writer, out = run(tmp_path, text)
    header, rows = read_csv(out / "output.csv")
    assert header == ["t", "re", "im", "power"]
    assert len(rows) == 1200
    assert (out / "polarization.pgm").exists()
    # the echo shows up after the flip
    t = np.array([float(r[0]) for r in rows])
    p = np.array([float(r[3]) for r in rows])
    assert p[t > 3.5].max() > 0.01 * p.max()


def test_fifo_filo_scenario(tmp_path):
    # a two-pulse gem run with one flip and no coupling windows reads FILO
    text = """
[run]
scenario = gem
seed = 1

[gem]
g = 2.19
density = 2.19
eta0 = 20.0
t_extent = 7.0
nz = 128
nt = 1400
flip_times = 3.0
pulse_centers = 1.0, 2.0
pulse_widths = 0.15, 0.15
pulse_labels = A, B
"""
    cfg, writer, out = run(tmp_path, text)
    header, rows = read_csv(out / "peaks.csv")
    assert header == ["time", "label"]
    assert [r[1] for r in rows] == ["B", "A"]
    assert (out / "ordering.txt").read_text() == "mode = FILO\norder = B,A\n"


def test_gem_sweep_scenario_row_count(tmp_path):
    text = """
[run]
scenario = gem-efficiency-sweep
seed = 1

[gem-efficiency-sweep]
ratios = 0.5, 1.0, 1.5, 2.0, 2.5, 3.0
nz = 64
nt = 800
"""
    cfg, writer, out = run(tmp_path, text)
    header, rows = read_csv(out / "efficiency_sweep.csv")
    assert header == ["ratio", "sigma_theory", "sigma_sim"]
    assert len(rows) == 6
    for r in rows:
        assert float(r[1]) == pytest.approx(float(r[2]), rel=0.1)


def test_sound_scaling_scenario(tmp_path):
    text = """
[run]
scenario = sound-scaling
seed = 1

[grid]
nx = 128
ny = 128
dx = 5e-6

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = -7.890e-12

[sound-scaling]
intensities = 33180, 66360, 165900, 331800
tau = 20
"""
    cfg, writer, out = run(tmp_path, text)
    fit = dict(line.split(" = ") for line in (out / "fit.txt").read_text().splitlines())
    assert float(fit["exponent"]) == pytest.approx(0.5, abs=0.08)
    header, rows = read_csv(out / "sound_scaling.csv")
    assert header == ["density", "c_s"]
    assert len(rows) == 4


def test_every_csv_of_every_shipped_run_is_well_formed(shipped_runs):
    # each CSV's header and its columns are passed to one ArtifactWriter.csv
    # call: every file ends its last row with a newline, every row has a
    # field per header name, and every CSV has a row
    for name, run in shipped_runs.items():
        paths = sorted(run.out.glob("*.csv"))
        assert paths, name  # every run writes CSV files
        for path in paths:
            header, *rows, end = path.read_text().split("\n")
            assert end == "" and rows, f"{name}/{path.name}"
            widths = {len(row.split(",")) for row in rows}
            assert widths == {len(header.split(","))}, f"{name}/{path.name}: {widths}"


def test_each_shipped_propagation_writes_its_trace_once(shipped_runs):
    # metrics.txt holds the record's three key = value lines; the (z, power)
    # trace is power.csv beside it, and no other file repeats its rows
    with_metrics = {name for name, run in shipped_runs.items()
                    if (run.out / "metrics.txt").exists()}
    assert with_metrics == {"propagate_gaussian", "vortex_pair", "beam-512"}
    for name in with_metrics:
        out = shipped_runs[name].out
        metrics = (out / "metrics.txt").read_text().splitlines()
        assert [line.split(" = ")[0] for line in metrics] == [
            "n_steps", "dz", "max_phase_per_step"], name
        header, rows = (out / "power.csv").read_bytes().split(b"\n", 1)
        assert header == b"z,power" and rows.count(b"\n") == int(metrics[0].split(" = ")[1]) + 1
        holding = [p.name for p in out.iterdir() if rows in p.read_bytes()]
        assert holding == ["power.csv"], name


def test_no_shipped_run_writes_two_files_of_the_same_bytes(shipped_runs):
    # manifest.txt lists each file's sha256; no digest appears twice, so the
    # field at z = L is final.pfl1 alone, not also the last snapshot
    for name, run in shipped_runs.items():
        files = {}
        for line in (run.out / "manifest.txt").read_text().splitlines():
            digest, file = line.split("  ")
            files.setdefault(digest, []).append(file)
        assert [names for names in files.values() if len(names) > 1] == [], name


def test_each_shipped_image_holds_its_scale_in_its_header(shipped_runs):
    # P5, one "# max_value = " comment, the size and maxval 65535, then the
    # samples; no .scale.txt sidecar
    images = {name: sorted(run.out.glob("*.pgm")) for name, run in shipped_runs.items()}
    assert {name for name, paths in images.items() if paths} == {
        "propagate_gaussian", "vortex_pair", "gem", "beam-512"}
    for name, paths in images.items():
        assert list(shipped_runs[name].out.glob("*.scale.txt")) == [], name
        for path in paths:
            magic, comment, size, maxval, samples = path.read_bytes().split(b"\n", 4)
            assert (magic, maxval) == (b"P5", b"65535"), path.name
            key, scale = comment.decode("ascii").split(" = ")
            assert key == "# max_value" and float(scale) > 0, path.name
            nx, ny = map(int, size.split(b" "))
            assert len(samples) == 2 * nx * ny, path.name
