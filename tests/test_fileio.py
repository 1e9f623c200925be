import hashlib
import tracemalloc

import numpy as np
import pytest

from pfl.fileio import ArtifactWriter, fmt, load_field, save_field, write_density_pgm
from pfl.grid import Field2D, make_grid
from pfl.sources import speckle

from conftest import BENCHMARK_WORKLOADS, CONFIGS


def test_pfl1_round_trip(tmp_path):
    g = make_grid(32, 48, 2e-6, 3e-6)
    f = speckle(make_grid(32, 48, 2e-6, 3e-6), 8e-6, 5.0, seed=4, n0=1.0)
    path = tmp_path / "field.pfl1"
    save_field(path, f, z=0.0123)
    loaded, z = load_field(path)
    assert z == 0.0123
    assert loaded.grid == g
    assert np.array_equal(loaded.values, f.values)


def test_pfl1_header_layout(tmp_path):
    g = make_grid(8, 8, 1.0)
    f = Field2D(grid=g, values=np.zeros((8, 8), dtype=complex))
    path = tmp_path / "t.pfl1"
    save_field(path, f, z=2.0)
    raw = path.read_bytes()
    assert raw[:4] == b"PFL1"
    assert int.from_bytes(raw[4:12], "little") == 8    # nx
    assert int.from_bytes(raw[12:20], "little") == 8   # ny
    assert np.frombuffer(raw[20:28], "<f8")[0] == 1.0  # dx
    assert int.from_bytes(raw[36:44], "little") == 0   # unit code: V/m
    assert len(raw) == 52 + 8 * 8 * 16


def test_pfl1_unit_code_other_than_0_rejected(tmp_path):
    # code 1 once tagged a dimensionless field; nothing writes one now
    path = tmp_path / "t.pfl1"
    save_field(path, Field2D(grid=make_grid(8, 8, 1.0), values=np.ones((8, 8))), z=2.0)
    raw = bytearray(path.read_bytes())
    raw[36:44] = (1).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(ValueError, match="unit code 1"):
        load_field(path)


def test_pfl1_round_trip_is_bit_exact(tmp_path):
    # signed zeros, subnormals and non-finite samples come back bit for bit,
    # and the samples on disk are the interleaved little-endian (re, im) pairs
    g = make_grid(8, 8, 1.0)
    special = np.array([0.0, -0.0, 5e-324, -2.2e-310, np.inf, -np.inf, np.nan, 1.0 / 3.0])
    values = np.empty((8, 8), dtype=complex)
    values.real = np.resize(special, (8, 8))
    values.imag = np.resize(special[::-1], (8, 8)).T
    f = Field2D(grid=g, values=values)
    path = save_field(tmp_path / "special.pfl1", f)
    pairs = np.stack([values.real, values.imag], axis=-1).astype("<f8")
    assert path.read_bytes()[52:] == pairs.tobytes()
    loaded, _ = load_field(path)
    assert loaded.values.dtype == np.complex128 and loaded.values.flags.writeable
    assert np.array_equal(loaded.values.view(np.uint64), values.view(np.uint64))


def test_save_field_writes_without_copies(tmp_path):
    # a 512^2 field (4 MB) is written, and hashed, from its own memory by
    # save_field and by ArtifactWriter.field; copying it into interleaved
    # and byte buffers took about 12 MB. A strided field is made contiguous
    # first and reads back the same.
    g = make_grid(512, 512, 1.0)
    rng = np.random.default_rng(3)
    full = rng.standard_normal((512, 1024)) + 1j * rng.standard_normal((512, 1024))
    contiguous = Field2D(grid=g, values=full[:, :512].copy())
    writer = ArtifactWriter(tmp_path / "run")
    for write in (lambda: save_field(tmp_path / "big.pfl1", contiguous),
                  lambda: writer.field("big.pfl1", contiguous)):
        tracemalloc.start()
        try:
            write()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
    assert (tmp_path / "run" / "big.pfl1").read_bytes() == (tmp_path / "big.pfl1").read_bytes()
    for f in (contiguous, Field2D(grid=g, values=full[:, ::2])):
        loaded, _ = load_field(save_field(tmp_path / "big.pfl1", f))
        assert np.array_equal(loaded.values, f.values)


def test_load_field_holds_one_field(tmp_path):
    # a 512^2 snapshot (4.2 MB) is read straight into the field's array;
    # holding the file's bytes as well took about 8.4 MB
    g = make_grid(512, 512, 1.0)
    rng = np.random.default_rng(5)
    f = Field2D(grid=g, values=rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512)))
    path = save_field(tmp_path / "big.pfl1", f)
    tracemalloc.start()
    try:
        loaded, _ = load_field(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5e6
    assert np.array_equal(loaded.values, f.values)


def test_pfl1_bad_magic(tmp_path):
    p = tmp_path / "x.pfl1"
    p.write_bytes(b"NOPE" + b"\x00" * 60)
    with pytest.raises(ValueError, match="magic"):
        load_field(p)


def test_pfl1_truncated(tmp_path):
    g = make_grid(8, 8, 1.0)
    f = Field2D(grid=g, values=np.zeros((8, 8), dtype=complex))
    p = tmp_path / "t.pfl1"
    save_field(p, f)
    p.write_bytes(p.read_bytes()[:-8])
    with pytest.raises(ValueError, match="truncated"):
        load_field(p)


def test_pfl1_with_bytes_past_its_samples_has_the_wrong_size(tmp_path):
    g = make_grid(8, 8, 1.0)
    p = save_field(tmp_path / "long.pfl1", Field2D(grid=g, values=np.zeros((8, 8), complex)))
    p.write_bytes(p.read_bytes() + bytes(16))
    with pytest.raises(ValueError, match=r"wrong snapshot size \(1092 bytes; its header "
                                         r"gives 1076\)$"):
        load_field(p)


def test_pfl1_short_header_is_truncated(tmp_path):
    p = tmp_path / "h.pfl1"
    p.write_bytes(b"PFL1" + b"\x00" * 20)
    with pytest.raises(ValueError, match="truncated"):
        load_field(p)


def test_pgm_format_and_sidecar(tmp_path):
    g = make_grid(16, 8, 1.0)
    values = np.linspace(0, 1, 16 * 8).reshape(8, 16).astype(complex)
    f = Field2D(grid=g, values=values)
    path = write_density_pgm(tmp_path / "rho.pgm", f.density())
    raw = path.read_bytes()
    header, rest = raw.split(b"65535\n", 1)
    assert header == b"P5\n16 8\n"
    samples = np.frombuffer(rest, dtype=">u2").reshape(8, 16)
    assert samples.max() == 65535  # max-scaled per frame
    sidecar = (tmp_path / "rho.pgm.scale.txt").read_text()
    assert "max_value" in sidecar
    peak = float(sidecar.splitlines()[0].split("=")[1])
    assert peak == pytest.approx(float(f.density().max()))


def test_fmt_round_trips_doubles():
    for x in (0.1, 1e-17, np.pi, 1.0 / 3.0, 2.0**-52):
        assert float(fmt(x)) == x
    assert fmt(7) == "7"


def test_write_csv_deterministic(tmp_path):
    columns = (np.array([0.1, np.pi]), np.array([2, 4]))
    p1 = ArtifactWriter(tmp_path / "a").csv("data.csv", ["x", "n"], *columns)
    p2 = ArtifactWriter(tmp_path / "b").csv("data.csv", ["x", "n"], *columns)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_text().splitlines()[0] == "x,n"


def test_a_csv_takes_one_column_per_name_each_as_long(tmp_path):
    w = ArtifactWriter(tmp_path)
    assert w.csv("labels.csv", ["t", "label"], [0.5, 1.0], ["B", "A"]).read_text() == (
        "t,label\n0.5,B\n1,A\n")
    with pytest.raises(ValueError, match=r"1 columns for the 2 names \['t', 'label'\]"):
        w.csv("short.csv", ["t", "label"], [0.5])
    with pytest.raises(ValueError):
        w.csv("ragged.csv", ["t", "label"], [0.5, 1.0], ["B"])


def test_artifact_writer_manifest_exact(tmp_path):
    w = ArtifactWriter(tmp_path / "run")
    w.csv("data.csv", ["a"], [1])
    w.text("note.txt", "hello\n")
    manifest = w.write_manifest()
    lines = manifest.read_text().strip().splitlines()
    names = sorted(line.split(maxsplit=1)[1] for line in lines)
    assert names == ["data.csv", "note.txt"]
    digest, name = lines[0].split(maxsplit=1)
    assert digest == hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest()


def test_manifest_lists_the_bytes_written_and_reads_no_file_back(tmp_path):
    w = ArtifactWriter(tmp_path)
    w.text("kept.txt", "kept\n")
    w.text("changed.txt", "as written\n")
    (tmp_path / "changed.txt").write_text("changed on disk\n")
    assert w.write_manifest().read_text() == "".join(
        f"{hashlib.sha256(content).hexdigest()}  {name}\n"
        for name, content in (("changed.txt", b"as written\n"), ("kept.txt", b"kept\n")))


@pytest.mark.parametrize("name", [*(c.stem for c in CONFIGS), *BENCHMARK_WORKLOADS])
def test_each_manifest_lists_its_run_directory_with_the_digests_on_disk(shipped_runs, name):
    out = shipped_runs[name].out
    lines = (out / "manifest.txt").read_text().splitlines()
    on_disk = sorted(p.name for p in out.iterdir() if p.name != "manifest.txt")
    assert lines == [f"{hashlib.sha256((out / n).read_bytes()).hexdigest()}  {n}"
                     for n in on_disk]
