"""The run directory's one write path and its formats: PFL1 field snapshots
(layout in pfl1), 16-bit PGM dumps, CSV. ArtifactWriter.write hashes each
file's bytes as it writes them, so the manifest reads no file back;
save_field and write_density_pgm write through an ArtifactWriter too.

Density dumps are binary PGM (P5) with maxval 65535, scaled so the frame
maximum maps to 65535; the scale is recorded in a sidecar text file next
to the image. Per the netpbm convention the 16-bit samples are big-endian.

CSV floats are written with repr-level precision so equal inputs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

from .grid import Field2D, make_grid
from .pfl1 import HEADER, pack_header, read_header


def save_field(path, field: Field2D, z: float = 0.0) -> Path:
    """Write a PFL1 snapshot of field at z to path (see ArtifactWriter.field)."""
    return ArtifactWriter(Path(path).parent).field(Path(path).name, field, z)


def load_field(path, grid=None) -> tuple[Field2D, float]:
    """Read a PFL1 snapshot, on grid if one is given (pfl1.read_header), with
    the samples read straight into the field's array: the load holds one field."""
    nx, ny, dx, dy, z = read_header(path, grid)
    samples = np.empty((ny, nx), dtype="<c16")
    with Path(path).open("rb") as fh:
        fh.seek(HEADER.size)
        if fh.readinto(samples) != samples.nbytes:
            raise ValueError(f"{path}: truncated snapshot while reading")
    values = samples.astype(np.complex128, copy=False)
    return Field2D(grid=make_grid(nx, ny, dx, dy), values=values), z


def write_density_pgm(path, density: np.ndarray) -> Path:
    """Write a density array as 16-bit PGM with its sidecar (see ArtifactWriter.pgm)."""
    return ArtifactWriter(Path(path).parent).pgm(Path(path).name, density)


def fmt(x) -> str:
    """Deterministic float formatting for reproducible text outputs."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def _csv_text(header: list[str], columns) -> str:
    """CSV of columns, one per header name; strings are written as they are."""
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for the {len(header)} names {header}")
    rows = (",".join(v if isinstance(v, str) else fmt(v) for v in row)
            for row in zip(*columns, strict=True))
    return "\n".join([",".join(header), *rows]) + "\n"


class ArtifactWriter:
    """Writes every file of a run directory, records the sha256 of the bytes
    of each, and emits a manifest listing exactly those files."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.digests: dict[str, str] = {}  # name: sha256 of the bytes written

    @property
    def paths(self) -> list[Path]:  # in the order first written
        return [self.out_dir / name for name in self.digests]

    def write(self, name: str, *chunks) -> Path:
        """Write the chunks (bytes-like, contiguous) to name in order, feeding
        each to the file's sha256 as it is written; no chunk is copied."""
        path, digest = self.out_dir / name, hashlib.sha256()
        with path.open("wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
                digest.update(chunk)
        self.digests[name] = digest.hexdigest()
        return path

    def csv(self, name: str, header: list[str], *columns) -> Path:
        """CSV of the columns, in the order of header's names."""
        return self.text(name, _csv_text(header, columns))

    def field(self, name: str, field: Field2D, z: float = 0.0) -> Path:
        """A PFL1 snapshot of field at z. The "<c16" samples are the interleaved
        (re, im) pairs: a contiguous complex128 field's own memory."""
        return self.write(name, pack_header(field.grid, z),
                          np.ascontiguousarray(field.values, dtype="<c16"))

    def pgm(self, name: str, density) -> Path:
        """A density array (ny, nx) as 16-bit binary PGM, max-scaled per frame,
        and its scale to the sidecar name + ".scale.txt"."""
        peak = float(np.max(density))
        scale = peak if peak > 0 else 1.0
        ny, nx = density.shape
        path = self.write(name, f"P5\n{nx} {ny}\n65535\n".encode("ascii"),
                          np.round(density / scale * 65535.0).astype(">u2"))
        self.text(name + ".scale.txt", f"max_value = {fmt(scale)}\nmaxval_code = 65535\n")
        return path

    def metrics(self, name: str, record) -> Path:
        """Per-run metrics: key = value block, then a (z, power) CSV trace."""
        return self.text(name, f"n_steps = {record.n_steps}\ndz = {fmt(record.dz)}\n"
                               f"max_phase_per_step = {fmt(record.max_phase_per_step)}\n\n"
                               + _csv_text(["z", "power"], record.power_trace.T))

    def text(self, name: str, content: str) -> Path:
        return self.write(name, content.encode("utf-8"))

    def write_manifest(self) -> Path:
        """manifest.txt: "<sha256>  <name>" for each file written, by name. The
        digests are those recorded as the files were written: no file is read."""
        manifest = self.out_dir / "manifest.txt"
        lines = [f"{self.digests[name]}  {name}" for name in sorted(self.digests)]
        manifest.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))
        return manifest
