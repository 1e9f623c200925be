"""File formats: PFL1 field snapshots (layout in pfl1), 16-bit PGM dumps, CSV.

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
from .pfl1 import HEADER, read_header


def save_field(path, field: Field2D, z: float = 0.0) -> Path:
    path = Path(path)
    grid = field.grid
    header = HEADER.pack(b"PFL1", grid.nx, grid.ny, grid.dx, grid.dy, 0, float(z))  # unit: V/m
    # "<c16" samples are the interleaved little-endian (re, im) float64 pairs;
    # for a contiguous complex128 field this is the field's own memory
    samples = np.ascontiguousarray(field.values, dtype="<c16")
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(samples.data)
    return path


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


def write_density_pgm(path, array_or_field) -> Path:
    """Write a density map as 16-bit binary PGM, max-scaled per frame, and
    its scale to the sidecar file path + ".scale.txt"."""
    path = Path(path)
    if isinstance(array_or_field, Field2D):
        density = array_or_field.density()
    else:
        density = np.asarray(array_or_field, dtype=float)
    peak = float(np.max(density))
    scale = peak if peak > 0 else 1.0
    ny, nx = density.shape
    header = f"P5\n{nx} {ny}\n65535\n".encode("ascii")
    samples = np.round(density / scale * 65535.0).astype(">u2")
    path.write_bytes(header + samples.tobytes())
    path.with_suffix(path.suffix + ".scale.txt").write_text(
        f"max_value = {fmt(scale)}\nmaxval_code = 65535\n")
    return path


def fmt(x) -> str:
    """Deterministic float formatting for reproducible text outputs."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".17g")


def write_csv(path, header: list[str], rows) -> Path:
    path = Path(path)
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(fmt(v) if not isinstance(v, str) else v for v in row))
    path.write_text("\n".join(lines) + "\n")
    return path


def write_metrics(path, record) -> Path:
    """Per-run metrics: key = value block, then a (z, power) CSV trace."""
    path = Path(path)
    lines = [
        f"n_steps = {record.n_steps}",
        f"dz = {fmt(record.dz)}",
        f"max_phase_per_step = {fmt(record.max_phase_per_step)}",
    ]
    lines.append("")
    lines.append("z,power")
    for z, power in record.power_trace:
        lines.append(f"{fmt(z)},{fmt(power)}")
    path.write_text("\n".join(lines) + "\n")
    return path


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


class ArtifactWriter:
    """Collects every file written into a run directory and emits a manifest
    listing exactly those files with their checksums."""

    def __init__(self, out_dir):
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.paths: list[Path] = []

    def register(self, path) -> Path:
        path = Path(path)
        self.paths.append(path)
        return path

    def path(self, name: str) -> Path:
        return self.register(self.out_dir / name)

    def csv(self, name: str, header: list[str], rows) -> Path:
        return write_csv(self.path(name), header, rows)

    def field(self, name: str, field: Field2D, z: float = 0.0) -> Path:
        return save_field(self.path(name), field, z)

    def pgm(self, name: str, density) -> Path:
        out = write_density_pgm(self.out_dir / name, density)
        self.register(out)
        self.register(out.with_suffix(out.suffix + ".scale.txt"))
        return out

    def metrics(self, name: str, record) -> Path:
        return write_metrics(self.path(name), record)

    def text(self, name: str, content: str) -> Path:
        p = self.path(name)
        p.write_text(content)
        return p

    def write_manifest(self) -> Path:
        manifest = self.out_dir / "manifest.txt"
        lines = []
        for p in sorted(set(self.paths)):
            lines.append(f"{sha256_of(p)}  {p.relative_to(self.out_dir)}")
        manifest.write_text("\n".join(lines) + "\n")
        return manifest
