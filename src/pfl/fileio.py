"""File formats: PFL1 field snapshots, 16-bit PGM density dumps, CSV.

PFL1 layout (all little-endian): 4-byte magic "PFL1", then six 8-byte
header words nx (uint64), ny (uint64), dx (float64), dy (float64),
unit_tag (uint64: 0 physical, 1 dimensionless), z (float64), followed by
nx*ny interleaved (re, im) float64 pairs, row-major (y rows, x within a
row).

Density dumps are binary PGM (P5) with maxval 65535, scaled so the frame
maximum maps to 65535; the scale is recorded in a sidecar text file next
to the image. Per the netpbm convention the 16-bit samples are big-endian.

CSV floats are written with repr-level precision so equal inputs produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .grid import Field2D, make_grid

PFL1_MAGIC = b"PFL1"
_UNIT_CODES = {"physical": 0, "dimensionless": 1}
_UNIT_NAMES = {v: k for k, v in _UNIT_CODES.items()}


def save_field(path, field: Field2D, z: float = 0.0) -> Path:
    path = Path(path)
    grid = field.grid
    header = PFL1_MAGIC + struct.pack(
        "<QQddQd", grid.nx, grid.ny, grid.dx, grid.dy,
        _UNIT_CODES[field.unit_tag], float(z),
    )
    # "<c16" samples are the interleaved little-endian (re, im) float64 pairs;
    # for a contiguous complex128 field this is the field's own memory
    samples = np.ascontiguousarray(field.values, dtype="<c16")
    with path.open("wb") as fh:
        fh.write(header)
        fh.write(samples.data)
    return path


def load_field(path) -> tuple[Field2D, float]:
    raw = Path(path).read_bytes()
    if raw[:4] != PFL1_MAGIC:
        raise ValueError(f"{path}: not a PFL1 snapshot (bad magic {raw[:4]!r})")
    nx, ny, dx, dy, unit_code, z = struct.unpack("<QQddQd", raw[4:4 + 48])
    if unit_code not in _UNIT_NAMES:
        raise ValueError(f"{path}: unknown unit tag code {unit_code}")
    expected = 4 + 48 + nx * ny * 16
    if len(raw) != expected:
        raise ValueError(f"{path}: truncated snapshot ({len(raw)} of {expected} bytes)")
    values = np.frombuffer(raw, dtype="<c16", offset=52).reshape(ny, nx).astype(np.complex128)
    grid = make_grid(int(nx), int(ny), float(dx), float(dy))
    return Field2D(grid=grid, values=values, unit_tag=_UNIT_NAMES[unit_code]), float(z)


def write_density_pgm(path, array_or_field, sidecar: bool = True) -> Path:
    """Write a density map as 16-bit binary PGM, max-scaled per frame."""
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
    if sidecar:
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


def write_metrics(path, record, extra: dict | None = None) -> Path:
    """Per-run metrics: key = value block, then a (z, power) CSV trace."""
    path = Path(path)
    lines = [
        f"n_steps = {record.n_steps}",
        f"dz = {fmt(record.dz)}",
        f"max_phase_per_step = {fmt(record.max_phase_per_step)}",
        f"wall_time = {fmt(record.wall_time)}",
    ]
    for key, value in (extra or {}).items():
        lines.append(f"{key} = {fmt(value) if not isinstance(value, str) else value}")
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
        out = write_density_pgm(self.out_dir / name, density, sidecar=True)
        self.register(out)
        self.register(out.with_suffix(out.suffix + ".scale.txt"))
        return out

    def metrics(self, name: str, record, extra: dict | None = None) -> Path:
        return write_metrics(self.path(name), record, extra)

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
