"""The PFL1 snapshot header, read without numpy so that `pfl validate` can
check a `file` source. All little-endian: the magic "PFL1", nx, ny (uint64),
dx, dy (float64), unit (uint64, 0: the field in V/m) and z (float64), then
nx*ny interleaved (re, im) float64 pairs, row-major (y rows, x in a row)."""

import os
import struct

HEADER = struct.Struct("<4sQQddQd")  # magic, nx, ny, dx, dy, unit code, z
_GRID = "Grid(nx={}, ny={}, dx={!r}, dy={!r})".format


def read_header(path, grid=None) -> tuple[int, int, float, float, float]:
    """(nx, ny, dx, dy, z) of a PFL1 snapshot of a field in V/m whose file
    holds its header and samples and no more; given a grid (nx, ny, dx, dy),
    the snapshot's must be that one. Raises ValueError otherwise."""
    try:
        with open(path, "rb") as fh:
            header, size = fh.read(HEADER.size), os.fstat(fh.fileno()).st_size
    except OSError as exc:
        raise ValueError(f"{path}: cannot read snapshot: {exc.strerror}") from None
    if header[:4] != b"PFL1":
        raise ValueError(f"{path}: not a PFL1 snapshot (bad magic {header[:4]!r})")
    if len(header) < HEADER.size:
        raise ValueError(f"{path}: truncated snapshot ({len(header)} of 52 header bytes)")
    _, nx, ny, dx, dy, unit_code, z = HEADER.unpack(header)
    if unit_code != 0:
        raise ValueError(f"{path}: unit code {unit_code} is not 0 (a field in V/m)")
    if size != (expected := HEADER.size + nx * ny * 16):
        raise ValueError(f"{path}: truncated snapshot ({size} of {expected} bytes)")
    if grid is not None and (nx, ny, dx, dy) != (grid.nx, grid.ny, grid.dx, grid.dy):
        raise ValueError(f"snapshot {path} grid {_GRID(nx, ny, dx, dy)} does not match the "
                         f"configured grid {_GRID(grid.nx, grid.ny, grid.dx, grid.dy)}")
    return nx, ny, dx, dy, z
