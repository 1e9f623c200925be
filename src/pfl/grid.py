"""Uniform periodic transverse grids and complex scalar fields on them.

Conventions used throughout the package:

* arrays are indexed ``[iy, ix]`` (shape ``(ny, nx)``), x varies along the
  last axis,
* real-space coordinates are centered on the grid, ``x[i] = (i - nx/2) * dx``,
* spectral transforms are unitary (``norm="ortho"``), so Parseval holds to
  machine precision and unitary propagation steps conserve power exactly,
  except the split-step kernel's in-loop passes (``scaled=False``), which
  leave out the scaling and fold 1/(nx ny) into its kinetic factors.
  The module has one transform pair, ``fft2``/``ifft2``, over the last two
  axes. It runs on ``numpy.fft``, one ``fft``/``ifft`` pass per axis longer
  than one sample, axis -2 then axis -1, so a stack of fields transforms in
  one pass per axis and a stack of lines ``(..., 1, nx)`` in one pass along
  x. This module is the only one that runs transforms. With
  ``overwrite_x`` a complex input is transformed in place, also through a
  strided view; otherwise the first pass writes new memory and the others
  run in place on it, so no transform copies a field. The commands that
  run none (``pfl validate``, ``pfl version``) import neither this module
  nor numpy: the package exports resolve on first access and the CLI
  imports the scenarios only to run one.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np


class Grid(NamedTuple):
    """Uniform periodic grid in the transverse (x, y) plane."""

    nx: int
    ny: int
    dx: float
    dy: float

    @property
    def extent_x(self) -> float:
        return self.nx * self.dx

    @property
    def extent_y(self) -> float:
        return self.ny * self.dy

    @property
    def cell_area(self) -> float:
        return self.dx * self.dy

    def x_coords(self) -> np.ndarray:
        return (np.arange(self.nx) - self.nx // 2) * self.dx

    def y_coords(self) -> np.ndarray:
        return (np.arange(self.ny) - self.ny // 2) * self.dy

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        """(xx, yy) coordinate arrays of shape (ny, nx)."""
        return np.meshgrid(self.x_coords(), self.y_coords())

    def kx(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.nx, d=self.dx)

    def ky(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.ny, d=self.dy)

    def k_squared(self) -> np.ndarray:
        """|k|^2 of shape (ny, nx)."""
        return np.add.outer(self.ky() ** 2, self.kx() ** 2)

    @property
    def k_nyquist_x(self) -> float:
        return np.pi / self.dx

    @property
    def k_nyquist_y(self) -> float:
        return np.pi / self.dy


def make_grid(nx: int, ny: int, dx: float, dy: float | None = None) -> Grid:
    """Build a validated Grid. Counts must be even and at least 8."""
    if dy is None:
        dy = dx
    for name, n in (("nx", nx), ("ny", ny)):
        if int(n) != n or n < 8:
            raise ValueError(f"{name} must be an integer >= 8, got {n}")
        if n % 2 != 0:
            raise ValueError(f"{name} must be even, got {n}")
    if dx <= 0 or dy <= 0:
        raise ValueError(f"grid spacings must be positive, got dx={dx}, dy={dy}")
    return Grid(nx=int(nx), ny=int(ny), dx=float(dx), dy=float(dy))


class _Sampled(NamedTuple):
    grid: Grid
    values: np.ndarray


class Field2D(_Sampled):
    """Complex scalar field sampled on a Grid.

    ``values`` has shape (ny, nx), in V/m; construction and _replace take
    it as a complex128 array and check its shape.
    """

    __slots__ = ()

    def __new__(cls, grid: Grid, values: np.ndarray):
        values = np.asarray(values, dtype=np.complex128)
        if values.shape != (grid.ny, grid.nx):
            raise ValueError(
                f"values shape {values.shape} does not match grid "
                f"({grid.ny}, {grid.nx})"
            )
        return super().__new__(cls, grid, values)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    def copy(self) -> "Field2D":
        return self._replace(values=self.values.copy())

    def with_values(self, values: np.ndarray) -> "Field2D":
        """New field on the same grid."""
        return Field2D(grid=self.grid, values=values)

    def density(self) -> np.ndarray:
        return np.abs(self.values) ** 2

    def phase(self) -> np.ndarray:
        return np.angle(self.values)

    def power(self) -> float:
        """Discrete power integral sum(|E|^2) * dx * dy."""
        return float(np.sum(np.abs(self.values) ** 2) * self.grid.cell_area)

    def validate_finite(self) -> "Field2D":
        if not np.all(np.isfinite(self.values)):
            raise FloatingPointError("field contains non-finite samples")
        return self


def _unitary(transform, values: np.ndarray, overwrite_x: bool, scaled: bool) -> np.ndarray:
    """transform (numpy.fft.fft or ifft) with norm="ortho", or without scaling
    (fft's "backward", ifft's "forward") unless scaled, along axis -2 then
    axis -1, skipping an axis of length one. With overwrite_x a complex input
    is overwritten and returned; otherwise the first pass writes new memory."""
    values = np.asarray(values)
    out = values if overwrite_x and np.iscomplexobj(values) else None
    norm = "ortho" if scaled else "backward" if transform is np.fft.fft else "forward"
    for axis in [axis for axis in (-2, -1) if values.shape[axis] > 1] or [-1]:
        out = transform(values if out is None else out, axis=axis, norm=norm, out=out)
    return out


def fft2(values: np.ndarray, overwrite_x: bool = False, scaled: bool = True) -> np.ndarray:
    """Unitary forward transform over the last two axes. With overwrite_x a
    complex values, which the caller must own, is transformed in place; with
    scaled False no pass scales, so fft2 then ifft2 multiplies by nx * ny."""
    return _unitary(np.fft.fft, values, overwrite_x, scaled)


def ifft2(values: np.ndarray, overwrite_x: bool = False, scaled: bool = True) -> np.ndarray:
    """Unitary inverse transform over the last two axes; overwrite_x and
    scaled as for fft2."""
    return _unitary(np.fft.ifft, values, overwrite_x, scaled)
