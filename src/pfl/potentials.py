"""Builders for the complex index-variation landscape delta_n(r_perp).

The real part of delta_n shifts the linear index (attractive when positive
under the sign convention of the propagation equation); the imaginary part
encodes loss (positive) or gain (negative). pt_symmetrize enforces
delta_n(-x, y) = conj(delta_n(x, y)) exactly, the parity-time symmetric
combination of an even real part and odd imaginary part.
"""

from __future__ import annotations

import numpy as np

from . import rules
from .grid import Grid


def uniform_potential(grid: Grid, value: complex = 0.0) -> np.ndarray:
    """delta_n = value at every sample."""
    return np.full((grid.ny, grid.nx), complex(value), dtype=np.complex128)


def gaussian_defect(grid: Grid, amplitude: complex, width: float,
                    center: tuple[float, float] = (0.0, 0.0)) -> np.ndarray:
    """amplitude * exp(-|r - center|^2 / width^2); the width must span at
    least two cells."""
    rules.resolved(width, grid, "defect width")
    x0, y0 = center
    xx, yy = grid.meshgrid()
    return complex(amplitude) * np.exp(-((xx - x0) ** 2 + (yy - y0) ** 2) / width**2)


def lattice_potential(grid: Grid, amplitude: complex, period: float,
                      orientation: float = 0.0) -> np.ndarray:
    """Triangular/honeycomb intensity pattern of three interfering plane
    waves at 120 degrees; the three wavevectors sum to zero.

    The pattern is |sum_j exp(i q_j . r)|^2 normalized to peak 1, with
    |q_j| = 2*pi / period.
    """
    rules.lattice_period(period, grid)  # the peaks of |sum|^2, at sqrt(3) q
    q = 2.0 * np.pi / period
    xx, yy = grid.meshgrid()
    total = np.zeros((grid.ny, grid.nx), dtype=np.complex128)
    for j in range(3):
        ang = orientation + 2.0 * np.pi * j / 3.0
        total += np.exp(1j * q * (np.cos(ang) * xx + np.sin(ang) * yy))
    return complex(amplitude) * np.abs(total) ** 2 / 9.0


def pt_symmetrize(dn: np.ndarray) -> np.ndarray:
    """Project onto delta_n(-x, y) = conj(delta_n(x, y)) exactly.

    The x -> -x map on centered periodic coordinates is the index
    permutation i -> (nx - i) mod nx, so the projection is exact.
    """
    return 0.5 * (dn + np.conj(mirror_x(dn)))


def mirror_x(values: np.ndarray) -> np.ndarray:
    """Sample values at -x on centered periodic coordinates."""
    return np.roll(values[:, ::-1], 1, axis=1)
