"""Quantized-vortex detection and phase circulation.

Velocity sign convention: v = +Im(psi* grad psi) / |psi|^2, the probability
current divided by the density. A field carrying a phase ramp exp(i k x)
therefore has v_x = +k, and its density drifts toward +x under propagation
(the Galilean-tilt check pins this down).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field2D

# a plaquette counts only where a corner's density reaches this fraction of the peak
DENSITY_FLOOR = 1e-3


@dataclass
class VortexSet:
    """Quantized vortices found by plaquette winding."""

    positions: np.ndarray  # shape (n, 2), columns (x, y) in meters
    charges: np.ndarray    # shape (n,), each +1 or -1

    @property
    def total_winding(self) -> int:
        return int(np.sum(self.charges))

    def __len__(self) -> int:
        return len(self.charges)


def wrap_phase(delta: np.ndarray) -> np.ndarray:
    """Wrap phase differences into (-pi, pi]."""
    return np.angle(np.exp(1j * delta))


def detect_vortices(field: Field2D) -> VortexSet:
    """Locate quantized vortices as +-2pi plaquette windings of the phase.

    Only interior plaquettes are scanned: the wrap-around seam is excluded
    so that a single imprinted vortex (whose phase is not periodic) is
    recovered with its exact total winding. A plaquette is suppressed only
    when all four of its corners fall below DENSITY_FLOOR times the peak
    density, which keeps cores (whose central sample may be exactly zero)
    detectable; a zero field has no vortex.
    """
    field.validate_finite()
    phase = field.phase()
    density = field.density()
    peak = float(np.max(density))
    grid = field.grid

    dpx = wrap_phase(np.diff(phase, axis=1))          # (ny, nx-1), x-links
    dpy = wrap_phase(np.diff(phase, axis=0))          # (ny-1, nx), y-links
    # counterclockwise circulation around each interior plaquette
    winding = (dpx[:-1, :] + dpy[:, 1:] - dpx[1:, :] - dpy[:, :-1])
    charges_grid = np.rint(winding / (2.0 * np.pi)).astype(int)

    corners_max = np.maximum(np.maximum(density[:-1, :-1], density[:-1, 1:]),
                             np.maximum(density[1:, :-1], density[1:, 1:]))
    charges_grid = np.where(corners_max >= DENSITY_FLOOR * peak, charges_grid, 0)

    iy, ix = np.nonzero(charges_grid)
    x = grid.x_coords()
    y = grid.y_coords()
    positions = np.column_stack([x[ix] + 0.5 * grid.dx, y[iy] + 0.5 * grid.dy])
    charges = charges_grid[iy, ix]
    order = np.lexsort((positions[:, 0], positions[:, 1]))
    return VortexSet(positions=positions[order], charges=charges[order])


def circulation(field: Field2D, ix0: int, iy0: int, ix1: int, iy1: int) -> float:
    """Phase circulation around one rectangular grid loop with corners
    (ix0, iy0) and (ix1, iy1), counterclockwise (see circulation_batch)."""
    return float(circulation_batch(field, [[ix0, iy0, ix1, iy1]])[0])


def circulation_batch(field: Field2D, loops: np.ndarray) -> np.ndarray:
    """Circulations of many rectangular loops, rows (ix0, iy0, ix1, iy1),
    counterclockwise.

    Each is the sum of the wrapped phase differences along the loop edges,
    the lattice form of the line integral of the velocity; closed loops give
    exact integer multiples of 2*pi up to float rounding. Cumulative sums of
    the wrapped link phases make the cost per loop O(1) after an O(N) setup.
    Raises ValueError unless 0 <= ix0 < ix1 < nx and 0 <= iy0 < iy1 < ny.
    """
    ix0, iy0, ix1, iy1 = np.asarray(loops, dtype=int).T
    nx, ny = field.grid.nx, field.grid.ny
    if not (np.all((0 <= ix0) & (ix0 < ix1) & (ix1 < nx))
            and np.all((0 <= iy0) & (iy0 < iy1) & (iy1 < ny))):
        raise ValueError(f"loops need 0 <= ix0 < ix1 < {nx} and 0 <= iy0 < iy1 < {ny}")
    phase = field.phase()
    dpx = wrap_phase(np.diff(phase, axis=1))
    dpy = wrap_phase(np.diff(phase, axis=0))
    # prepend a zero column/row so cum[i] = sum of links with index < i
    cum_x = np.concatenate([np.zeros((ny, 1)), np.cumsum(dpx, axis=1)], axis=1)
    cum_y = np.concatenate([np.zeros((1, nx)), np.cumsum(dpy, axis=0)], axis=0)
    bottom = cum_x[iy0, ix1] - cum_x[iy0, ix0]
    top = cum_x[iy1, ix1] - cum_x[iy1, ix0]
    right = cum_y[iy1, ix1] - cum_y[iy0, ix1]
    left = cum_y[iy1, ix0] - cum_y[iy0, ix0]
    return bottom + right - top - left
