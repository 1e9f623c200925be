"""Optical medium parameters for propagation in a Kerr slab.

Intensity convention: I = (1/2) n0 c eps0 |E|^2. This fixes the bridge
between the chi3 |E|^2 parameterization of the index shift and the n2 I
one: chi3 = n2 * n0^2 * c * eps0. c and eps0 are the CODATA 2022 values,
written in `rules` as literals (c is exact); the tests check them against
scipy.constants, whose edition depends on the scipy installed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .rules import C_LIGHT, EPS0

PotentialLike = np.ndarray | Callable[[float], np.ndarray] | None


@dataclass
class MediumParams:
    """Physical description of the nonlinear slab.

    potential is the complex index variation delta_n(r_perp): the real part
    shifts the linear index, a positive imaginary part is loss, a negative
    one gain. It may be a sampled array matching the grid or a callable of z
    returning one (sampled at step midpoints during propagation).
    """

    wavelength: float
    n0: float
    chi3: float
    alpha: float = 0.0
    length: float = 0.0
    potential: PotentialLike = None
    i_sat: float | None = None

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.n0 <= 0:
            raise ValueError(f"n0 must be positive, got {self.n0}")
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.i_sat is not None and self.i_sat <= 0:
            raise ValueError(f"i_sat must be positive when given, got {self.i_sat}")

    @classmethod
    def from_n2(cls, wavelength: float, n0: float, n2: float, **kwargs) -> "MediumParams":
        """Construct from the n2 (m^2/W) parameterization."""
        chi3 = n2 * n0**2 * C_LIGHT * EPS0
        return cls(wavelength=wavelength, n0=n0, chi3=chi3, **kwargs)

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi / wavelength."""
        return 2.0 * np.pi / self.wavelength

    @property
    def k_medium(self) -> float:
        """Wavenumber in the medium n0 * k0 (the effective-mass scale)."""
        return self.n0 * self.k0

    @property
    def g(self) -> float:
        """Signed interaction coefficient k0 * chi3 / (2 n0), in m^-1 per |E|^2."""
        return self.k0 * self.chi3 / (2.0 * self.n0)

    @property
    def n2(self) -> float:
        return self.chi3 / (self.n0**2 * C_LIGHT * EPS0)

    def nonlinear_index_shift(self, density: float) -> float:
        """|Delta n_NL| = |chi3| * rho / (2 n0) for a fluid density rho = |E|^2."""
        return abs(self.chi3) * density / (2.0 * self.n0)

    def potential_at(self, z: float, shape: tuple[int, int]) -> np.ndarray | None:
        """Sampled complex delta_n at axial position z, or None if absent."""
        if self.potential is None:
            return None
        if callable(self.potential):
            dn = np.asarray(self.potential(z), dtype=np.complex128)
        else:
            dn = np.asarray(self.potential, dtype=np.complex128)
        if dn.shape != shape:
            raise ValueError(f"potential shape {dn.shape} does not match grid {shape}")
        return dn

    def with_length(self, length: float) -> "MediumParams":
        return replace(self, length=length)


def intensity_to_density(intensity, n0: float):
    """|E|^2 for a given optical intensity under I = (1/2) n0 c eps0 |E|^2."""
    return 2.0 * np.asarray(intensity, dtype=float) / (n0 * C_LIGHT * EPS0)


def density_to_intensity(density, n0: float):
    return 0.5 * n0 * C_LIGHT * EPS0 * np.asarray(density, dtype=float)
