"""The medium's scalar physics, in plain arithmetic without numpy, so that
`pfl validate` derives a fluid's scales with the code the run uses.

Intensity convention: I = (1/2) n0 c eps0 |E|^2. This fixes the bridge
between the chi3 |E|^2 parameterization of the index shift and the n2 I
one: chi3 = n2 * n0^2 * c * eps0. c and eps0 are the CODATA 2022 values,
written here as literals (c is exact); the tests check them against
scipy.constants, whose edition depends on the scipy installed. The
density and intensity conversions take a float or an ndarray.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:
    import numpy as np

C_LIGHT = 299792458.0  # speed of light in vacuum, m/s
EPS0 = 8.8541878188e-12  # vacuum permittivity, F/m


class _Medium(NamedTuple):
    wavelength: float
    n0: float
    chi3: float
    alpha: float = 0.0
    length: float = 0.0
    potential: np.ndarray | None = None
    i_sat: float | None = None


class MediumParams(_Medium):
    """Physical description of the nonlinear slab.

    potential is the complex index variation delta_n(r_perp): the real part
    shifts the linear index, a positive imaginary part is loss, a negative
    one gain. It is an array sampled on the grid, fixed along z, or None;
    the solver's kernel checks its shape. Construction and _replace check
    the scalars.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.wavelength <= 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength}")
        if self.n0 <= 0:
            raise ValueError(f"n0 must be positive, got {self.n0}")
        if self.length < 0:
            raise ValueError(f"length must be non-negative, got {self.length}")
        if self.i_sat is not None and self.i_sat <= 0:
            raise ValueError(f"i_sat must be positive when given, got {self.i_sat}")
        return self
    __new__.__wrapped__ = _Medium.__new__  # so that help() and inspect show the fields

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check there too
        return cls(*iterable)

    @classmethod
    def from_n2(cls, wavelength: float, n0: float, n2: float, **kwargs) -> "MediumParams":
        """Construct from the n2 (m^2/W) parameterization."""
        chi3 = n2 * n0**2 * C_LIGHT * EPS0
        return cls(wavelength=wavelength, n0=n0, chi3=chi3, **kwargs)

    @property
    def k0(self) -> float:
        """Vacuum wavenumber 2*pi / wavelength."""
        return 2.0 * math.pi / self.wavelength

    @property
    def g(self) -> float:
        """Signed interaction coefficient k0 * chi3 / (2 n0), in m^-1 per |E|^2."""
        return self.k0 * self.chi3 / (2.0 * self.n0)

    @property
    def n2(self) -> float:
        return self.chi3 / (self.n0**2 * C_LIGHT * EPS0)

    def with_length(self, length: float) -> "MediumParams":
        return self._replace(length=length)


def fluid_scales(medium: MediumParams, density: float) -> tuple[float, float, float]:
    """(z_nl, xi, c_s) for a homogeneous fluid of density rho = |E|^2, whose
    index shift is |Delta n_NL| = |chi3| rho / (2 n0)."""
    return shift_scales(medium, abs(medium.chi3) * density / (2.0 * medium.n0))


def shift_scales(medium: MediumParams, dn: float) -> tuple[float, float, float]:
    """(z_nl, xi, c_s) for a fluid whose nonlinear index shift is dn:
    z_nl = 1 / (k0 dn), xi = sqrt(z_nl / (n0 k0)) and c_s = sqrt(dn / n0)."""
    if dn <= 0.0:
        return math.inf, math.inf, 0.0
    z_nl = 1.0 / (medium.k0 * dn)
    return z_nl, math.sqrt(z_nl / (medium.n0 * medium.k0)), math.sqrt(dn / medium.n0)


def bogoliubov_omega(k, k0: float, n0: float, dn_nl: float):
    """Axial dispersion Omega(k) = sqrt(E_k (E_k + 2 k0 dn_nl)), E_k = k^2 /
    (2 k0 n0), of excitations on a defocusing fluid whose nonlinear index
    shift is dn_nl >= 0; k a float or an ndarray of floats."""
    e_k = k**2 / (2.0 * k0 * n0)
    return (e_k * (e_k + 2.0 * k0 * dn_nl)) ** 0.5


def intensity_to_density(intensity, n0: float):
    """|E|^2 for a given optical intensity under I = (1/2) n0 c eps0 |E|^2."""
    return 2.0 * intensity / (n0 * C_LIGHT * EPS0)


def density_to_intensity(density, n0: float):
    return 0.5 * n0 * C_LIGHT * EPS0 * density
