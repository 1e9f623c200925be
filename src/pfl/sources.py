"""Initial-condition builders: beams, speckle and phase imprints.

All builders are pure functions of their arguments (plus an explicit seed
where randomness is involved) and return new Field2D instances.
"""

from __future__ import annotations

import warnings

import numpy as np

from . import rules
from .grid import Field2D, Grid, ifft2
from .medium import intensity_to_density


def gaussian_beam(grid: Grid, waist: float, power: float, n0: float) -> Field2D:
    """Gaussian beam E = E_peak * exp(-r^2 / w0^2) centered on the grid.

    E_peak is the closed-form value 'sqrt(4 P / (n0 c eps0 pi w0^2))' that
    makes the continuous power integral of I = (1/2) n0 c eps0 |E|^2 equal
    to P; on a grid that resolves and contains the waist the discrete
    integral agrees to better than 0.1%.
    """
    if power < 0:
        raise ValueError(f"power must be non-negative, got {power}")
    rules.waist(waist, grid)
    if 4.0 * waist > 0.5 * min(grid.extent_x, grid.extent_y):
        warnings.warn(f"beam waist {waist} is within 4 waists of the boundary; "
                      "periodic images may overlap the beam", stacklevel=2)
    xx, yy = grid.meshgrid()
    envelope = np.exp(-(xx**2 + yy**2) / waist**2)
    # continuous integral of exp(-2 r^2 / w^2) is pi w^2 / 2
    peak_intensity = 2.0 * power / (np.pi * waist**2)
    e_peak = np.sqrt(intensity_to_density(peak_intensity, n0))
    values = (e_peak * envelope).astype(np.complex128)
    return Field2D(grid=grid, values=values).validate_finite()


def plane_wave(grid: Grid, intensity: float, n0: float) -> Field2D:
    """Spatially constant field with zero phase and the given intensity."""
    if intensity < 0:
        raise ValueError(f"intensity must be non-negative, got {intensity}")
    amplitude = np.sqrt(intensity_to_density(intensity, n0))
    values = np.full((grid.ny, grid.nx), amplitude, dtype=np.complex128)
    return Field2D(grid=grid, values=values)


def speckle(grid: Grid, correlation_length: float, mean_intensity: float,
            seed: int, n0: float) -> Field2D:
    """Fully developed speckle: a complex Gaussian random field.

    The mean angular spectrum is Gaussian, exp(-k^2 lc^2 / 2), whose 1/e^2
    radius is 2 / correlation_length. Amplitudes are normalized so the
    ensemble-mean intensity equals mean_intensity exactly; individual
    realizations fluctuate around it. Same seed, same field, bit for bit.
    """
    rules.resolved(correlation_length, grid, "correlation_length")
    if mean_intensity < 0:
        raise ValueError(f"mean_intensity must be non-negative, got {mean_intensity}")
    rng = np.random.default_rng(seed)
    k2 = grid.k_squared()
    root_spectrum = np.exp(-k2 * correlation_length**2 / 4.0)  # sqrt of exp(-k^2 lc^2/2)
    noise = rng.standard_normal((grid.ny, grid.nx)) + 1j * rng.standard_normal((grid.ny, grid.nx))
    modes = root_spectrum * noise / np.sqrt(2.0)  # unit variance per mode before shaping
    values = ifft2(modes)
    # ensemble mean |E|^2 per sample is sum(S) / N under the unitary transform
    mean_density_raw = float(np.sum(root_spectrum**2)) / (grid.nx * grid.ny)
    target_density = intensity_to_density(mean_intensity, n0)
    if target_density == 0.0:
        values = np.zeros_like(values)
    else:
        values = values * np.sqrt(target_density / mean_density_raw)
    return Field2D(grid=grid, values=values).validate_finite()


def imprint_vortex(field: Field2D, charge: int, center: tuple[float, float] = (0.0, 0.0),
                   core_width: float | None = None) -> Field2D:
    """Multiply by exp(i q theta) and a tanh core of the given width.

    core_width defaults to 4*dx; pass the healing length when one is known.
    """
    grid = field.grid
    x0, y0 = center
    rules.vortex(charge, x0, y0, grid)
    if core_width is None:
        core_width = 4.0 * grid.dx
    xx, yy = grid.meshgrid()
    rx, ry = xx - x0, yy - y0
    theta = np.arctan2(ry, rx)
    r = np.hypot(rx, ry)
    factor = np.tanh(r / core_width) * np.exp(1j * charge * theta)
    return field.with_values(field.values * factor).validate_finite()


def imprint_dark_stripe(field: Field2D, position: float = 0.0, angle: float = 0.0,
                        contrast: float = 1.0) -> Field2D:
    """Imprint a gray-soliton stripe: tanh amplitude dip plus a phase step.

    The multiplier along the signed distance s from the stripe line is
    m(s) = sin(phi) - i cos(phi) tanh(s cos(phi) / w) with w = 4 dx and
    phi = pi (1 - contrast) / 2, so the phase step is pi*contrast and the
    on-line density dips to cos^2(pi*contrast/2) of the background.
    angle orients the stripe normal in the plane (0 = stripe along y).
    """
    if not 0.0 <= contrast <= 1.0:
        raise ValueError(f"contrast must lie in [0, 1], got {contrast}")
    if not np.any(field.values):
        raise ValueError("cannot imprint a stripe on an identically zero field")
    if contrast == 0.0:
        return field.copy()
    grid = field.grid
    width = 4.0 * grid.dx
    xx, yy = grid.meshgrid()
    s = xx * np.cos(angle) + yy * np.sin(angle) - position
    phi = 0.5 * np.pi * (1.0 - contrast)
    m = np.sin(phi) - 1j * np.cos(phi) * np.tanh(s * np.cos(phi) / width)
    return field.with_values(field.values * m).validate_finite()


def stripe_min_density_factor(contrast: float) -> float:
    """Density at the stripe line relative to the background, as constructed."""
    return float(np.cos(0.5 * np.pi * contrast) ** 2)
