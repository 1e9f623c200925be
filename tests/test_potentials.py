import numpy as np
import pytest

from pfl.grid import fft2, make_grid
from pfl.config import ConfigError, parse_config
from pfl.potentials import (gaussian_defect, lattice_potential, mirror_x, pt_symmetrize,
                            uniform_potential)


def test_uniform_zero(small_grid):
    dn = uniform_potential(small_grid, 0.0)
    assert not np.any(dn)


def test_uniform_complex_value(small_grid):
    dn = uniform_potential(small_grid, 1e-4 - 2e-5j)
    assert np.all(dn == 1e-4 - 2e-5j)


def test_gaussian_defect_peak_and_width(small_grid):
    dn = gaussian_defect(small_grid, -3e-4, 8e-5)
    iy, ix = np.unravel_index(np.argmin(dn.real), dn.shape)
    assert small_grid.x_coords()[ix] == 0.0
    assert small_grid.y_coords()[iy] == 0.0
    assert dn.real.min() == pytest.approx(-3e-4)


def test_honeycomb_matches_three_beam_sum(small_grid):
    # oracle: evaluate the interference of three unit plane waves directly
    period = 8e-5
    dn = lattice_potential(small_grid, 2e-4, period)
    q = 2.0 * np.pi / period
    xx, yy = small_grid.meshgrid()
    total = np.zeros_like(xx, dtype=complex)
    for j in range(3):
        ang = 2.0 * np.pi * j / 3.0
        total += np.exp(1j * q * (np.cos(ang) * xx + np.sin(ang) * yy))
    expected = 2e-4 * np.abs(total) ** 2 / 9.0
    assert np.allclose(dn.real, expected, atol=1e-18)
    assert dn.real.max() == pytest.approx(2e-4, rel=1e-9)


def test_honeycomb_sixfold_spectrum():
    g = make_grid(128, 128, 1e-6)
    period = 16e-6
    dn = lattice_potential(g, 1.0, period)
    spec = np.abs(fft2(dn - dn.mean())) ** 2
    kxx, kyy = g.k_meshgrid()
    # six difference-vector peaks of magnitude sqrt(3) q, 60 degrees apart
    q_diff = np.sqrt(3.0) * 2.0 * np.pi / period
    peaks = spec > 0.1 * spec.max()
    kk = np.hypot(kxx, kyy)[peaks]
    angles = np.sort(np.degrees(np.arctan2(kyy, kxx)[peaks]))
    assert len(kk) == 6
    assert np.allclose(kk, q_diff, rtol=0.05)
    assert np.allclose(np.diff(angles), 60.0, atol=2.0)


def test_lattice_unresolved_period(small_grid):
    with pytest.raises(ValueError, match="unresolved"):
        lattice_potential(small_grid, 1.0, 2.5e-5)


POTENTIAL_CONFIG = """
[run]
scenario = propagate

[grid]
nx = 64
ny = 64
dx = 1e-5

[medium]
lambda = 780e-9
n0 = 1.0
chi3 = 0.0
length = 0.01

[plan]
n_steps = 10

[source]
kind = plane
intensity = 1.0

[potential]
"""


def test_unknown_kind():
    with pytest.raises(ConfigError, match="potential.kind must be"):
        parse_config(POTENTIAL_CONFIG + "kind = moat\n")


@pytest.mark.parametrize("kind, key", [("gaussian_defect", "width"), ("lattice", "period")])
def test_kind_needs_its_keys(kind, key):
    with pytest.raises(ConfigError, match=f"potential.{key} is required for kind '{kind}'"):
        parse_config(POTENTIAL_CONFIG + f"kind = {kind}\namplitude_re = 1e-6\n")


def test_pt_symmetry_exact(small_grid):
    # an off-center complex defect is not PT symmetric; the projection is,
    # exactly: dn(-x, y) == conj(dn(x, y)) sample for sample
    dn = pt_symmetrize(gaussian_defect(small_grid, 1e-4 + 5e-5j, 6e-5, center=(8e-5, 0.0)))
    assert np.array_equal(mirror_x(dn), np.conj(dn))
    assert np.any(dn.imag)  # the loss/gain profile survived the projection


def test_pt_symmetrize_is_projection(small_grid):
    rng = np.random.default_rng(3)
    dn = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    once = pt_symmetrize(dn)
    twice = pt_symmetrize(once)
    assert np.allclose(once, twice, atol=1e-15)
    assert np.allclose(mirror_x(once), np.conj(once), atol=1e-15)
