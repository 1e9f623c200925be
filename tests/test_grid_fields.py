import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfl.grid import Field2D, fft2, ifft2, make_grid


def test_make_grid_reciprocal_spacing():
    g = make_grid(256, 256, 1e-5, 1e-5)
    assert g.kx()[1] == pytest.approx(2.0 * np.pi / (256 * 1e-5), rel=1e-15)
    assert g.ky()[1] == pytest.approx(2.0 * np.pi / (256 * 1e-5), rel=1e-15)


def test_make_grid_minimal():
    g = make_grid(8, 8, 1.0, 1.0)
    assert (g.nx, g.ny) == (8, 8)


@pytest.mark.parametrize("nx,ny,dx,dy", [
    (7, 8, 1e-5, 1e-5),   # odd
    (8, 9, 1e-5, 1e-5),
    (6, 8, 1e-5, 1e-5),   # too small
    (8, 8, 0.0, 1e-5),    # non-positive spacing
    (8, 8, 1e-5, -1e-5),
])
def test_make_grid_rejects(nx, ny, dx, dy):
    with pytest.raises(ValueError):
        make_grid(nx, ny, dx, dy)


def test_grid_coordinates_centered():
    g = make_grid(16, 16, 0.5)
    x = g.x_coords()
    assert x[8] == 0.0
    assert x[0] == -4.0


def test_field_shape_checked(small_grid):
    with pytest.raises(ValueError):
        Field2D(grid=small_grid, values=np.zeros((8, 8), dtype=complex))


def test_power_is_density_integral(small_grid):
    f = Field2D(grid=small_grid, values=np.full((64, 64), 2.0, dtype=complex))
    assert f.power() == pytest.approx(4.0 * 64 * 64 * 1e-10)


def test_validate_finite_raises(small_grid):
    values = np.zeros((64, 64), dtype=complex)
    values[3, 5] = np.nan
    with pytest.raises(FloatingPointError):
        Field2D(grid=small_grid, values=values).validate_finite()


def test_zero_field(small_grid):
    f = Field2D(grid=small_grid, values=np.zeros((small_grid.ny, small_grid.nx)))
    assert f.power() == 0.0


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_parseval_unitary(seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
    g = make_grid(32, 32, 2e-6)
    f = Field2D(grid=g, values=values)
    real_power = f.power()
    spec_power = float(np.sum(np.abs(fft2(values)) ** 2) * g.cell_area)
    assert spec_power == pytest.approx(real_power, rel=1e-12)
    back = ifft2(fft2(values))
    assert np.allclose(back, values, atol=1e-13)
