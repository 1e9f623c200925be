import tracemalloc

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


def per_axis(transform, values):
    """The transforms' reference: one unitary numpy.fft pass per axis longer
    than one sample, axis -2 before axis -1."""
    for axis in (-2, -1):
        if values.shape[axis] > 1:
            values = transform(values, axis=axis, norm="ortho")
    return values


def transform_inputs():
    """(id, array) cases: square planes, a non-square plane, a stack of lines,
    a (K, S, 1, nx) stack of snapshot lines like the dispersion
    measurement's and a padded view like the solver's, each complex and
    real."""
    rng = np.random.default_rng(11)
    cases = []
    for name, shape in (("64", (64, 64)), ("512", (512, 512)), ("18x10", (18, 10)),
                        ("lines", (3, 1, 128)), ("snapshot-lines", (3, 10, 1, 128)),
                        ("padded", (1, 512, 516))):
        real = rng.standard_normal(shape)
        complex_ = real + 1j * rng.standard_normal(shape)
        for kind, values in (("complex", complex_), ("real", real)):
            if name == "padded":
                values = values[..., :512]
            cases.append(pytest.param(values, id=f"{name}-{kind}"))
    return cases


@pytest.mark.parametrize("values", transform_inputs())
@pytest.mark.parametrize("ours, numpy_transform", [(fft2, np.fft.fft), (ifft2, np.fft.ifft)],
                         ids=["fft2", "ifft2"])
def test_transforms_are_per_axis_numpy_fft(ours, numpy_transform, values):
    before = values.copy()
    out = ours(values)
    expected = per_axis(numpy_transform, values)
    assert out.dtype == np.complex128
    assert np.array_equal(out, expected)  # bit for bit
    assert np.array_equal(values, before)
    power = np.sum(np.abs(values) ** 2)
    assert abs(np.sum(np.abs(out) ** 2) - power) <= 1e-13 * power  # Parseval


@pytest.mark.parametrize("ours", [fft2, ifft2], ids=["fft2", "ifft2"])
def test_overwrite_x_chooses_new_memory_or_in_place(ours):
    rng = np.random.default_rng(5)
    buffer = rng.standard_normal((2, 64, 68)) + 1j * rng.standard_normal((2, 64, 68))
    view = buffer[..., :64]
    before = buffer.copy()
    out = ours(view)
    assert not np.may_share_memory(out, buffer)
    assert np.array_equal(buffer, before)

    out_in_place = ours(view, overwrite_x=True)
    assert np.may_share_memory(out_in_place, buffer)
    assert np.array_equal(buffer[..., :64], out)
    assert np.array_equal(buffer[..., 64:], before[..., 64:])  # the pad is untouched

    real = rng.standard_normal((64, 64))
    real_before = real.copy()
    assert np.array_equal(ours(real, overwrite_x=True), ours(real_before))
    assert np.array_equal(real, real_before)  # a real input cannot hold the result


def test_in_place_pair_allocates_no_field():
    # a 512^2 complex field is 4 MiB; the in-place passes hold a line at a time
    rng = np.random.default_rng(2)
    buffer = rng.standard_normal((1, 512, 516)) + 1j * rng.standard_normal((1, 512, 516))
    view = buffer[..., :512]
    fft2(view, overwrite_x=True)  # warm-up: first calls build the plans
    ifft2(view, overwrite_x=True)
    tracemalloc.start()
    try:
        fft2(view, overwrite_x=True)
        ifft2(view, overwrite_x=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
