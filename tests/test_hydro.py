import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfl.grid import Field2D, make_grid
from pfl.hydro import circulation, circulation_batch, detect_vortices, wrap_phase
from pfl.sources import gaussian_beam, imprint_vortex, plane_wave

class TestDetectVortices:
    def test_single_vortex_position(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        center = (7.5e-5, -4.5e-5)
        found = detect_vortices(imprint_vortex(base, +1, center=center))
        assert len(found) == 1
        assert found.charges[0] == 1
        assert abs(found.positions[0, 0] - center[0]) <= small_grid.dx
        assert abs(found.positions[0, 1] - center[1]) <= small_grid.dy

    def test_vortex_antivortex_pair(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        f = imprint_vortex(base, +1, center=(-5.5e-5, 0.5e-5))
        f = imprint_vortex(f, -1, center=(4.5e-5, 0.5e-5))
        found = detect_vortices(f)
        assert len(found) == 2
        assert found.total_winding == 0
        assert sorted(found.charges) == [-1, 1]

    def test_smooth_field_empty(self, small_grid):
        with pytest.warns(UserWarning, match="beam waist"):
            f = gaussian_beam(small_grid, 1e-4, 1.0, 1.0)
        assert len(detect_vortices(f)) == 0

    def test_zero_field_has_no_vortex(self, small_grid):
        zero = Field2D(grid=small_grid, values=np.zeros((64, 64), dtype=np.complex128))
        assert len(detect_vortices(zero)) == 0

    @pytest.mark.parametrize("charge", [-3, -2, -1, 1, 2, 3])
    def test_total_winding_exact(self, charge):
        grid = make_grid(128, 128, 1e-5)
        with pytest.warns(UserWarning, match="beam waist"):
            base = gaussian_beam(grid, 2.4e-4, 1.0, 1.0)
        f = imprint_vortex(base, charge, center=(0.5e-5, 0.5e-5), core_width=3e-5)
        found = detect_vortices(f)
        assert found.total_winding == charge
        assert np.all(np.abs(found.charges) == 1)

    def test_invariance_under_global_phase_and_scale(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        f = imprint_vortex(base, +1, center=(2.5e-5, -1.5e-5))
        ref = detect_vortices(f)
        rotated = f.with_values(2.7 * np.exp(1j * 1.23) * f.values)
        found = detect_vortices(rotated)
        assert found.total_winding == ref.total_winding
        assert np.array_equal(found.positions, ref.positions)


def edge_sum_circulation(field, ix0, iy0, ix1, iy1):
    """Reference: wrapped phase differences summed edge by edge around the
    loop, counterclockwise."""
    phase = field.phase()
    bottom = wrap_phase(np.diff(phase[iy0, ix0:ix1 + 1]))
    right = wrap_phase(np.diff(phase[iy0:iy1 + 1, ix1]))
    top = wrap_phase(np.diff(phase[iy1, ix0:ix1 + 1]))
    left = wrap_phase(np.diff(phase[iy0:iy1 + 1, ix0]))
    return float(bottom.sum() + right.sum() - top.sum() - left.sum())


class TestCirculation:
    def test_vortex_circulation(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        v = imprint_vortex(base, +1, center=(0.5e-5, 0.5e-5))
        circ = circulation(v, 8, 8, 56, 56)
        assert circ == pytest.approx(2 * np.pi, abs=1e-9)

    def test_quantization_random_loops(self):
        grid = make_grid(128, 128, 1e-5)
        base = plane_wave(grid, 10.0, 1.0)
        f = imprint_vortex(base, +1, center=(10.5e-5, 0.5e-5))
        f = imprint_vortex(f, -1, center=(-10.5e-5, 0.5e-5))
        rng = np.random.default_rng(12)
        n_loops = 10_000
        ix0 = rng.integers(1, 100, n_loops)
        iy0 = rng.integers(1, 100, n_loops)
        ix1 = ix0 + rng.integers(4, 26, n_loops)
        iy1 = iy0 + rng.integers(4, 26, n_loops)
        circs = circulation_batch(f, np.column_stack([ix0, iy0, ix1, iy1]))
        windings = circs / (2 * np.pi)
        assert np.max(np.abs(windings - np.rint(windings))) < 1e-6

    def test_batch_matches_single(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        f = imprint_vortex(base, +2, center=(0.5e-5, 0.5e-5))
        loops = np.array([[4, 6, 50, 40], [10, 10, 20, 20]])
        batch = circulation_batch(f, loops)
        singles = [edge_sum_circulation(f, *loop) for loop in loops]
        assert np.allclose(batch, singles, atol=1e-12)
        assert [circulation(f, *loop) for loop in loops] == batch.tolist()

    @pytest.mark.parametrize("loop", [
        (48, 48, 16, 16),   # reversed corners
        (16, 48, 48, 16),   # reversed in y only
        (16, 16, 16, 48),   # zero width
        (-10, 16, 48, 48),  # negative index
        (16, -1, 48, 48),
        (16, 16, 64, 48),   # past the edge
        (16, 16, 48, 64),
    ])
    def test_invalid_loops_rejected(self, small_grid, loop):
        base = plane_wave(small_grid, 10.0, 1.0)
        f = imprint_vortex(base, +1, center=(0.5e-5, 0.5e-5))
        with pytest.raises(ValueError, match="loops need"):
            circulation(f, *loop)
        with pytest.raises(ValueError, match="loops need"):
            circulation_batch(f, np.array([[8, 8, 56, 56], loop]))

    def test_enclosed_charge(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        f = imprint_vortex(base, +1, center=(0.5e-5, 0.5e-5))
        enclosing = circulation(f, 16, 16, 48, 48)
        missing = circulation(f, 40, 40, 60, 60)
        assert enclosing / (2 * np.pi) == pytest.approx(1.0, abs=1e-9)
        assert missing / (2 * np.pi) == pytest.approx(0.0, abs=1e-9)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_circulation_always_quantized(seed):
    # the wrapped-phase line integral around a closed loop is an exact
    # multiple of 2 pi for any field whatsoever
    rng = np.random.default_rng(seed)
    g = make_grid(16, 16, 1.0)
    values = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    f = Field2D(grid=g, values=values)
    c = circulation(f, 1, 2, 13, 11)
    assert abs(c / (2 * np.pi) - round(c / (2 * np.pi))) < 1e-9


@settings(max_examples=25, deadline=None)
@given(delta=st.floats(-50.0, 50.0))
def test_wrap_phase_range(delta):
    w = float(wrap_phase(np.array([delta]))[0])
    assert -np.pi <= w <= np.pi
    assert np.isclose(np.exp(1j * w), np.exp(1j * delta), atol=1e-9)
