import numpy as np
import pytest
from scipy import stats as sps

from pfl.dispersion import ProbeSpec, measure_group_velocity, probe_line
from pfl.grid import fft2, make_grid
from pfl.hydro import circulation, detect_vortices
from pfl.medium import MediumParams, density_to_intensity, intensity_to_density
from pfl.solver import StepPlan
from pfl.sources import (gaussian_beam, imprint_dark_stripe,
                         imprint_vortex, plane_wave, speckle,
                         stripe_min_density_factor)


class TestGaussianBeam:
    def test_discrete_power_matches_closed_form(self):
        # oracle: continuous integral of I = I_pk exp(-2 r^2/w^2) equals P
        g = make_grid(512, 512, 4e-6)
        beam = gaussian_beam(g, 100e-6, 1.0, 1.0)
        assert density_to_intensity(beam.power(), 1.0) == pytest.approx(1.0, rel=1e-3)

    def test_zero_power_gives_zero_field(self):
        g = make_grid(64, 64, 1e-5)
        beam = gaussian_beam(g, 100e-6, 0.0, 1.0)
        assert not np.any(beam.values)

    def test_amplitude_scales_as_sqrt_power(self):
        g = make_grid(64, 64, 1e-5)
        one = gaussian_beam(g, 100e-6, 1.0, 1.0)
        two = gaussian_beam(g, 100e-6, 2.0, 1.0)
        assert np.allclose(two.values, np.sqrt(2.0) * one.values, rtol=1e-14)

    def test_unresolved_waist_rejected(self):
        g = make_grid(64, 64, 1e-5)
        with pytest.raises(ValueError, match="unresolved"):
            gaussian_beam(g, 3e-5, 1.0, 1.0)

    def test_wraparound_waist_rejected(self):
        g = make_grid(64, 64, 1e-5)
        with pytest.raises(ValueError, match="half the grid extent"):
            gaussian_beam(g, 4e-4, 1.0, 1.0)

    def test_boundary_proximity_warns(self):
        g = make_grid(64, 64, 1e-5)
        with pytest.warns(UserWarning, match="4 waists"):
            gaussian_beam(g, 1.2e-4, 1.0, 1.0)


class TestPlaneWave:
    def test_zero_intensity(self, small_grid):
        f = plane_wave(small_grid, 0.0, 1.0)
        assert not np.any(f.values)

    def test_density_from_intensity(self, small_grid):
        intensity = 250.0
        f = plane_wave(small_grid, intensity, 1.45)
        expected = intensity_to_density(intensity, 1.45)
        assert np.allclose(f.density(), expected, rtol=1e-14)
        assert np.all(f.values.imag == 0.0)

    def test_all_power_in_dc_mode(self, small_grid):
        f = plane_wave(small_grid, 100.0, 1.0)
        spec = np.abs(fft2(f.values)) ** 2
        assert spec[0, 0] == pytest.approx(float(np.sum(spec)), rel=1e-12)

    def test_negative_intensity_rejected(self, small_grid):
        with pytest.raises(ValueError):
            plane_wave(small_grid, -1.0, 1.0)


class TestSpeckle:
    def test_determinism(self, small_grid):
        a = speckle(small_grid, 5e-5, 10.0, seed=99)
        b = speckle(small_grid, 5e-5, 10.0, seed=99)
        assert np.array_equal(a.values, b.values)
        c = speckle(small_grid, 5e-5, 10.0, seed=100)
        assert not np.array_equal(a.values, c.values)

    def test_unresolved_correlation_length(self, small_grid):
        with pytest.raises(ValueError, match="unresolved"):
            speckle(small_grid, 1e-5, 10.0, seed=1)

    def test_exponential_intensity_statistics(self):
        # oracle: direct random-phasor sums converge to the same negative
        # exponential P(I) = exp(-I/<I>)/<I> as fully developed speckle
        g = make_grid(512, 512, 1e-5)
        f = speckle(g, 6e-5, 42.0, seed=2024)
        intensity = f.density().ravel()
        intensity /= intensity.mean()

        rng = np.random.default_rng(7)
        n_phasors, n_samples = 64, 20000
        phases = rng.uniform(0.0, 2.0 * np.pi, size=(n_samples, n_phasors))
        phasor_sum = np.exp(1j * phases).sum(axis=1) / np.sqrt(n_phasors)
        oracle = np.abs(phasor_sum) ** 2
        oracle /= oracle.mean()

        ks_analytic = sps.ks_1samp(intensity, sps.expon.cdf).statistic
        ks_oracle = sps.ks_2samp(intensity[::13], oracle).statistic
        assert ks_analytic < 0.02
        assert ks_oracle < 0.02

    def test_ensemble_mean_intensity(self):
        g = make_grid(128, 128, 1e-5)
        target = 30.0
        means = [density_to_intensity(speckle(g, 4e-5, target, seed=s).power(), 1.0)
                 / (g.extent_x * g.extent_y) for s in range(40)]
        assert np.mean(means) == pytest.approx(target, rel=0.02)

    def test_single_mode_limit(self):
        # correlation length = grid extent: nearly all power in the lowest
        # 3x3 spectral block
        g = make_grid(128, 128, 1e-5)
        f = speckle(g, g.extent_x, 5.0, seed=5)
        spec = np.abs(fft2(f.values)) ** 2
        block = spec[np.ix_([0, 1, -1], [0, 1, -1])].sum()
        assert block > 0.99 * spec.sum()


class TestImprintVortex:
    def test_zero_charge_requires_override(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        with pytest.raises(ValueError):
            imprint_vortex(base, 0)

    def test_winding_single_charge(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        v = imprint_vortex(base, +1, center=(5e-5, -3e-5))
        circ = circulation(v, 4, 4, 60, 60)
        assert circ == pytest.approx(2.0 * np.pi, abs=1e-9)

    def test_double_charge_detected(self, small_grid):
        # detector reports plaquette charges of +-1; a |q|=2 core splits
        # into two unit detections whose total winding is exact
        base = plane_wave(small_grid, 10.0, 1.0)
        v = imprint_vortex(base, -2, center=(1.5e-5, 0.5e-5))
        found = detect_vortices(v)
        assert found.total_winding == -2
        assert np.all(np.abs(found.charges) == 1)

    def test_center_outside_grid_rejected(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        with pytest.raises(ValueError, match="outside"):
            imprint_vortex(base, 1, center=(1.0, 0.0))


class TestDarkStripe:
    def test_zero_contrast_identity(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        out = imprint_dark_stripe(base, contrast=0.0)
        assert np.array_equal(out.values, base.values)

    def test_black_stripe(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        out = imprint_dark_stripe(base, position=0.0, angle=0.0, contrast=1.0)
        x = small_grid.x_coords()
        col = np.argmin(np.abs(x))
        assert np.all(out.density()[:, col] < 1e-20)
        phase = out.phase()
        jump = abs(phase[32, col + 8] - phase[32, col - 8])
        assert jump == pytest.approx(np.pi, abs=1e-6)

    @pytest.mark.parametrize("contrast", [0.25, 0.5, 0.8])
    def test_min_density_matches_construction(self, small_grid, contrast):
        # oracle: evaluate the stripe multiplier at its center
        base = plane_wave(small_grid, 10.0, 1.0)
        out = imprint_dark_stripe(base, contrast=contrast)
        background = base.density()[0, 0]
        expected = background * stripe_min_density_factor(contrast)
        assert out.density().min() == pytest.approx(expected, rel=1e-6)

    def test_contrast_out_of_range(self, small_grid):
        base = plane_wave(small_grid, 10.0, 1.0)
        with pytest.raises(ValueError):
            imprint_dark_stripe(base, contrast=1.5)

    def test_zero_field_rejected(self, small_grid):
        base = plane_wave(small_grid, 0.0, 1.0)
        with pytest.raises(ValueError):
            imprint_dark_stripe(base, contrast=0.5)


class TestAddProbe:
    """The weak probe the dispersion measurement adds to its background,
    built as the y-mean line of the probed plane (dispersion.probe_line)."""

    def test_zero_angle_no_phase_ramp(self, small_grid):
        base = plane_wave(small_grid, 100.0, 1.0)
        out = probe_line(base, ProbeSpec(waist=1e-4, k_perp=0.0, power_ratio=1e-4))
        delta = out.values - base.values[0, 0]
        assert np.max(np.abs(delta.imag)) < 1e-12 * np.max(np.abs(delta.real))

    def test_zero_power_identity(self, small_grid):
        base = plane_wave(small_grid, 100.0, 1.0)
        out = probe_line(base, ProbeSpec(waist=1e-4, k_perp=1e4, power_ratio=0.0))
        assert np.array_equal(out.values, base.values[:1])

    def test_spectral_peak_at_probe_wavevector(self):
        # perturbation wavelength 50 um -> k_perp = 2 pi / 50e-6 rad/m
        g = make_grid(256, 256, 5e-6)
        base = plane_wave(g, 100.0, 1.0)
        k_target = 2.0 * np.pi / 50e-6
        assert k_target == pytest.approx(1.2566e5, rel=1e-4)
        out = probe_line(base, ProbeSpec(waist=1.5e-4, k_perp=k_target, power_ratio=1e-3))
        delta_spec = np.abs(np.fft.fft(out.values[0] - base.values[0, 0])) ** 2
        dk = 2 * np.pi / g.extent_x
        assert g.kx()[np.argmax(delta_spec)] == pytest.approx(k_target, abs=dk)

    def test_aliasing_rejected(self, small_grid):
        # |k_perp| at or past the x Nyquist wavevector, on either side
        medium = MediumParams(wavelength=780e-9, n0=1.0, chi3=-1e-20, length=0.01)
        plan = StepPlan(n_steps=10, snapshot_every=2)
        for k_perp in (small_grid.k_nyquist_x, -small_grid.k_nyquist_x,
                       -1.5 * small_grid.k_nyquist_x):
            probe = ProbeSpec(waist=1e-4, k_perp=k_perp)
            with pytest.raises(ValueError, match="Nyquist"):
                measure_group_velocity(plane_wave(small_grid, 1.0, 1.0), probe, medium, plan)
