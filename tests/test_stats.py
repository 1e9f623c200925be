import tracemalloc

import numpy as np
import pytest

from pfl import stats
from pfl.grid import Field2D, make_grid
from pfl.sources import plane_wave, speckle
from pfl.stats import coherence_g1, intensity_statistics, structure_factor

from conftest import WAVELENGTH


class TestIntensityStatistics:
    def test_plane_wave_delta_like(self, small_grid):
        f = plane_wave(small_grid, 120.0, 1.0, WAVELENGTH)
        st = intensity_statistics(f)
        assert st.g2 == pytest.approx(1.0, rel=1e-12)
        assert st.mode == pytest.approx(st.mean, rel=0.05)

    def test_speckle_exponential(self):
        g = make_grid(512, 512, 1e-5)
        f = speckle(g, 6e-5, 20.0, seed=31)
        st = intensity_statistics(f)
        assert st.mode == 0.0  # left edge of the most populated bin
        assert st.g2 == pytest.approx(2.0, abs=0.1)

    def test_zero_field_rejected(self, small_grid):
        f = plane_wave(small_grid, 0.0, 1.0, WAVELENGTH)
        with pytest.raises(ValueError):
            intensity_statistics(f)

    def test_accepts_plain_arrays_and_lists(self):
        rng = np.random.default_rng(0)
        a = rng.exponential(1.0, size=(64, 64))
        st = intensity_statistics([a, a])
        assert st.g2 == pytest.approx(2.0, abs=0.15)


class TestCoherenceG1:
    def test_plane_wave_fully_coherent(self, small_grid):
        f = plane_wave(small_grid, 10.0, 1.0, WAVELENGTH)
        prof = coherence_g1(f, method="rotate_pair")
        assert np.allclose(prof.g1, 1.0, atol=1e-12)

    def test_bounds(self):
        g = make_grid(128, 128, 1e-5)
        f = speckle(g, 8e-5, 5.0, seed=8)
        for method in ("rotate_pair",):
            prof = coherence_g1(f, method=method)
            assert np.all(prof.g1 >= 0.0) and np.all(prof.g1 <= 1.0)

    def test_speckle_gaussian_decay_rotate_pair(self):
        # analytic transform of the Gaussian angular spectrum:
        # g1(dr) = exp(-dr^2 / (2 lc^2)); an annulus at small separation
        # holds few coherence grains, so several realizations are averaged
        g = make_grid(256, 256, 1e-5)
        lc = 8e-5
        fields = [speckle(g, lc, 5.0, seed=17 + i) for i in range(16)]
        prof = coherence_g1(fields, method="rotate_pair", nbins=24)
        sel = prof.separation < 3 * lc
        expected = np.exp(-prof.separation[sel] ** 2 / (2 * lc**2))
        assert np.max(np.abs(prof.g1[sel] - expected)) < 0.08

    def test_speckle_gaussian_decay_ensemble(self):
        g = make_grid(128, 128, 1e-5)
        lc = 8e-5
        fields = [speckle(g, lc, 5.0, seed=100 + i) for i in range(24)]
        prof = coherence_g1(fields, method="ensemble", nbins=32)
        sel = prof.separation < 2.5 * lc
        expected = np.exp(-prof.separation[sel] ** 2 / (2 * lc**2))
        assert np.max(np.abs(prof.g1[sel] - expected)) < 0.08

    def test_ensemble_needs_multiple_fields(self, small_grid):
        f = plane_wave(small_grid, 10.0, 1.0, WAVELENGTH)
        with pytest.raises(ValueError, match="at least 2"):
            coherence_g1(f, method="ensemble")

    def test_global_phase_invariance(self):
        g = make_grid(128, 128, 1e-5)
        f = speckle(g, 8e-5, 5.0, seed=9)
        rotated = f.with_values(f.values * np.exp(1j * 0.77))
        a = coherence_g1(f, method="rotate_pair")
        b = coherence_g1(rotated, method="rotate_pair")
        assert np.allclose(a.g1, b.g1, atol=1e-12)


def _noise_ensembles(n_real, n=32, eps=1e-3, seed0=0):
    g = make_grid(n, n, 1e-5)
    out = []
    for i in range(n_real):
        rng = np.random.default_rng(seed0 + i)
        noise = eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out.append(Field2D(grid=g, values=1.0 + noise))
    return g, out


class TestStructureFactor:
    def test_self_normalization(self):
        g, signal = _noise_ensembles(150, seed0=0)
        _, reference = _noise_ensembles(150, seed0=5000)
        sf = structure_factor(signal, reference, grid=g, nbins=8,
                              min_realizations=100)
        assert np.all(np.abs(sf.s_k - 1.0) < 3.5 * sf.sigma)
        assert np.all(sf.sigma < 0.2)

    def test_identical_ensembles_exactly_one(self):
        g, signal = _noise_ensembles(120)
        sf = structure_factor(signal, signal, grid=g, nbins=8, min_realizations=100)
        assert np.allclose(sf.s_k, 1.0, atol=1e-12)

    def test_too_few_realizations(self):
        g, signal = _noise_ensembles(10)
        with pytest.raises(ValueError, match="realizations"):
            structure_factor(signal, signal, grid=g)

    def test_degenerate_reference_rejected(self):
        g = make_grid(32, 32, 1e-5)
        constant = [Field2D(grid=g, values=np.ones((32, 32), dtype=complex))
                    for _ in range(120)]
        with pytest.raises(ValueError, match="0/0"):
            structure_factor(constant, constant, grid=g, min_realizations=100)

    def test_matches_stacked_mean_formula(self, monkeypatch):
        # the ensemble mean is a running sum over the members; it must give
        # the bits of np.mean over the stacked ensemble
        def stacked(densities):
            mean_rho = np.mean(densities, axis=0)
            n = len(densities)
            acc = np.zeros_like(mean_rho)
            acc2 = np.zeros_like(mean_rho)
            for rho in densities:
                p = np.abs(stats.fft2(rho - mean_rho)) ** 2
                acc += p
                acc2 += p**2
            mean = acc / n
            return mean, np.maximum(acc2 / n - mean**2, 0.0), n

        g, signal = _noise_ensembles(200, n=64, eps=0.3, seed0=0)
        _, reference = _noise_ensembles(200, n=64, eps=0.3, seed0=9000)
        dens = [f.density() for f in signal]
        assert np.array_equal(stats._fluctuation_spectrum(dens)[0], stacked(dens)[0])
        new = structure_factor(signal, reference, grid=g, nbins=8)
        monkeypatch.setattr(stats, "_fluctuation_spectrum", stacked)
        old = structure_factor(signal, reference, grid=g, nbins=8)
        for a, b in zip((new.k, new.s_k, new.sigma), (old.k, old.s_k, old.sigma)):
            assert np.array_equal(a, b)

    def test_holds_no_copy_of_the_ensembles(self):
        # two ensembles of 200 densities at 64^2 are 6.6 MB; taking them
        # without copies and without stacking peaks below a sixth of that
        rng = np.random.default_rng(8)
        signal = [1.0 + 0.1 * rng.random((64, 64)) for _ in range(200)]
        reference = [1.0 + 0.1 * rng.random((64, 64)) for _ in range(200)]
        tracemalloc.start()
        try:
            structure_factor(signal, reference, nbins=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_global_phase_invariance(self):
        g, signal = _noise_ensembles(120, seed0=0)
        _, reference = _noise_ensembles(120, seed0=7000)
        rotated = [f.with_values(f.values * np.exp(1j * 1.1)) for f in signal]
        a = structure_factor(signal, reference, grid=g, nbins=8, min_realizations=100)
        b = structure_factor(rotated, reference, grid=g, nbins=8, min_realizations=100)
        assert np.allclose(a.s_k, b.s_k, rtol=1e-10)
