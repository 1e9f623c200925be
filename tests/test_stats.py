import tracemalloc

import numpy as np
import pytest

from pfl import stats
from pfl.grid import Field2D, make_grid
from pfl.sources import plane_wave, speckle
from pfl.stats import coherence_g1, intensity_statistics, structure_factor


class TestIntensityStatistics:
    def test_plane_wave_delta_like(self, small_grid):
        f = plane_wave(small_grid, 120.0, 1.0)
        st = intensity_statistics([f], bins=64)
        assert st.g2 == pytest.approx(1.0, rel=1e-12)
        assert st.mode == pytest.approx(st.mean, rel=0.05)

    def test_speckle_exponential(self):
        g = make_grid(512, 512, 1e-5)
        f = speckle(g, 6e-5, 20.0, seed=31, n0=1.0)
        st = intensity_statistics([f], bins=64)
        assert st.mode == 0.0  # left edge of the most populated bin
        assert st.g2 == pytest.approx(2.0, abs=0.1)

    def test_zero_field_rejected(self, small_grid):
        f = plane_wave(small_grid, 0.0, 1.0)
        with pytest.raises(ValueError):
            intensity_statistics([f], bins=64)


@pytest.mark.parametrize("name, call", [
    ("intensity_statistics", lambda fields: intensity_statistics(fields, bins=64)),
    ("coherence_g1", coherence_g1)], ids=["intensity_statistics", "coherence_g1"])
def test_no_fields_is_a_value_error(name, call):
    with pytest.raises(ValueError, match=f"{name} needs at least one field"):
        call([])


class TestCoherenceG1:
    def test_plane_wave_fully_coherent(self, small_grid):
        f = plane_wave(small_grid, 10.0, 1.0)
        prof = coherence_g1([f], method="rotate_pair")
        assert np.allclose(prof.g1, 1.0, atol=1e-12)

    def test_bounds(self):
        g = make_grid(128, 128, 1e-5)
        f = speckle(g, 8e-5, 5.0, seed=8, n0=1.0)
        for method in ("rotate_pair",):
            prof = coherence_g1([f], method=method)
            assert np.all(prof.g1 >= 0.0) and np.all(prof.g1 <= 1.0)

    def test_speckle_gaussian_decay_rotate_pair(self):
        # analytic transform of the Gaussian angular spectrum:
        # g1(dr) = exp(-dr^2 / (2 lc^2)); an annulus at small separation
        # holds few coherence grains, so several realizations are averaged
        g = make_grid(256, 256, 1e-5)
        lc = 8e-5
        fields = [speckle(g, lc, 5.0, seed=17 + i, n0=1.0) for i in range(16)]
        prof = coherence_g1(fields, method="rotate_pair")
        sel = prof.separation < 3 * lc
        expected = np.exp(-prof.separation[sel] ** 2 / (2 * lc**2))
        assert np.max(np.abs(prof.g1[sel] - expected)) < 0.08

    def test_speckle_gaussian_decay_ensemble(self):
        lc = 8e-5
        for n in (128, 96):  # 96^2 has no power-of-two strides
            g = make_grid(n, n, 1e-5)
            fields = [speckle(g, lc, 5.0, seed=100 + i, n0=1.0) for i in range(24)]
            prof = coherence_g1(fields, method="ensemble")
            sel = prof.separation < 2.5 * lc
            expected = np.exp(-prof.separation[sel] ** 2 / (2 * lc**2))
            assert np.max(np.abs(prof.g1[sel] - expected)) < 0.08

    def test_ensemble_needs_multiple_fields(self, small_grid):
        f = plane_wave(small_grid, 10.0, 1.0)
        with pytest.raises(ValueError, match="at least 2"):
            coherence_g1([f], method="ensemble")

    def test_global_phase_invariance(self):
        g = make_grid(128, 128, 1e-5)
        f = speckle(g, 8e-5, 5.0, seed=9, n0=1.0)
        rotated = f.with_values(f.values * np.exp(1j * 0.77))
        a = coherence_g1([f], method="rotate_pair")
        b = coherence_g1([rotated], method="rotate_pair")
        assert np.allclose(a.g1, b.g1, atol=1e-12)


def test_profiles_take_equal_radial_bins_on_a_non_power_of_two_grid():
    # g1 and S(k) report the centres of nbins equal bins on [0, r_max]
    # (doubled for the mirrored pair); 96^2 has no power-of-two strides
    g = make_grid(96, 96, 1e-5)
    fields = [speckle(g, 4e-5, 5.0, seed=40 + i, n0=1.0) for i in range(3)]

    def centres(r_max, nbins):
        edges = np.linspace(0.0, r_max, nbins + 1)
        return edges[:-1] + 0.5 * np.diff(edges)

    pair = coherence_g1(fields, method="rotate_pair")
    assert np.array_equal(pair.separation, centres(0.5 * g.extent_x / 2.0, 12) * 2.0)
    ensemble = coherence_g1(fields, method="ensemble")
    assert np.array_equal(ensemble.separation, centres(0.5 * (96 * 1e-5), 24))
    _, noisy = _noise_ensembles(3, n=96)
    sf = structure_factor(zip(noisy, noisy[::-1]), grid=g, nbins=12, min_realizations=3)
    assert np.array_equal(sf.k, centres(float(np.max(np.abs(g.kx()))), 12))


def _noise_ensembles(n_real, n=32, eps=1e-3, seed0=0, phase=0.0, lattice=0.0):
    """The grid and the densities of n_real noisy plane waves, on a square
    lattice of period 8 cells whose density peaks at 1 + 2 lattice."""
    g = make_grid(n, n, 1e-5)
    wave = np.cos(2.0 * np.pi * np.arange(n) / 8.0)
    background = np.sqrt(1.0 + lattice * (1.0 + np.outer(wave, wave)))
    out = []
    for i in range(n_real):
        rng = np.random.default_rng(seed0 + i)
        noise = eps * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        out.append(Field2D(grid=g, values=(background + noise) * np.exp(1j * phase)).density())
    return g, out


class TestStructureFactor:
    def test_self_normalization(self):
        g, signal = _noise_ensembles(150, seed0=0)
        _, reference = _noise_ensembles(150, seed0=5000)
        sf = structure_factor(zip(signal, reference), grid=g, nbins=8,
                              min_realizations=100)
        assert np.all(np.abs(sf.s_k - 1.0) < 3.5 * sf.sigma)
        assert np.all(sf.sigma < 0.2)

    def test_identical_ensembles_exactly_one(self):
        g, signal = _noise_ensembles(120)
        sf = structure_factor(zip(signal, signal), grid=g, nbins=8, min_realizations=100)
        assert np.allclose(sf.s_k, 1.0, atol=1e-12)

    def test_too_few_realizations(self):
        g, signal = _noise_ensembles(10)
        with pytest.raises(ValueError, match="realizations"):
            structure_factor(zip(signal, signal), grid=g, nbins=8)

    def test_degenerate_reference_rejected(self):
        g = make_grid(32, 32, 1e-5)
        constant = [np.ones((32, 32)) for _ in range(120)]
        with pytest.raises(ValueError, match="0/0"):
            structure_factor(zip(constant, constant), grid=g, nbins=8, min_realizations=100)

    @pytest.mark.parametrize("lattice", [0.0, 50.0], ids=["noise", "lattice"])
    def test_agrees_with_the_two_pass_formula(self, lattice, monkeypatch):
        # the one-pass sums against the two-pass estimator they replace (the
        # ensemble mean first): on 200 members at 64^2 they agreed within
        # 5e-15 on noise and 1.2e-13 on a lattice of mean density 51, where
        # sums without the first member's shift read sigma 23 times too large
        class TwoPassMoments:
            def __init__(self, first):
                self.members, self.n = [], 0

            def add(self, rho):
                self.members.append(rho)
                self.n += 1

            def spectrum(self):
                d = np.asarray(self.members) - np.mean(self.members, axis=0)
                p = np.abs(stats.fft2(d)) ** 2
                mean = np.mean(p, axis=0)
                return mean, np.maximum(np.mean(p**2, axis=0) - mean**2, 0.0)

        g, signal = _noise_ensembles(200, n=64, eps=1e-3, seed0=0, lattice=lattice)
        _, reference = _noise_ensembles(200, n=64, eps=1e-3, seed0=9000, lattice=lattice)
        one_pass = structure_factor(zip(signal, reference), grid=g, nbins=16)
        monkeypatch.setattr(stats, "_SpectrumMoments", TwoPassMoments)
        two_pass = structure_factor(zip(signal, reference), grid=g, nbins=16)
        assert np.array_equal(one_pass.k, two_pass.k)
        for a, b in ((one_pass.s_k, two_pass.s_k), (one_pass.sigma, two_pass.sigma)):
            assert np.max(np.abs(a - b) / np.abs(b)) < 1e-9

    def test_reads_a_stream_of_pairs_once(self):
        g, signal = _noise_ensembles(120, seed0=0)
        _, reference = _noise_ensembles(120, seed0=7000)
        stream = iter(zip(signal, reference))
        streamed = structure_factor(stream, grid=g, nbins=8)
        assert next(stream, None) is None
        listed = structure_factor(list(zip(signal, reference)), grid=g, nbins=8)
        for a, b in zip((streamed.k, streamed.s_k, streamed.sigma),
                        (listed.k, listed.s_k, listed.sigma)):
            assert np.array_equal(a, b)

    def test_counts_the_realizations_of_the_stream(self):
        g, signal = _noise_ensembles(99)
        with pytest.raises(ValueError, match=r"need at least 100 realizations per ensemble "
                                             r"\(statistical floor\), got 99 signal / 99 "
                                             r"reference$"):
            structure_factor((pair for pair in zip(signal, signal)), grid=g, nbins=8)
        with pytest.raises(ValueError, match="need at least 1 realizations .* got 0 signal"):
            structure_factor(iter(()), grid=g, nbins=8, min_realizations=0)

    @pytest.mark.parametrize("member", [0, 50], ids=["first", "later"])
    def test_checks_the_shape_of_each_pair(self, member):
        g, signal = _noise_ensembles(120)
        reference = list(signal)
        reference[member] = reference[member][:, :-1]
        with pytest.raises(ValueError, match="^signal and reference grids do not match$"):
            structure_factor(zip(signal, reference), grid=g, nbins=8)

    def test_holds_no_copy_of_the_ensembles(self):
        # two ensembles of 200 densities at 64^2 are 6.6 MB; taking them
        # without copies and without stacking peaks below a sixth of that
        rng = np.random.default_rng(8)
        signal = [1.0 + 0.1 * rng.random((64, 64)) for _ in range(200)]
        reference = [1.0 + 0.1 * rng.random((64, 64)) for _ in range(200)]
        g = make_grid(64, 64, 1e-5)
        tracemalloc.start()
        try:
            structure_factor(zip(signal, reference), grid=g, nbins=8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_global_phase_invariance(self):
        g, signal = _noise_ensembles(120, seed0=0)
        _, reference = _noise_ensembles(120, seed0=7000)
        _, rotated = _noise_ensembles(120, seed0=0, phase=1.1)
        a = structure_factor(zip(signal, reference), grid=g, nbins=8, min_realizations=100)
        b = structure_factor(zip(rotated, reference), grid=g, nbins=8, min_realizations=100)
        assert np.allclose(a.s_k, b.s_k, rtol=1e-10)
