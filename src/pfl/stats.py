"""Ensemble statistics: intensity distribution, first-order coherence and
the static structure factor."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import Field2D, Grid, fft2, ifft2


def _as_list(fields) -> list[Field2D]:
    return [fields] if isinstance(fields, Field2D) else list(fields)


@dataclass
class IntensityStatistics:
    """Normalized histogram of per-sample intensity plus its low moments.

    mode is the left edge of the most populated bin, so a fresh speckle
    (exponential distribution) reports a mode of exactly zero while any
    distribution peaked away from zero reports a positive value.
    """

    bin_edges: np.ndarray
    pdf: np.ndarray
    mode: float
    mean: float
    g2: float

    def rows(self):
        centers = 0.5 * (self.bin_edges[:-1] + self.bin_edges[1:])
        return zip(centers, self.pdf)


def intensity_statistics(fields, bins: int = 64) -> IntensityStatistics:
    """Histogram P(I) and normalized second moment g2 = <I^2>/<I>^2 of a
    Field2D or a list of them."""
    samples = np.concatenate([f.density().ravel() for f in _as_list(fields)])
    if samples.size == 0 or not np.any(samples):
        raise ValueError("intensity statistics need a nonzero field")
    mean = float(np.mean(samples))
    g2 = float(np.mean(samples**2) / mean**2)
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, float(np.max(samples))),
                                 density=True)
    mode = float(edges[int(np.argmax(counts))])
    return IntensityStatistics(bin_edges=edges, pdf=counts, mode=mode, mean=mean, g2=g2)


@dataclass
class CoherenceProfile:
    separation: np.ndarray
    g1: np.ndarray

    def rows(self):
        return zip(self.separation, self.g1)


def coherence_g1(fields, method: str = "rotate_pair", nbins: int = 0) -> CoherenceProfile:
    """First-order coherence profile g1(dr).

    rotate_pair mirrors a single field through the grid center and
    correlates it with itself, the numerical analog of interfering a beam
    with its inverted copy: the contrast at radius r measures the coherence
    between points separated by dr = 2 r. ensemble averages
    <psi(r) psi*(r + dr)> over realizations (at least two fields).
    Both profiles are radially binned and normalized to g1 in [0, 1].
    fields is a Field2D or a list of them on one grid.
    """
    fields = _as_list(fields)
    values, grid = [f.values for f in fields], fields[0].grid
    if method == "rotate_pair":
        return _g1_rotate_pair(values, grid, nbins)
    if method == "ensemble":
        if len(values) < 2:
            raise ValueError("the ensemble method needs at least 2 realizations")
        return _g1_ensemble(values, grid, nbins)
    raise ValueError(f"unknown coherence method {method!r}")


def _radial_bins(rr: np.ndarray, nbins: int, r_max: float):
    edges = np.linspace(0.0, r_max, nbins + 1)
    idx = np.clip(np.digitize(rr.ravel(), edges) - 1, 0, nbins - 1)
    return edges, idx


def _g1_rotate_pair(values: list[np.ndarray], grid, nbins: int) -> CoherenceProfile:
    rr = np.hypot(*grid.meshgrid())
    r_max = 0.5 * min(grid.extent_x, grid.extent_y) / 2.0  # stay clear of the corners
    if nbins <= 0:
        nbins = min(grid.nx, grid.ny) // 8
    edges, idx = _radial_bins(rr, nbins, r_max)
    inside = rr.ravel() < r_max

    num = np.zeros(nbins, dtype=np.complex128)
    den = np.zeros(nbins)
    for v in values:
        mirrored = np.roll(np.roll(v[::-1, ::-1], 1, axis=0), 1, axis=1)  # psi(-r)
        prod = (v * np.conj(mirrored)).ravel()[inside]
        dens = (0.5 * (np.abs(v) ** 2 + np.abs(mirrored) ** 2)).ravel()[inside]
        np.add.at(num, idx[inside], prod)
        np.add.at(den, idx[inside], dens)
    good = den > 0
    g1 = np.zeros(nbins)
    g1[good] = np.abs(num[good]) / den[good]
    separations = (edges[:-1] + 0.5 * np.diff(edges)) * 2.0  # dr = 2 r
    return CoherenceProfile(separation=separations[good], g1=np.clip(g1[good], 0.0, 1.0))


def _g1_ensemble(values: list[np.ndarray], grid, nbins: int) -> CoherenceProfile:
    ny, nx, dx, dy = grid.ny, grid.nx, grid.dx, grid.dy
    corr = np.zeros((ny, nx), dtype=np.complex128)
    for v in values:
        spec = fft2(v)
        corr += ifft2(np.abs(spec) ** 2)  # Wiener-Khinchin, unnormalized
    # ifft2(|fft2(v)|^2)[dy, dx] = (1/sqrt(N)) sum_r v(r) v*(r - d) under the
    # unitary convention; normalize so zero separation gives exactly 1
    corr /= corr[0, 0].real
    shifts_x = np.fft.fftfreq(nx) * nx * dx
    shifts_y = np.fft.fftfreq(ny) * ny * dy
    sx, sy = np.meshgrid(shifts_x, shifts_y)
    rr = np.hypot(sx, sy)
    r_max = 0.5 * min(nx * dx, ny * dy)
    if nbins <= 0:
        nbins = min(nx, ny) // 4
    edges, idx = _radial_bins(rr, nbins, r_max)
    inside = rr.ravel() < r_max
    num = np.zeros(nbins, dtype=np.complex128)
    counts = np.zeros(nbins)
    np.add.at(num, idx[inside], corr.ravel()[inside])
    np.add.at(counts, idx[inside], 1.0)
    good = counts > 0
    g1 = np.abs(num[good]) / counts[good]
    separations = (edges[:-1] + 0.5 * np.diff(edges))[good]
    return CoherenceProfile(separation=separations, g1=np.clip(g1, 0.0, 1.0))


@dataclass
class StructureFactor:
    k: np.ndarray
    s_k: np.ndarray
    sigma: np.ndarray  # statistical standard error per bin

    def rows(self):
        return zip(self.k, self.s_k, self.sigma)


def structure_factor(signal: list[np.ndarray], reference: list[np.ndarray], grid: Grid,
                     nbins: int = 0, min_realizations: int = 100) -> StructureFactor:
    """Static structure factor of a signal ensemble against a reference.

    S(k) is the radially averaged ratio of the density-fluctuation power
    spectra, delta rho = rho - <rho> with the mean taken over each ensemble
    separately. The reference plays the role of the shot-noise calibration
    (a coherent state carrying the same injected noise, unpropagated).
    sigma is the per-bin standard error propagated from the realization
    scatter of both ensembles. signal and reference are lists of densities
    |E|^2 sampled on grid.
    """
    if len(signal) < min_realizations or len(reference) < min_realizations:
        raise ValueError(
            f"need at least {min_realizations} realizations per ensemble "
            f"(statistical floor), got {len(signal)} signal / {len(reference)} reference"
        )
    if signal[0].shape != reference[0].shape:
        raise ValueError("signal and reference grids do not match")

    sig_mean, sig_var, n_sig = _fluctuation_spectrum(signal)
    ref_mean, ref_var, n_ref = _fluctuation_spectrum(reference)
    if float(np.max(ref_mean)) == 0.0:
        raise ValueError("reference ensemble has vanishing density fluctuations; "
                         "the normalization S(k) would be 0/0")

    kx, ky = grid.kx(), grid.ky()
    kxx, kyy = np.meshgrid(kx, ky)
    kk = np.hypot(kxx, kyy)
    k_max = float(min(np.max(np.abs(kx)), np.max(np.abs(ky))))
    if nbins <= 0:
        nbins = min(grid.nx, grid.ny) // 8
    edges, idx = _radial_bins(kk, nbins, k_max)
    keep = (kk.ravel() > 0) & (kk.ravel() <= k_max)  # drop the k = 0 mean mode

    s_num = np.bincount(idx[keep], weights=sig_mean.ravel()[keep], minlength=nbins)
    s_den = np.bincount(idx[keep], weights=ref_mean.ravel()[keep], minlength=nbins)
    # variance of the bin means, realization scatter / (modes * realizations)
    v_num = np.bincount(idx[keep], weights=sig_var.ravel()[keep], minlength=nbins)
    v_den = np.bincount(idx[keep], weights=ref_var.ravel()[keep], minlength=nbins)
    counts = np.bincount(idx[keep], minlength=nbins).astype(float)
    # bins where the reference carries no noise power are unnormalizable
    good = (counts > 0) & (s_den > 1e-12 * float(np.max(s_den)) * counts)
    if not np.any(good):
        raise ValueError("reference ensemble carries no usable noise power in "
                         "any radial bin; S(k) would be 0/0 everywhere")

    s_k = s_num[good] / s_den[good]
    rel_var = (v_num[good] / np.maximum(s_num[good], 1e-300) ** 2 / n_sig
               + v_den[good] / np.maximum(s_den[good], 1e-300) ** 2 / n_ref)
    sigma = s_k * np.sqrt(rel_var)
    centers = (edges[:-1] + 0.5 * np.diff(edges))[good]
    return StructureFactor(k=centers, s_k=s_k, sigma=sigma)


def _fluctuation_spectrum(densities: list[np.ndarray]):
    """Per-mode mean and variance of |fft(rho - <rho>)|^2 over an ensemble."""
    # a running sum holds one density, not a stacked ensemble; np.mean over
    # the stacked axis adds the members in the same order, to the same bits
    n = len(densities)
    mean_rho = np.zeros_like(densities[0])
    for rho in densities:
        mean_rho += rho
    mean_rho /= n
    acc = np.zeros_like(mean_rho)
    acc2 = np.zeros_like(mean_rho)
    for rho in densities:
        p = np.abs(fft2(rho - mean_rho)) ** 2
        acc += p
        acc2 += p**2
    mean = acc / n
    var = np.maximum(acc2 / n - mean**2, 0.0)
    return mean, var, n
