"""Ensemble statistics: intensity distribution, first-order coherence and
the static structure factor. The first two take lists of fields; the
structure factor reads its ensembles once, as a stream of (signal,
reference) density pairs, into one-pass moment sums, so that no member is
kept."""

from __future__ import annotations

from collections.abc import Iterable
from typing import NamedTuple

import numpy as np

from .grid import Field2D, Grid, fft2, ifft2


class IntensityStatistics(NamedTuple):
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


def intensity_statistics(fields: list[Field2D], bins: int) -> IntensityStatistics:
    """Histogram P(I), in bins equal bins, and normalized second moment
    g2 = <I^2>/<I>^2 of the samples of a list of fields."""
    if isinstance(fields, Field2D):  # a record, so a tuple, but not a list of fields
        raise TypeError("intensity_statistics takes a list of fields, not a Field2D")
    if not fields:
        raise ValueError("intensity_statistics needs at least one field")
    samples = np.concatenate([f.density().ravel() for f in fields])
    if samples.size == 0 or not np.any(samples):
        raise ValueError("intensity statistics need a nonzero field")
    mean = float(np.mean(samples))
    g2 = float(np.mean(samples**2) / mean**2)
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, float(np.max(samples))),
                                 density=True)
    mode = float(edges[int(np.argmax(counts))])
    return IntensityStatistics(bin_edges=edges, pdf=counts, mode=mode, mean=mean, g2=g2)


class CoherenceProfile(NamedTuple):
    separation: np.ndarray
    g1: np.ndarray


def coherence_g1(fields: list[Field2D], method: str = "rotate_pair") -> CoherenceProfile:
    """First-order coherence profile g1(dr).

    rotate_pair mirrors a single field through the grid center and
    correlates it with itself, the numerical analog of interfering a beam
    with its inverted copy: the contrast at radius r measures the coherence
    between points separated by dr = 2 r. ensemble averages
    <psi(r) psi*(r + dr)> over realizations (at least two fields).
    Both profiles are radially binned, in min(nx, ny) // 8 bins for
    rotate_pair and // 4 for ensemble, and normalized to g1 in [0, 1].
    fields is a list of fields on one grid.
    """
    if isinstance(fields, Field2D):  # a record, so a tuple, but not a list of fields
        raise TypeError("coherence_g1 takes a list of fields, not a Field2D")
    if not fields:
        raise ValueError("coherence_g1 needs at least one field")
    values, grid = [f.values for f in fields], fields[0].grid
    if method == "rotate_pair":
        return _g1_rotate_pair(values, grid)
    if method == "ensemble":
        if len(values) < 2:
            raise ValueError("the ensemble method needs at least 2 realizations")
        return _g1_ensemble(values, grid)
    raise ValueError(f"unknown coherence method {method!r}")


def _radial_sums(r: np.ndarray, r_max: float, nbins: int, take: np.ndarray, *weights,
                 members: int = 1):
    """Centres of nbins equal bins of r on [0, r_max], then the per-bin sums
    of each weights array over the flat mask take (counts for None). A
    weights array holds its members' maps in turn and each bin adds them in
    that order; a complex sum adds real and imaginary parts separately."""
    edges = np.linspace(0.0, r_max, nbins + 1)
    idx = np.tile(np.clip(np.digitize(r.ravel(), edges) - 1, 0, nbins - 1)[take], members)

    def bin_sum(w):
        if np.iscomplexobj(w):
            return bin_sum(w.real) + 1j * bin_sum(w.imag)
        return np.bincount(idx, weights=w, minlength=nbins).astype(float)

    picked = (w if w is None else np.reshape(w, (members, -1))[:, take].ravel() for w in weights)
    return edges[:-1] + 0.5 * np.diff(edges), *map(bin_sum, picked)


def _g1_rotate_pair(values: list[np.ndarray], grid) -> CoherenceProfile:
    rr = np.hypot(*grid.meshgrid())
    r_max = 0.5 * min(grid.extent_x, grid.extent_y) / 2.0  # stay clear of the corners
    nbins = min(grid.nx, grid.ny) // 8
    v = np.stack(values)
    mirrored = np.roll(v[:, ::-1, ::-1], (1, 1), axis=(1, 2))  # psi(-r)
    centres, num, den = _radial_sums(rr, r_max, nbins, rr.ravel() < r_max,
                                     v * np.conj(mirrored),
                                     0.5 * (np.abs(v) ** 2 + np.abs(mirrored) ** 2),
                                     members=len(values))
    good = den > 0
    g1 = np.abs(num[good]) / den[good]
    return CoherenceProfile(separation=centres[good] * 2.0,  # dr = 2 r
                            g1=np.clip(g1, 0.0, 1.0))


def _g1_ensemble(values: list[np.ndarray], grid) -> CoherenceProfile:
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
    nbins = min(nx, ny) // 4
    centres, num, counts = _radial_sums(rr, r_max, nbins, rr.ravel() < r_max, corr, None)
    good = counts > 0
    g1 = np.abs(num[good]) / counts[good]
    return CoherenceProfile(separation=centres[good], g1=np.clip(g1, 0.0, 1.0))


class StructureFactor(NamedTuple):
    k: np.ndarray
    s_k: np.ndarray
    sigma: np.ndarray  # statistical standard error per bin


def structure_factor(pairs: Iterable[tuple[np.ndarray, np.ndarray]], grid: Grid, nbins: int,
                     min_realizations: int = 100) -> StructureFactor:
    """Static structure factor of a signal ensemble against a reference.

    S(k) is the radially averaged ratio of the density-fluctuation power
    spectra, delta rho = rho - <rho> with the mean taken over each ensemble
    separately, in nbins equal bins of |k| up to the smaller Nyquist
    wavenumber. The reference plays the role of the shot-noise calibration
    (a coherent state carrying the same injected noise, unpropagated).
    sigma is the per-bin standard error propagated from the realization
    scatter of both ensembles. pairs yields one (signal, reference) pair of
    densities |E|^2 sampled on grid per realization; it is read once, each
    pair is folded into one-pass moment sums (see _SpectrumMoments) and no
    pair is kept.
    """
    shape, signal, reference = (grid.ny, grid.nx), None, None
    for rho_signal, rho_reference in pairs:
        if not np.shape(rho_signal) == np.shape(rho_reference) == shape:
            raise ValueError("signal and reference grids do not match")
        if signal is None:
            signal, reference = _SpectrumMoments(rho_signal), _SpectrumMoments(rho_reference)
        signal.add(rho_signal)
        reference.add(rho_reference)
    n, floor = signal.n if signal else 0, max(min_realizations, 1)
    if n < floor:
        raise ValueError(
            f"need at least {floor} realizations per ensemble "
            f"(statistical floor), got {n} signal / {n} reference"
        )

    (sig_mean, sig_var), (ref_mean, ref_var) = signal.spectrum(), reference.spectrum()
    del signal, reference  # the moment sums, now that the spectra are out
    if float(np.max(ref_mean)) == 0.0:
        raise ValueError("reference ensemble has vanishing density fluctuations; "
                         "the normalization S(k) would be 0/0")

    kx, ky = grid.kx(), grid.ky()
    kxx, kyy = np.meshgrid(kx, ky)
    kk = np.hypot(kxx, kyy)
    k_max = float(min(np.max(np.abs(kx)), np.max(np.abs(ky))))
    # drop the k = 0 mean mode; v_num and v_den give the variance of the bin
    # means, realization scatter / (modes * realizations)
    centres, s_num, s_den, v_num, v_den, counts = _radial_sums(
        kk, k_max, nbins, (kk.ravel() > 0) & (kk.ravel() <= k_max),
        sig_mean, ref_mean, sig_var, ref_var, None)
    # bins where the reference carries no noise power are unnormalizable
    good = (counts > 0) & (s_den > 1e-12 * float(np.max(s_den)) * counts)
    if not np.any(good):
        raise ValueError("reference ensemble carries no usable noise power in "
                         "any radial bin; S(k) would be 0/0 everywhere")

    s_k = s_num[good] / s_den[good]
    rel_var = (v_num[good] / np.maximum(s_num[good], 1e-300) ** 2
               + v_den[good] / np.maximum(s_den[good], 1e-300) ** 2) / n
    sigma = s_k * np.sqrt(rel_var)
    return StructureFactor(k=centres[good], s_k=s_k, sigma=sigma)


class _SpectrumMoments:
    """One-pass sums over an ensemble's members of b, b^2, |b|^2, |b|^2 b and
    |b|^4 per mode, b = fft2(rho - rho_1) with rho_1 the first member's
    density: shifting by a member keeps a structured mean (a lattice's, say)
    out of the sums, so that spectrum loses no digits to it."""

    def __init__(self, first: np.ndarray):
        self.shift = np.array(first, dtype=float)
        self.n = 0
        self.b, self.b2, self.xb = (np.zeros(self.shift.shape, complex) for _ in range(3))
        self.x, self.x2 = np.zeros(self.shift.shape), np.zeros(self.shift.shape)

    def add(self, rho: np.ndarray):
        b = np.zeros(self.shift.shape, complex)  # rho - rho_1 then its spectrum, in place
        np.subtract(rho, self.shift, out=b.real)
        fft2(b, overwrite_x=True)
        x = np.abs(b)
        x *= x
        self.b += b
        self.x += x
        for part, sums in ((b.real, self.xb.real), (b.imag, self.xb.imag)):
            sums += x * part  # x * b would cast x to complex through a buffer
        self.b2 += np.multiply(b, b, out=b)
        self.x2 += np.multiply(x, x, out=x)
        self.n += 1

    def spectrum(self):
        """Per-mode mean and variance of |fft2(rho - <rho>)|^2 over the
        members, taken in place of the sums. With m = sum(b) / n, w = |m|^2
        and d = b - m: sum |d|^2 = sum |b|^2 - n w and sum |d|^4 = sum |b|^4
        - 4 Re(conj(m) sum |b|^2 b) + 2 Re(conj(m)^2 sum b^2)
        + 4 w sum |b|^2 - 3 n w^2."""
        n, conj_m = self.n, self.b
        conj_m /= n
        np.conj(conj_m, out=conj_m)
        w = np.abs(conj_m)
        w *= w
        d4 = self.x2  # sum |d|^4, built in place
        self.xb *= conj_m
        d4 -= 4.0 * self.xb.real
        conj_m *= conj_m
        self.b2 *= conj_m
        d4 += 2.0 * self.b2.real
        d4 += 4.0 * w * self.x
        d4 -= 3.0 * n * w * w
        mean = self.x  # sum |d|^2, then its mean
        mean -= n * w
        mean /= n
        d4 /= n
        d4 -= mean**2
        return mean, np.maximum(d4, 0.0, out=d4)
