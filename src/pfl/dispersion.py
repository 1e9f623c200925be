"""Bogoliubov dispersion probed the way the experiment does it.

A weak Gaussian probe riding a phase ramp exp(i k_perp x) is superposed on
a homogeneous background fluid; the density perturbation wavepacket it
seeds travels a transverse distance proportional to the propagation depth,
and the slope is the group velocity (transverse meters per axial meter).
Integrating v_g over k_perp reconstructs the dispersion curve, which is
fitted with the Bogoliubov form

    Omega(k) = sqrt( E_k (E_k + 2 k0 dn_nl) ),   E_k = k^2 / (2 k0 n0)

whose low-k slope is the sound speed c_s = sqrt(dn_nl / n0).

The entrance quench splits a low-k probe into counter-propagating phonon
packets of nearly equal density weight, so a whole-plane centroid would
cancel. The tracker instead demodulates the density difference at the
known probe carrier and follows the envelope: when both packets are
resolved, their half separation is the displacement; a lone packet is
followed by its peak; the slope is fitted over the trailing run of
snapshots where the packets stay resolved. At k_perp = 0 the demodulation
is the identity and the pair splits symmetrically, so its half separation
reads the sound speed like any other low-k probe.

Only the k_y = 0 line of the probe run is propagated. The background is a
uniform field E0 = sqrt(density) in a medium without a potential, so its
line density is known in closed form: the kinetic factor is 1 on the k = 0
mode and the kick multiplies every site by the same unit phase times the
loss, giving sum_y |E|^2 (z) = ny |E0|^2 exp(-alpha z), with ny |E0|^2
summed one row at a time, as a plane's column sum adds it. To linear order
in the probe amplitude each transverse mode of the perturbation then
evolves on its own, and the k_y = 0 line of the density change is seeded
only by the y-mean of the perturbation field: sum_y delta rho =
2 Re(E0* sum_y delta E) plus terms quadratic in delta E. So the y-mean of
the probed field is propagated on a one-row grid Grid(nx, 1, dx, dy), and
each snapshot is reduced to ny times its line density minus the
background's as it is made: the tracker only ever uses the y-integrated
density change. The quadratic terms the line drops shrink with the probe
amplitude, sqrt(power_ratio).

measure_group_velocity steps one probe stack that `plans` built
(plans.probe_stack, or plans.sound_scaling_runs for one per density),
after every rule of the stack: its lines run as one (K, 1, nx) stack
through a single propagate call, whose per-step cost on a 1D line is
mostly dispatch, and each member's snapshots equal those of a one-probe
stack bit for bit. The keep callback stores each snapshot's line density
change, nx floats, and the tracker runs once after the run on the
(K, S, nx) stack of S snapshots: one transform pair demodulates every line
and one island scan reads every envelope, and each probe's track equals
what a per-snapshot tracker reads, bit for bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rules
from .grid import Field2D, Grid, fft, ifft
from .medium import MediumParams, shift_scales
from .plans import ProbeSpec, Propagation
from .solver import propagate

# Unless the packets stay paired over the trailing snapshots, the drift is
# fitted over this last fraction of them; a fit whose RMS residual exceeds
# MAX_RESIDUAL of the displacement span is not a ballistic packet.
FIT_FRACTION = 0.5
MAX_RESIDUAL = 0.15


@dataclass
class GroupVelocityMeasurement:
    k_perp: float
    v_g: float
    stderr: float
    z_samples: np.ndarray
    displacements: np.ndarray
    fit_start_index: int


@dataclass
class DispersionCurve:
    """Sampled dispersion relation and its Bogoliubov fit."""

    k_perp: np.ndarray
    v_g: np.ndarray
    omega: np.ndarray
    dn_fit: float
    dn_stderr: float
    c_s: float
    c_s_stderr: float
    xi_fit: float

    def rows(self):
        return zip(self.k_perp, self.v_g, self.omega)


def bogoliubov_omega(k: np.ndarray, k0: float, n0: float, dn_nl: float) -> np.ndarray:
    """Axial dispersion Omega(k) of excitations on a defocusing fluid."""
    e_k = np.asarray(k, dtype=float) ** 2 / (2.0 * k0 * n0)
    return np.sqrt(e_k * (e_k + 2.0 * k0 * dn_nl))


def bogoliubov_group_velocity(k: np.ndarray, k0: float, n0: float, dn_nl: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    e_k = k**2 / (2.0 * k0 * n0)
    omega = bogoliubov_omega(k, k0, n0, dn_nl)
    de = k / (k0 * n0)
    with np.errstate(invalid="ignore", divide="ignore"):
        vg = de * (e_k + k0 * dn_nl) / omega
    return np.where(k == 0.0, np.sqrt(dn_nl / n0), vg)


def _wrap_coord(delta: np.ndarray, extent: float) -> np.ndarray:
    """Map coordinate differences into (-extent/2, extent/2]."""
    return delta - extent * np.round(delta / extent)


def _trailing_run(flags: np.ndarray) -> np.ndarray:
    """Mask selecting the unbroken run of True values ending at the last
    sample (empty if the last sample is False)."""
    return np.logical_and.accumulate(np.asarray(flags, dtype=bool)[::-1])[::-1]


def _line_fit(x: np.ndarray, y: np.ndarray) -> tuple[float, float, float]:
    """Least-squares line y = intercept + slope x: (slope, intercept,
    standard error of the slope), with scipy.stats.linregress's arithmetic
    (a constant y has standard error 0 here, nan there)."""
    ssxm, ssxym, _, ssym = np.cov(x, y, bias=True).flat
    slope = ssxym / ssxm
    intercept = np.mean(y) - slope * np.mean(x)
    r = 0.0 if ssym == 0.0 else np.clip(ssxym / np.sqrt(ssxm * ssym), -1.0, 1.0)
    stderr = np.sqrt((1 - r**2) * ssym / ssxm / (len(x) - 2))
    return float(slope), float(intercept), float(stderr)


def demodulated_envelope(profiles: np.ndarray, x: np.ndarray, k_carrier,
                         waist) -> np.ndarray:
    """Envelopes of the density waves riding at known probe carriers.

    profiles is a (..., nx) stack of line profiles; k_carrier and waist are
    scalars or arrays that broadcast against its leading axes ((K, 1) for a
    (K, S, nx) sweep of K probes). Multiplies by exp(-i k x), applies a
    Gaussian low-pass (cutting well below 2 k, where the conjugate image
    sits, while passing the envelope bandwidth ~2/waist) and returns the
    magnitude, with one transform pair over the whole stack. The cut sees
    |k|, so -k mirrors +k; at k = 0 there is no image and the cut is
    4 / waist.
    """
    k = np.asarray(k_carrier, dtype=float)[..., None]
    cut = 4.0 / np.asarray(waist, dtype=float)[..., None]
    k_cut = np.where(k == 0.0, cut, np.minimum(np.abs(k), cut))
    k_axis = 2.0 * np.pi * np.fft.fftfreq(len(x), d=x[1] - x[0])
    window = np.exp(-((k_axis / k_cut) ** 2))
    return np.abs(ifft(fft(profiles * np.exp(-1j * k * x)) * window))


def _threshold_islands(envelopes: np.ndarray, x: np.ndarray,
                       extent: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Contiguous islands above 0.35 of its row's maximum in each row of an
    (R, nx) stack of envelopes, periodic: (row, peak position, mass) arrays,
    ordered by row and then by falling mass, scan order breaking ties.

    A row above the threshold everywhere is one island and an all-zero row
    has none. Positions are parabolic refinements of each island's maximum,
    which are insensitive to how the threshold slices overlapping tails.
    """
    n = envelopes.shape[-1]
    mask = envelopes > 0.35 * envelopes.max(axis=-1, keepdims=True)
    # rotate each row so that its scan starts in a below-threshold gap; an
    # island then runs from a rising to a falling transition of the rotated
    # mask, padded with a gap at both ends
    start = np.argmin(mask, axis=-1)
    cols = (start[:, None] + np.arange(n)) % n
    rotated = np.take_along_axis(envelopes, cols, axis=-1)
    row, edge = np.nonzero(np.diff(np.take_along_axis(mask, cols, axis=-1), axis=-1,
                                   prepend=False, append=False))
    row, lo, length = row[::2], edge[::2], edge[1::2] - edge[::2]
    # islands of one length are rows of one gather, so each mass is the
    # np.sum of its segment (a cumulative or reduceat sum rounds otherwise)
    first = row * n + lo
    mass = np.empty(len(row))
    peak = np.empty(len(row), dtype=np.intp)
    for span in sorted(set(length.tolist())):  # np.unique would load numpy.ma
        of = np.flatnonzero(length == span)
        segments = rotated.reshape(-1)[first[of, None] + np.arange(span)]
        mass[of] = segments.sum(axis=-1)
        peak[of] = segments.argmax(axis=-1)
    idx = (start[row] + lo + peak) % n
    order = np.lexsort((-mass, row))
    return row[order], _parabolic_peak(envelopes, row, idx, x, extent)[order], mass[order]


def _parabolic_peak(envelopes: np.ndarray, row: np.ndarray, idx: np.ndarray,
                    x: np.ndarray, extent: float) -> np.ndarray:
    """Sub-cell peak positions from a parabola through the three samples
    around each (row, idx) of envelopes."""
    n = envelopes.shape[-1]
    em, e0, ep = (envelopes[row, (idx + offset) % n] for offset in (-1, 0, 1))
    denom = em - 2.0 * e0 + ep
    shift = np.divide(0.5 * (em - ep), denom, out=np.zeros(len(idx)), where=denom != 0.0)
    return _wrap_coord(x[idx] + np.clip(shift, -0.5, 0.5) * float(x[1] - x[0]), extent)


def packet_displacement(envelopes: np.ndarray, x: np.ndarray,
                        extent: float) -> tuple[np.ndarray, np.ndarray]:
    """Signed transverse displacement of the probe wavepacket in each
    envelope of a (..., nx) stack: (displacement, paired) arrays of the
    stack's leading shape.

    The entrance quench seeds a pair of counter-propagating packets; when
    both are visible (the two heaviest islands lie on either side of the
    origin and the lighter has more than 0.2 of the heavier's mass) their
    half separation is returned with paired=True, otherwise the parabolic
    peak of the heaviest island with paired=False (0.0 without islands).
    """
    rows = envelopes.reshape(-1, envelopes.shape[-1])
    row, position, mass = _threshold_islands(rows, x, extent)
    count = np.bincount(row, minlength=len(rows))
    top = np.cumsum(count) - count  # each row's heaviest island
    displacement = np.zeros(len(rows))
    paired = np.zeros(len(rows), dtype=bool)
    displacement[count > 0] = position[top[count > 0]]
    two = np.flatnonzero(count >= 2)
    c1, c2 = position[top[two]], position[top[two] + 1]
    resolved = (mass[top[two] + 1] > 0.2 * mass[top[two]]) & (c1 * c2 < 0.0)
    pair, c1, c2 = two[resolved], c1[resolved], c2[resolved]
    displacement[pair] = 0.5 * (np.where(c1 > 0, c1, c2) - np.where(c1 > 0, c2, c1))
    paired[pair] = True
    shape = envelopes.shape[:-1]
    return displacement.reshape(shape), paired.reshape(shape)


def track_packets(changes: np.ndarray, probes: Sequence[ProbeSpec],
                  grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """(displacement, paired) arrays, shape (K, S), of a (K, S, nx) stack of
    line density changes against the background, S snapshots of each of K
    probes: the packet displacement of their envelopes at each probe's
    carrier, k_perp = 0 included."""
    x = grid.x_coords()
    k = np.array([p.k_perp for p in probes])[:, None]
    waist = np.array([p.waist for p in probes])[:, None]
    return packet_displacement(demodulated_envelope(changes, x, k, waist), x, grid.extent_x)


def snapshot_density(z: float, field: Field2D) -> np.ndarray:
    """keep for propagate that stores a snapshot's line density
    sum_y |E|^2, shape (nx,). The probe line of measure_group_velocity
    subtracts the background's from ny times it."""
    return field.density().sum(axis=0)


def probe_line(grid: Grid, density: float, probe: ProbeSpec) -> Field2D:
    """The y-mean over grid of a uniform background E0 = sqrt(density) plus
    the probe, on the one-row grid Grid(nx, 1, dx, dy): E0 + sqrt(power_ratio)
    E0 exp(-x^2 / w^2) exp(i k_perp x) times the sampled y-mean of
    exp(-y^2 / w^2). The probe's peak intensity is power_ratio times the
    background's."""
    e0 = np.sqrt(density)  # the value of sources.plane_wave, bit for bit
    x, w = grid.x_coords(), probe.waist
    peak = np.sqrt(probe.power_ratio) * e0 * np.mean(np.exp(-(grid.y_coords() / w) ** 2))
    line = e0 + peak * np.exp(-(x / w) ** 2) * np.exp(1j * probe.k_perp * x)
    return Field2D(grid=Grid(grid.nx, 1, grid.dx, grid.dy), values=line[None])


def measure_group_velocity(run: Propagation, grid: Grid) -> list[GroupVelocityMeasurement]:
    """Group velocity of each probe of run, a probe stack of `plans`, on its
    uniform background of run.density over grid.

    The probe lines (see probe_line) run as one (K, 1, nx) stack through a
    single propagate call, with run.medium and run.plan; the measurements
    come back as a list in probe order, each equal to that of a one-probe
    stack bit for bit. The background's line density at depth z is
    ny |E0|^2 exp(-alpha z), and each snapshot is kept as ny times its line
    density minus the background's. After the run the (K, S, nx) stack of
    these changes is tracked in one pass (see track_packets), and each
    probe's transverse drift is fitted. The stack's rules were applied when
    `plans` built it.
    """
    medium, e0 = run.medium, np.sqrt(run.density)
    background_line = 0.0
    for _ in range(grid.ny):  # one row at a time, as a plane's column sum adds |E0|^2
        background_line += e0 * e0

    def line_change(z: float, field: Field2D) -> np.ndarray:
        return grid.ny * snapshot_density(z, field) - background_line * np.exp(-medium.alpha * z)

    records = propagate([probe_line(grid, run.density, p) for p in run.probes], medium,
                        run.plan, keep=line_change)
    z_samples = np.array([z for z, _ in records[0].snapshots])
    changes = np.array([[change for _, change in r.snapshots] for r in records])
    displacements, paired = track_packets(changes, run.probes, grid)
    return [_fit_drift(z_samples, d, p, probe, grid)
            for d, p, probe in zip(displacements, paired, run.probes)]


def _fit_drift(z_samples: np.ndarray, displacements: np.ndarray, paired: np.ndarray,
               probe: ProbeSpec, grid: Grid) -> GroupVelocityMeasurement:
    """Fit a probe's packet displacements, with their paired flags (see
    packet_displacement), against the snapshot depths z_samples: the slope
    is the group velocity."""
    n = len(z_samples)
    trailing = _trailing_run(paired)
    if int(np.sum(trailing)) >= 5:
        # counter-propagating packets stay resolved through the end of the
        # run: their half separation is the clean displacement observable
        sel = trailing
    else:
        start = int(np.floor(n * (1.0 - FIT_FRACTION)))
        start = min(max(start, 0), n - 3)
        sel = np.zeros(n, dtype=bool)
        sel[start:] = True
    slope, intercept, stderr = _line_fit(z_samples[sel], displacements[sel])
    span = max(float(np.ptp(displacements[sel])), grid.dx)
    residuals = displacements[sel] - (intercept + slope * z_samples[sel])
    rel_residual = float(np.sqrt(np.mean(residuals**2))) / span
    if rel_residual > MAX_RESIDUAL:
        raise RuntimeError(
            f"packet tracking fit residual {rel_residual:.3f} exceeds "
            f"{MAX_RESIDUAL}; the wavepacket is not moving ballistically"
        )
    if np.max(np.abs(displacements)) > 0.4 * grid.extent_x:
        raise RuntimeError("probe packet wrapped around the grid; shorten the run")
    return GroupVelocityMeasurement(
        k_perp=probe.k_perp, v_g=slope, stderr=stderr,
        z_samples=z_samples, displacements=displacements,
        fit_start_index=int(np.argmax(sel)))


def dispersion_from_group_velocity(samples, medium: MediumParams) -> DispersionCurve:
    """Integrate (k, v_g) samples into Omega(k) and fit the Bogoliubov form.

    The integral is a cumulative trapezoid from k = 0; v_g(0) is linearly
    extrapolated from the first two samples, which makes both the constant
    (sonic) and linear (free-particle) cases integrate exactly.
    """
    pts = sorted((float(k), float(v)) for k, v in samples)
    k = np.array([p[0] for p in pts])
    v = np.array([p[1] for p in pts])
    if len(k) < 5:
        raise ValueError("need at least 5 (k, v_g) samples")
    rules.increasing(k.tolist(), "k samples")
    if k[0] < 0:
        raise ValueError("k samples must be non-negative")

    if k[0] > 0.0:
        v0 = v[0] - k[0] * (v[1] - v[0]) / (k[1] - k[0])
        k_full = np.concatenate([[0.0], k])
        v_full = np.concatenate([[v0], v])
    else:
        k_full, v_full = k, v
    omega_full = np.concatenate([[0.0], np.cumsum(
        0.5 * (v_full[1:] + v_full[:-1]) * np.diff(k_full))])
    omega = omega_full[-len(k):]

    k0, n0 = medium.k0, medium.n0

    dn_fit, dn_err = _fit_bogoliubov(k, omega, k0, n0, max(np.max(v) ** 2 * n0, 1e-18))
    _, xi_fit, c_s = shift_scales(medium, dn_fit)
    c_s_err = 0.5 * c_s * dn_err / dn_fit if dn_fit > 0 else np.inf
    return DispersionCurve(k_perp=k, v_g=v, omega=omega, dn_fit=dn_fit,
                           dn_stderr=dn_err, c_s=c_s, c_s_stderr=c_s_err,
                           xi_fit=xi_fit)


def _fit_bogoliubov(k: np.ndarray, omega: np.ndarray, k0: float, n0: float,
                    dn_guess: float) -> tuple[float, float]:
    """Least-squares dn >= 0 of bogoliubov_omega to (k, omega) and its
    standard error sqrt(SSR / (n - 1) / sum(J^2)), J = dOmega/d dn.

    The minimum is a zero of the gradient G = sum(r J) of the residuals
    r = Omega - omega. Newton steps on G, with G' = sum(J^2 omega / Omega),
    stay inside a sign-change bracket, grown from [0, dn_guess], and fall
    back to bisection when they leave it. When G(0) >= 0 the minimum is the
    boundary dn = 0. A k = 0 sample has Omega = 0 for every dn and adds
    nothing to G or J. Non-finite samples end in the RuntimeError.
    """
    e_k = k**2 / (2.0 * k0 * n0)

    def terms(dn: float):
        fitted = bogoliubov_omega(k, k0, n0, dn)
        safe = np.where(fitted > 0.0, fitted, 1.0)
        jac = k0 * e_k / safe
        r = fitted - omega
        return r, jac, float(r @ jac), float(jac**2 @ (omega / safe))

    lo, hi = 0.0, dn_guess
    dn, (r, jac, grad, curv) = 0.0, terms(0.0)
    if not grad >= 0.0:
        while terms(hi)[2] < 0.0 and hi < 1e300:
            lo, hi = hi, 2.0 * hi
        dn = hi
        for _ in range(200):
            r, jac, grad, curv = terms(dn)
            if grad == 0.0:
                break
            if grad < 0.0:
                lo = dn
            else:
                hi = dn
            step = dn - grad / curv if curv > 0.0 else np.nan
            if not lo < step < hi:
                step = 0.5 * (lo + hi)
            if abs(step - dn) <= 4.0 * np.finfo(float).eps * dn:
                break
            dn = step
        else:
            raise RuntimeError(f"Bogoliubov fit did not converge (dn = {dn:.6g})")
    return dn, float(np.sqrt((r @ r) / (len(k) - 1) / (jac @ jac)))


@dataclass
class SoundSpeedScaling:
    densities: np.ndarray
    sound_speeds: np.ndarray
    exponent: float
    stderr: float


def sound_speed_scaling(runs, grid: Grid) -> SoundSpeedScaling:
    """Fit the scaling exponent of the sound speed against the density.

    runs are the probe stacks of plans.sound_scaling_runs, one per
    background density (|E|^2) in increasing order, each propagated for the
    same number of nonlinear lengths (so every member is measured at the
    same dimensionless depth); the group velocity of each stack's probe,
    measured over grid, is taken as the sound speed. Returns the log-log
    slope with its standard error.
    """
    densities = np.array([run.density for run in runs])
    speeds = np.array([measure_group_velocity(run, grid)[0].v_g for run in runs])
    exponent, _, stderr = _line_fit(np.log(densities), np.log(speeds))
    return SoundSpeedScaling(densities=densities, sound_speeds=speeds,
                             exponent=exponent, stderr=stderr)
