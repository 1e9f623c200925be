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
uniform field in a medium without a potential, so its line density is known
in closed form: the kinetic factor is 1 on the k = 0 mode and the kick
multiplies every site by the same unit phase times the loss, giving
sum_y |E|^2 (z) = sum_y |E0|^2 exp(-alpha z). To linear order in the probe
amplitude each transverse mode of the perturbation then evolves on its own,
and the k_y = 0 line of the density change is seeded only by the y-mean of
the perturbation field: sum_y delta rho = 2 Re(E0* sum_y delta E) plus
terms quadratic in delta E. So the y-mean of the probed field is propagated
on a one-row grid Grid(nx, 1, dx, dy), and each snapshot is reduced to ny
times its line density minus the background's as it is made: the tracker
only ever uses the y-integrated density change. The quadratic terms the
line drops shrink with the probe amplitude, sqrt(power_ratio).

A sweep passes its probes to measure_group_velocity as one sequence. Their
lines run as one (K, 1, nx) stack through a single propagate call, whose
per-step cost on a 1D line is mostly dispatch, and each member's snapshots
equal those of a lone call bit for bit. The keep callback reduces every
snapshot straight to its (displacement, paired) pair, so a sweep holds K
short tracks rather than K times the snapshots' line profiles.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import rules
from .grid import Field2D, Grid, fft, ifft
from .medium import MediumParams
from .solver import PropagationRecord, StepPlan, fluid_scales, propagate

# sound_speed_scaling takes this many propagation steps per nonlinear length
STEPS_PER_Z_NL = 15
# Unless the packets stay paired over the trailing snapshots, the drift is
# fitted over this last fraction of them; a fit whose RMS residual exceeds
# MAX_RESIDUAL of the displacement span is not a ballistic packet.
FIT_FRACTION = 0.5
MAX_RESIDUAL = 0.15


@dataclass(frozen=True)
class ProbeSpec:
    """Probe beam riding on the background fluid.

    power_ratio sets how weak the probe is: the ratio of its peak intensity
    to the mean background intensity (only the config key has a default).
    The entrance quench amplifies the density modulation of a low-k probe
    by roughly (1 + s)/2 with s = (E_k + 2 mu)/Omega, so sweeps that reach
    deep into the sonic band should use a smaller ratio to stay in the
    linear-response regime. k_perp is the transverse wavevector of the
    probe phase ramp.
    """

    waist: float
    k_perp: float
    power_ratio: float


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
    omega = np.sqrt(e_k * (e_k + 2.0 * k0 * dn_nl))
    de = k / (k0 * n0)
    with np.errstate(invalid="ignore", divide="ignore"):
        vg = de * (e_k + k0 * dn_nl) / omega
    return np.where(k == 0.0, np.sqrt(dn_nl / n0), vg)


def bogoliubov_sound_speed(n0: float, dn_nl: float) -> float:
    return float(np.sqrt(dn_nl / n0))


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


def demodulated_envelope(profile: np.ndarray, x: np.ndarray, k_carrier: float,
                         waist: float) -> np.ndarray:
    """Envelope of the density wave riding at the known probe carrier.

    Multiplies by exp(-i k x), applies a Gaussian low-pass (cutting well
    below 2 k, where the conjugate image sits, while passing the envelope
    bandwidth ~2/waist) and returns the magnitude. The cut sees |k|, so -k
    mirrors +k; at k = 0 there is no image and the cut is 4 / waist.
    """
    dx = x[1] - x[0]
    signal = profile * np.exp(-1j * k_carrier * x)
    k_axis = 2.0 * np.pi * np.fft.fftfreq(len(x), d=dx)
    k_cut = min(abs(k_carrier), 4.0 / waist) or 4.0 / waist
    window = np.exp(-((k_axis / k_cut) ** 2))
    return np.abs(ifft(fft(signal) * window))


def _parabolic_peak(envelope: np.ndarray, x: np.ndarray, idx: int, dx: float,
                    extent: float) -> float:
    """Sub-cell peak position from a parabola through three samples."""
    em, e0, ep = envelope[np.array([idx - 1, idx, idx + 1]) % len(envelope)]
    denom = em - 2.0 * e0 + ep
    shift = 0.0 if denom == 0.0 else 0.5 * (em - ep) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    return float(_wrap_coord(x[idx] + shift * dx, extent))


def _threshold_islands(envelope: np.ndarray, x: np.ndarray,
                       extent: float) -> list[tuple[float, float]]:
    """(peak position, mass) of contiguous islands above 0.35 of the maximum,
    periodic.

    Positions are parabolic refinements of each island's maximum, which are
    insensitive to how the threshold slices overlapping tails.
    """
    dx = float(x[1] - x[0])
    mask = envelope > 0.35 * float(np.max(envelope))
    if mask.all():
        idx = int(np.argmax(envelope))
        return [(_parabolic_peak(envelope, x, idx, dx, extent), float(np.sum(envelope)))]
    # rotate so the scan starts in a below-threshold gap; each island then
    # runs from a rising to a falling transition of the rotated mask
    start = int(np.argmin(mask))
    env_r = np.roll(envelope, -start)
    bounds = np.flatnonzero(np.diff(np.roll(mask, -start), append=False)) + 1
    islands = []
    for i, j in bounds.reshape(-1, 2).tolist():
        seg = env_r[i:j]
        idx = (start + i + int(np.argmax(seg))) % len(envelope)
        islands.append((_parabolic_peak(envelope, x, idx, dx, extent), float(np.sum(seg))))
    islands.sort(key=lambda t: -t[1])
    return islands


def packet_displacement(envelope: np.ndarray, x: np.ndarray,
                        extent: float) -> tuple[float, bool]:
    """Signed transverse displacement of the probe wavepacket.

    The entrance quench seeds a pair of counter-propagating packets; when
    both are visible (one island on each side of the origin) their half
    separation is returned with paired=True, otherwise the parabolic peak
    of the dominant island with paired=False.
    """
    islands = _threshold_islands(envelope, x, extent)
    if not islands:
        return 0.0, False
    if len(islands) >= 2:
        (c1, m1), (c2, m2) = islands[0], islands[1]
        if m2 > 0.2 * m1 and c1 * c2 < 0.0:
            forward, backward = (c1, c2) if c1 > 0 else (c2, c1)
            return 0.5 * (forward - backward), True
    return islands[0][0], False


def snapshot_density(z: float, field: Field2D) -> np.ndarray:
    """keep for propagate that stores a snapshot's line density
    sum_y |E|^2, shape (nx,). The probe line of measure_group_velocity
    subtracts the background's from ny times it."""
    return field.density().sum(axis=0)


def probe_line(background: Field2D, probe: ProbeSpec) -> Field2D:
    """The y-mean of the background plus the probe, on the one-row grid
    Grid(nx, 1, dx, dy): E0 + sqrt(power_ratio) |E0| exp(-x^2 / w^2)
    exp(i k_perp x) times the sampled y-mean of exp(-y^2 / w^2), for the
    background's value E0. The probe's peak intensity is power_ratio times
    the background's."""
    grid = background.grid
    e0 = complex(background.values.flat[0])
    x, w = grid.x_coords(), probe.waist
    peak = np.sqrt(probe.power_ratio) * abs(e0) * np.mean(np.exp(-(grid.y_coords() / w) ** 2))
    line = e0 + peak * np.exp(-(x / w) ** 2) * np.exp(1j * probe.k_perp * x)
    return Field2D(grid=Grid(grid.nx, 1, grid.dx, grid.dy), values=line[None])


def measure_group_velocity(background: Field2D, probe: ProbeSpec | Sequence[ProbeSpec],
                           medium: MediumParams, plan: StepPlan
                           ) -> GroupVelocityMeasurement | list[GroupVelocityMeasurement]:
    """Group velocity of a weak probe at probe.k_perp on the background.

    probe is one ProbeSpec, or a sequence of them that runs as one
    (K, 1, nx) stack of probe lines through a single propagate call and
    returns a list of measurements in probe order; each equals that of a
    lone call bit for bit. Every probe is checked before anything
    propagates.

    The background must be a homogeneous fluid: one uniform value in a
    medium without a potential (ValueError otherwise). Its line density at
    depth z is then snapshot_density(0, background) * exp(-alpha z), and
    only the probe line (see probe_line) is propagated, with snapshots
    along z. Each snapshot is reduced as it is made, to ny times its line
    density minus the background's and then to the packet displacement
    (see _probe_displacement), and the transverse drift is fitted.
    """
    lone = isinstance(probe, ProbeSpec)
    probes = [probe] if lone else list(probe)
    grid = background.grid
    if plan.snapshot_every <= 0:
        raise ValueError("plan.snapshot_every must be positive to track the packet")
    for p in probes:
        rules.probe(p.waist, p.k_perp, grid)
        if p.power_ratio < 0:
            raise ValueError(f"probe power_ratio must be non-negative, got {p.power_ratio}")
    if medium.potential is not None:
        raise ValueError("the background must be homogeneous: the medium has a potential")
    if np.any(background.values != background.values.flat[0]):
        raise ValueError("the background must be homogeneous: its field is not one "
                         "uniform value")

    background_line = snapshot_density(0.0, background)
    # propagate calls keep in member order at each z
    members = itertools.cycle(probes)

    def displacement(z: float, field: Field2D) -> tuple[float, bool]:
        delta = grid.ny * snapshot_density(z, field) - background_line * np.exp(-medium.alpha * z)
        return _probe_displacement(delta, next(members), grid)

    records = propagate([probe_line(background, p) for p in probes], medium, plan,
                        keep=displacement)
    measurements = [_fit_drift(r, p, grid) for r, p in zip(records, probes)]
    return measurements[0] if lone else measurements


def _fit_drift(probe_record: PropagationRecord, probe: ProbeSpec,
               grid) -> GroupVelocityMeasurement:
    """Fit the packet displacement of a probe run, whose record keeps the
    (displacement, paired) pair of each snapshot (see _probe_displacement),
    against z: the slope is the group velocity."""
    if len(probe_record.snapshots) < 4:
        raise ValueError("need at least 4 snapshots to fit a displacement slope")
    z_samples = np.array([z for z, _ in probe_record.snapshots])
    displacements = np.array([d for _, (d, _) in probe_record.snapshots])
    paired = np.array([p for _, (_, p) in probe_record.snapshots], dtype=bool)

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


def _probe_displacement(delta: np.ndarray, probe: ProbeSpec, grid) -> tuple[float, bool]:
    """(displacement, paired) of one snapshot's line density change delta
    against the background: the packet displacement of its envelope at the
    probe carrier, k_perp = 0 included."""
    x = grid.x_coords()
    env = demodulated_envelope(delta, x, probe.k_perp, probe.waist)
    return packet_displacement(env, x, grid.extent_x)


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
    c_s = bogoliubov_sound_speed(n0, dn_fit)
    c_s_err = 0.5 * c_s * dn_err / dn_fit if dn_fit > 0 else np.inf
    z_nl = 1.0 / (k0 * dn_fit) if dn_fit > 0 else np.inf
    xi_fit = float(np.sqrt(z_nl / (k0 * n0))) if np.isfinite(z_nl) else np.inf
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


def sound_speed_scaling(densities, medium: MediumParams, grid, tau: float = 25.0,
                        k_perp_xi: float = 0.2, probe_waist_xi: float = 10.0,
                        power_ratio: float = 1e-5) -> SoundSpeedScaling:
    """Fit the scaling exponent of the sound speed against the density.

    For each background density (|E|^2) a plane-wave fluid is propagated
    for the same number of nonlinear lengths (so every member is measured
    at the same dimensionless depth) and the group velocity of a probe at
    k_perp = k_perp_xi / xi is taken as the sound speed. Returns the
    log-log slope with its standard error. Each density has its own length
    and so its own dz, which a stack shares: the probes run one
    measure_group_velocity call per density.
    """
    densities = np.asarray(sorted(float(d) for d in densities))
    if len(densities) < 4:
        raise ValueError("need at least 4 densities")
    if densities[0] <= 0:
        raise ValueError("densities must be positive")
    rules.decade(densities.tolist())

    speeds = []
    for rho in densities:
        z_nl, xi, _ = fluid_scales(medium, rho)
        run_medium = medium.with_length(tau * z_nl)
        n_steps = int(np.ceil(tau * STEPS_PER_Z_NL))
        every = max(1, n_steps // 50)
        plan = StepPlan(n_steps=n_steps, snapshot_every=every)
        values = np.full((grid.ny, grid.nx), np.sqrt(rho), dtype=np.complex128)
        background = Field2D(grid=grid, values=values)
        probe = ProbeSpec(waist=probe_waist_xi * xi, k_perp=k_perp_xi / xi,
                          power_ratio=power_ratio)
        m = measure_group_velocity(background, probe, run_medium, plan)
        speeds.append(m.v_g)
    speeds = np.asarray(speeds)
    exponent, _, stderr = _line_fit(np.log(densities), np.log(speeds))
    return SoundSpeedScaling(densities=densities, sound_speeds=speeds,
                             exponent=exponent, stderr=stderr)
