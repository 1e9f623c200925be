"""Bogoliubov dispersion read mode by mode from a probe's density change.

A weak Gaussian probe riding a phase ramp exp(i k_perp x) is superposed on
a homogeneous background fluid. To linear order in the probe amplitude each
transverse mode q of the density change it seeds evolves on its own, as a
standing combination of exp(+-i Omega(q) z), so its amplitudes X_n at
snapshots Delta apart obey the three-term recurrence

    X_{n+1} + X_{n-1} = 2 cos(Omega Delta) X_n.

Each mode's least-squares cos(Omega Delta) = Re sum conj(X_n) (X_{n+1} +
X_{n-1}) / (2 sum |X_n|^2), over the inner snapshots, reads Omega(q) up to
Omega Delta = pi, where arccos aliases (plans.probe_stack refuses a spacing
that reaches it). A probe's group velocity (transverse meters per axial
meter) is the slope at |k_perp| of the parabola through the modes j - 1, j
and j + 1, j the mode nearest |k_perp| and at least 1 (rules.probe_modes),
signed as k_perp; at k_perp = 0 it is the slope at the origin, the sound
speed. The same parabola's value at |k_perp| is the probe's Omega, and the
Omega of the probes are fitted with the Bogoliubov form

    Omega(k) = sqrt( E_k (E_k + 2 k0 dn_nl) ),   E_k = k^2 / (2 k0 n0)

whose low-k slope is the sound speed c_s = sqrt(dn_nl / n0).

Only the k_y = 0 line of the probe run is propagated. The background is a
uniform field E0 = sqrt(density) in a medium without a potential, so its
density is known in closed form: the kinetic factor is 1 on the k = 0 mode
and the kick multiplies every site by the same unit phase times the loss,
giving |E0|^2 exp(-alpha z). To linear order in the probe amplitude the
k_y = 0 line of the density change is seeded only by the y-mean of the
perturbation field: mean_y delta rho = 2 Re(E0* mean_y delta E) plus terms
quadratic in delta E. So the y-mean of the probed field is propagated on a
one-row grid Grid(nx, 1, dx, dy), and each snapshot is kept as its density
over the background's decay exp(-alpha z), minus the background's density.
The quadratic terms the line drops shrink with the probe amplitude,
sqrt(power_ratio).

On a lossy medium the division removes the damping but not the drift of
Omega as the density decays, so the recurrence reads the branch of a
decaying density: at alpha L = 0.2 a k xi = 1 probe reads v_g 1.45% below
the lossless continuum branch.

measure_group_velocity steps one probe stack that `plans` built
(plans.probe_stack, or plans.sound_scaling_runs for one per density),
after every rule of the stack: its lines run as one (K, 1, nx) stack
through a single propagate call, whose per-step cost on a 1D line is
mostly dispatch. After the run one fft2 of the (K, S, 1, nx) stack of the
S evenly spaced snapshots (an uneven last one is dropped), one pass along
x, gives every mode's amplitudes, and each probe reads its own three modes,
so its Omega and v_g equal those of a one-probe stack bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import rules
from .grid import Field2D, Grid, fft2
from .medium import MediumParams, bogoliubov_omega, shift_scales
from .plans import ProbeSpec, Propagation
from .solver import propagate


@dataclass
class GroupVelocityMeasurement:
    """A probe's k_perp, its group velocity signed as k_perp, and Omega(|k_perp|)."""

    k_perp: float
    v_g: float
    omega: float


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


def bogoliubov_group_velocity(k: np.ndarray, k0: float, n0: float, dn_nl: float) -> np.ndarray:
    k = np.asarray(k, dtype=float)
    e_k = k**2 / (2.0 * k0 * n0)
    omega = bogoliubov_omega(k, k0, n0, dn_nl)
    de = k / (k0 * n0)
    with np.errstate(invalid="ignore", divide="ignore"):
        vg = de * (e_k + k0 * dn_nl) / omega
    return np.where(k == 0.0, np.sqrt(dn_nl / n0), vg)


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
    """Omega and group velocity of each probe of run, a probe stack of
    `plans`, on its uniform background of run.density over grid.

    The probe lines (see probe_line) run as one (K, 1, nx) stack through a
    single propagate call, with run.medium and run.plan; the measurements
    come back as a list in probe order, each equal to that of a one-probe
    stack bit for bit. Each snapshot is kept as its density over the
    background's decay exp(-alpha z), minus run.density. After the run the
    evenly spaced snapshots' changes are transformed along x, and each
    probe's Omega and v_g are read from its modes j - 1, j and j + 1 (see
    the module docstring; on a lossy medium they read the branch of a
    decaying density). The stack's rules were applied when `plans` built it.
    """
    medium, density = run.medium, run.density

    def line_change(z: float, field: Field2D) -> np.ndarray:
        return field.density() / np.exp(-medium.alpha * z) - density

    records = propagate([probe_line(grid, density, p) for p in run.probes], medium,
                        run.plan, keep=line_change)
    even = run.plan.n_steps // run.plan.snapshot_every  # an uneven last snapshot is dropped
    changes = np.array([[change for _, change in r.snapshots[:even]] for r in records])
    omega, v_g = _group_velocities(changes, run.probes, grid, run.plan.snapshot_every * run.dz)
    return [GroupVelocityMeasurement(k_perp=p.k_perp, v_g=float(v), omega=float(o))
            for p, o, v in zip(run.probes, omega, v_g)]


def _group_velocities(changes: np.ndarray, probes, grid: Grid, spacing: float):
    """(Omega, v_g) of each of K probes from a (K, S, 1, nx) stack of their
    line density changes over the background's decay at S snapshots spacing
    apart: from each probe's modes j - 1, j and j + 1 (rules.probe_modes),
    the least-squares cos(Omega spacing) of the recurrence over the inner
    snapshots, then the value and the slope at |k_perp| of the parabola
    through the three Omega, the slope signed as k_perp."""
    t, j = (np.array(column) for column in zip(*(rules.probe_modes(p.k_perp, grid)
                                                 for p in probes)))
    # (K, 3, S): the amplitudes of each probe's three modes, each row contiguous
    x = fft2(changes)[np.arange(len(j))[:, None], :, 0, j[:, None] + (-1, 0, 1)]
    inner = x[..., 1:-1]
    cross = np.sum((np.conj(inner) * (x[..., 2:] + x[..., :-2])).real, axis=-1)
    norm = np.sum(inner.real**2 + inner.imag**2, axis=-1)
    lo, mid, hi = (np.arccos(np.clip(cross / (2.0 * norm), -1.0, 1.0)) / spacing).T
    slope = 0.5 * (hi - lo) + (hi - 2.0 * mid + lo) * (t - j)  # dOmega per mode
    # the value at j plus t - j times the mean of the slopes at j and at t
    omega = mid + 0.5 * (0.5 * (hi - lo) + slope) * (t - j)
    return omega, np.copysign(slope * grid.extent_x / (2.0 * np.pi), [p.k_perp for p in probes])


def dispersion_from_group_velocity(measurements, medium: MediumParams) -> DispersionCurve:
    """Fit the Bogoliubov form to the Omega(|k_perp|) of at least 5
    measurements of measure_group_velocity; the curve keeps their order and
    their k_perp, v_g and Omega as measured."""
    if len(measurements) < 5:
        raise ValueError(f"need at least 5 measurements, got {len(measurements)}")
    k, v, omega = np.array([(m.k_perp, m.v_g, m.omega) for m in measurements]).T
    dn_fit, dn_err = _fit_bogoliubov(np.abs(k), omega, medium.k0, medium.n0,
                                     max(np.max(np.abs(v)) ** 2 * medium.n0, 1e-18))
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
    background density (|E|^2) in ascending order, each propagated for the
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
