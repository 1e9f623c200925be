"""Symmetric split-step spectral integrator for the paraxial envelope.

The propagation equation integrated here is

    i dE/dz = [ -1/(2 n0 k0) Lap_perp - k0 dn(r,z)
                - k0/(2 n0) chi3 |E|^2 - i alpha/2 ] E

with dn complex (Im dn > 0 is loss) and an optional saturable nonlinearity
chi_eff = chi3 / (1 + I/I_sat). Each step is a Strang composition: half a
kinetic step in spectral space, a full pointwise nonlinear step, half a
kinetic step. Adjacent half steps are merged between snapshots, so the
inner loop costs one forward and one inverse transform per step.

One SplitStepKernel per propagate call precomputes the kinetic factors, the
Kerr coefficient dz k0 chi3 / (2 n0) and a static potential's phase and
amplitude terms (without a potential, the loss exp(-alpha dz/2) is a
scalar). Its kick writes cos and sin of the phase into a preallocated
buffer and multiplies the field in place; the transforms (scipy.fft, one
worker) overwrite buffers the kernel owns. The input is never written to.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import Field2D, Grid, fft2, ifft2
from .medium import MediumParams, density_to_intensity

# Fraction of total spectral power a mode must carry to count as occupied
# when estimating the kinetic phase rate.
OCCUPIED_MODE_FLOOR = 1e-9

WARN_PHASE_PER_STEP = 0.5
ABORT_PHASE_PER_STEP = np.pi


@dataclass
class StepPlan:
    """Stepping schedule for one propagation.

    dz defaults to length / n_steps; when given explicitly it must satisfy
    n_steps * dz = length to 1e-12 relative. snapshot_every = 0 disables
    intermediate snapshots.
    """

    n_steps: int
    dz: float | None = None
    snapshot_every: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.dz is not None and self.dz <= 0:
            raise ValueError(f"dz must be positive, got {self.dz}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")

    def resolve_dz(self, length: float) -> float:
        if self.n_steps == 0:
            return 0.0
        dz = length / self.n_steps if self.dz is None else self.dz
        if abs(self.n_steps * dz - length) > 1e-12 * max(abs(length), 1.0):
            raise ValueError(
                f"n_steps * dz = {self.n_steps * dz!r} does not match the "
                f"medium length {length!r}"
            )
        return dz


@dataclass
class PropagationRecord:
    """Final field plus per-run diagnostics."""

    final_field: Field2D
    z_final: float
    n_steps: int
    dz: float
    power_trace: np.ndarray            # columns (z, power), one row per step boundary
    snapshots: list[tuple[float, Field2D]] = field(default_factory=list)
    max_phase_per_step: float = 0.0
    wall_time: float = 0.0

    def snapshot_fields(self) -> list[Field2D]:
        return [f for _, f in self.snapshots]


def kinetic_multiplier(grid: Grid, dz: float, k0: float, n0: float) -> np.ndarray:
    """Spectral factor exp(-i |k|^2 dz / (2 n0 k0)) for a kinetic step of length
    dz, built as the outer product of its separable y and x factors."""
    c = dz / (2.0 * n0 * k0)
    return np.outer(np.exp(-1j * c * grid.ky() ** 2), np.exp(-1j * c * grid.kx() ** 2))


class SplitStepKernel:
    """Precomputed factors and owned buffers for split steps of length dz."""

    def __init__(self, grid: Grid, medium: MediumParams, dz: float):
        self.grid, self.medium, self.dz = grid, medium, dz
        self.kerr = dz * medium.g
        self.saturation = (None if medium.i_sat is None
                           else density_to_intensity(1.0, medium.n0) / medium.i_sat)
        self.static = None if callable(medium.potential) else self._potential_terms(0.0)
        self.density, self.phase = np.empty((2, grid.ny, grid.nx))
        self.factor = np.empty((grid.ny, grid.nx), dtype=np.complex128)

    @cached_property
    def kinetic(self) -> tuple[np.ndarray, np.ndarray]:
        """(half, full) kinetic factors, built on first use: a lone kick skips them."""
        half = kinetic_multiplier(self.grid, self.dz / 2.0, self.medium.k0, self.medium.n0)
        return half, half * half

    def _potential_terms(self, z: float):
        """(phase term or None, amplitude factor) of the potential at z and
        the loss; the amplitude is a scalar when the decay is uniform."""
        m = self.medium
        dn = m.potential_at(z, (self.grid.ny, self.grid.nx))
        phase = None if dn is None else (self.dz * m.k0) * dn.real
        decay = 0.5 * m.alpha * self.dz
        if dn is not None and dn.imag.any():
            decay = decay + (self.dz * m.k0) * dn.imag
        gain = -float(np.min(decay))
        if gain > 0 and np.exp(2.0 * gain) > 10.0:
            warnings.warn(f"gain profile would grow power by more than 10x in one "
                          f"step (amplitude factor {np.exp(gain):.3g})", stacklevel=4)
        return phase, np.exp(-decay)

    def kick(self, values: np.ndarray, z: float) -> float:
        """Apply the full nonlinear step at z to values in place, with |E|^2
        frozen at entry; return the largest |phase| it applied."""
        density, phase, factor = self.density, self.phase, self.factor
        np.square(np.abs(values, out=density), out=density)
        np.multiply(density, self.kerr, out=phase)
        if self.saturation is not None:  # chi_eff = chi3 / (1 + I / I_sat)
            phase /= 1.0 + self.saturation * density
        potential_phase, amplitude = self.static or self._potential_terms(z)
        if potential_phase is not None:
            phase += potential_phase
        max_phase = max(float(phase.max()), -float(phase.min()))
        np.cos(phase, out=factor.real)
        np.sin(phase, out=factor.imag)
        values *= factor
        if np.ndim(amplitude) or amplitude != 1.0:
            values *= amplitude
        return max_phase

    def run(self, field_in: Field2D, plan: StepPlan, kinetic_phase: float) -> PropagationRecord:
        """Take plan.n_steps steps from a copy of field_in, merging adjacent half
        kinetic factors between snapshots; kinetic_phase is the guard's."""
        t0 = time.perf_counter()
        n_steps, every, dz, grid = plan.n_steps, plan.snapshot_every, self.dz, self.grid
        values = field_in.values.copy()
        power_trace = np.empty((n_steps + 1, 2))
        power_trace[0] = (0.0, np.vdot(values, values).real * grid.cell_area)
        snapshots, max_phase = [], 0.0
        half_kinetic, full_kinetic = self.kinetic
        merged = False  # values hold a spectrum carrying this step's leading half kick
        for step in range(n_steps):
            z_mid, z_next = (step + 0.5) * dz, (step + 1) * dz
            if not merged:
                values = fft2(values, overwrite_x=True)
                values *= half_kinetic
            values = ifft2(values, overwrite_x=True)
            step_phase = self.kick(values, z_mid)
            if step_phase > ABORT_PHASE_PER_STEP:
                raise RuntimeError(f"nonlinear phase per step reached {step_phase:.2f} rad "
                                   f"(> pi) at z = {z_mid:.6g}; refine the stepping plan")
            max_phase = max(max_phase, step_phase)
            values = fft2(values, overwrite_x=True)
            power_trace[step + 1] = (z_next, np.vdot(values, values).real * grid.cell_area)
            if not np.isfinite(power_trace[step + 1, 1]):
                raise FloatingPointError(f"non-finite power at z = {z_next:.6g}; "
                                         f"propagation aborted")
            snapshot = every and (step + 1) % every == 0 and step != n_steps - 1
            merged = not snapshot and step != n_steps - 1
            values *= full_kinetic if merged else half_kinetic
            if not merged:
                values = ifft2(values, overwrite_x=True)
            if snapshot:
                snapshots.append((z_next, field_in.with_values(values.copy())))
        final = field_in.with_values(values).validate_finite()
        if every:
            snapshots.append((self.medium.length, final.copy()))
        return PropagationRecord(
            final_field=final, z_final=self.medium.length, n_steps=n_steps, dz=dz,
            power_trace=power_trace, snapshots=snapshots,
            max_phase_per_step=kinetic_phase + max_phase,
            wall_time=time.perf_counter() - t0)


def kinetic_half_step(field_in: Field2D, dz: float, k0: float, n0: float) -> Field2D:
    """Apply half a kinetic step: exp(-i |k|^2 dz / (4 n0 k0)) in k-space."""
    spectrum = fft2(field_in.values)
    spectrum *= kinetic_multiplier(field_in.grid, dz / 2.0, k0, n0)
    return field_in.with_values(ifft2(spectrum, overwrite_x=True))


def nonlinear_step(field_in: Field2D, dz: float, medium: MediumParams,
                   z: float = 0.0) -> Field2D:
    """Full pointwise step: Kerr phase, potential phase, loss and gain.

    |E|^2 is frozen at step entry. The applied multiplier is
    exp(i dz (k0 Re dn + k0/(2 n0) chi_eff |E|^2)) *
    exp(-dz (alpha/2 + k0 Im dn)).
    """
    values = field_in.values.copy()
    SplitStepKernel(field_in.grid, medium, dz).kick(values, z)
    return field_in.with_values(values).validate_finite()


def occupied_kinetic_rate(field_in: Field2D, k0: float, n0: float) -> float:
    """Largest kinetic phase rate |k|^2 / (2 n0 k0) over occupied modes.

    A mode counts as occupied when it carries more than OCCUPIED_MODE_FLOOR
    of the total spectral power; this keeps the step-resolution guard tied
    to the field rather than to the grid Nyquist.
    """
    spectrum_power = np.abs(fft2(field_in.values)) ** 2
    total = float(np.sum(spectrum_power))
    if total == 0.0:
        return 0.0
    occupied = spectrum_power > OCCUPIED_MODE_FLOOR * total
    k2_max = float(np.max(field_in.grid.k_squared()[occupied]))
    return k2_max / (2.0 * n0 * k0)


def propagate(field_in: Field2D, medium: MediumParams, plan: StepPlan) -> PropagationRecord:
    """Propagate through the medium with symmetric Strang splitting.

    Snapshots are recorded every plan.snapshot_every steps (and at z = L).
    The power trace has one row per step boundary, computed in spectral
    space where it costs nothing extra. field_in is never written to.
    Raises FloatingPointError on non-finite samples and RuntimeError when
    the per-step phase exceeds ABORT_PHASE_PER_STEP.
    """
    field_in.validate_finite()
    if plan.n_steps == 0:
        return PropagationRecord(final_field=field_in.copy(), z_final=0.0, n_steps=0,
                                 dz=0.0, power_trace=np.array([[0.0, field_in.power()]]))
    dz = plan.resolve_dz(medium.length)
    kinetic_rate = occupied_kinetic_rate(field_in, medium.k0, medium.n0)
    fastest = dz * max(kinetic_rate, _nonlinear_rate(field_in, medium))
    if fastest >= WARN_PHASE_PER_STEP:
        warnings.warn(f"step size dz={dz:.3g} gives {fastest:.2f} rad of phase per step "
                      f"on occupied modes; results may be under-resolved", stacklevel=2)
    if fastest > ABORT_PHASE_PER_STEP:
        raise RuntimeError(f"step size dz={dz:.3g} gives {fastest:.2f} rad of phase per "
                           f"step (> pi); refine the stepping plan")
    return SplitStepKernel(field_in.grid, medium, dz).run(field_in, plan, dz * kinetic_rate)


def _nonlinear_rate(field_in: Field2D, medium: MediumParams) -> float:
    rate = abs(medium.g) * float(np.max(np.abs(field_in.values) ** 2))
    dn = medium.potential_at(0.0, field_in.values.shape)
    if dn is not None:
        rate += medium.k0 * float(np.max(np.abs(dn.real)))
    return rate


@dataclass
class RescaledField:
    """Dimensionless form of an output field with its fluid scales."""

    psi: Field2D
    tau: float
    xi: float
    z_nl: float
    density: float


def rescale_dimensionless(field_in: Field2D, medium: MediumParams,
                          density: float | None = None) -> RescaledField:
    """Normalize by the output density and return the fluid scales.

    density defaults to the spatial mean of |E|^2 on the grid (appropriate
    for quasi-homogeneous fluids). The returned scales are
    z_nl = 1 / (|g| rho), xi = sqrt(z_nl / (n0 k0)), tau = L / z_nl.
    """
    if medium.chi3 == 0.0:
        raise ValueError("rescaling requires a nonzero chi3")
    if density is None:
        density = float(np.mean(np.abs(field_in.values) ** 2))
    if density <= 0.0:
        raise ValueError("rescaling requires a positive output density")
    g_abs = abs(medium.g)
    z_nl = 1.0 / (g_abs * density)
    xi = np.sqrt(z_nl / medium.k_medium)
    tau = medium.length / z_nl
    psi = Field2D(grid=field_in.grid,
                  values=field_in.values / np.sqrt(density),
                  unit_tag="dimensionless")
    return RescaledField(psi=psi, tau=tau, xi=float(xi), z_nl=float(z_nl),
                         density=float(density))


def fluid_scales(medium: MediumParams, density: float) -> tuple[float, float, float]:
    """(z_nl, xi, c_s) for a homogeneous fluid of the given density."""
    g_abs = abs(medium.g)
    if g_abs == 0.0 or density <= 0.0:
        return np.inf, np.inf, 0.0
    z_nl = 1.0 / (g_abs * density)
    xi = float(np.sqrt(z_nl / medium.k_medium))
    dn_nl = medium.nonlinear_index_shift(density)
    c_s = float(np.sqrt(dn_nl / medium.n0))
    return z_nl, xi, c_s
