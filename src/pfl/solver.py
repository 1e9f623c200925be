"""Symmetric split-step spectral integrator for the paraxial envelope.

The propagation equation integrated here is

    i dE/dz = [ -1/(2 n0 k0) Lap_perp - k0 dn(r)
                - k0/(2 n0) chi3 |E|^2 - i alpha/2 ] E

with dn complex (Im dn > 0 is loss) and an optional saturable nonlinearity
chi_eff = chi3 / (1 + I/I_sat). Each step is a Strang composition: half a
kinetic step in spectral space, a full pointwise nonlinear step, half a
kinetic step. Between steps the field stays in spectral space with the
adjacent half steps merged, so a step costs one forward and one inverse
transform; a snapshot costs one more inverse transform.

One SplitStepKernel per propagate call precomputes the Kerr coefficient
dz k0 chi3 / (2 n0), the potential's phase term and the amplitude factor
a = exp(-dz (alpha/2 + k0 Im dn)) with 2a (scalars without a lossy
potential); its run builds the full-step kinetic factor. Its step loop and
kick take only stacks of fields that share the grid and the medium, in the
one layout below; propagate and nonlinear_step pass a lone field as the
stack B = 1. The kick and the half steps walk one list of blocks of about
plans.BLOCK_SITES sites, each with its views of preallocated block buffers:
the kick multiplies the field in place by one factor a exp(i phase), built
from tan(phase / 2), so the loss takes no pass of its own, and each half
step builds its factor from the separable y and x factors in the block's
factor view, so the kernel stores one plane-sized factor, not two. The transforms
(numpy.fft, one pass per axis) run in place on buffers the kernel owns; the
input is never written to. Snapshots and the final fields leave the loop
through one exit, _fields, which applies the half step into a new array.
propagate reads its input once into the kernel's stack and keeps no
reference to it, so a field the caller hands over (one that a generator
yields) is freed before the first step. It hands every member's snapshot
to a keep callback as it is made and stores only what keep returns, so a
run that keeps a density or a profile per snapshot never holds a list of
full fields. At its peak a propagation holds the kernel's stack, the full
factor, the kick's block buffers and one output stack, and the input only
where the caller keeps it; the propagate scenario hands its input over.

Every stack, of planes or of lines (B, 1, nx), is stepped in one layout,
a zero-padded buffer (B, ny, nx + ROW_PAD), ROW_PAD = 4 complex128 (one
64-byte line per row): unpadded, the rows of a power-of-two plane lie a
power of two apart, so the lines of a column transform map to the same
cache sets and evict each other (Frigo and Johnson, Proc. IEEE 93 (2005)
216). The transforms run in place on the [..., :nx] view, where pocketfft
does the same arithmetic on a line at any stride, so fields keep their
bits. The kick, the kinetic multiplies and the power sum run over whole
padded rows, whose pad starts and stays zero; the kick's blocks are
counted in field samples. On one core of a 2-vCPU x86 VM, a transform
pair with the kinetic multiply took 18-24% less on an (8, 64, 64) stack
and 4-5% less at 512^2 (see README). Fields handed out are C-contiguous
and unpadded, so a writer stores them without a copy.

The loop's transforms do not scale (numpy's "backward" forward and
"forward" inverse passes), which saves scaling every line: the factor
1/(nx ny) of each transform pair is folded into the kinetic factors, and
the power of an unscaled spectrum is divided by nx ny. Where each side is a
power of 4 the unitary passes scale by powers of two, so the fields keep
the bits of unitary passes; elsewhere they move in the last digits.

The step-resolution guard (the step-size limit of time-splitting spectral
methods; Bao, Jaksch and Markowich, J. Comput. Phys. 187 (2003)) runs in
SplitStepKernel.run on what the loop computes anyway: the kinetic phase
from the first forward transform, and the kick's peak phase at every step.
Its constants live in `rules`, as does the snapshot schedule that run and
propagate follow (snapshot_steps), so that `pfl validate` reads the same.
StepPlan and the block size, which also sets the scenarios' member stacks
(member_runs), live in the numpy-free `plans`, which says what each run
propagates.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from . import plans
from .grid import Field2D, Grid, fft2, ifft2
from .medium import MediumParams, density_to_intensity
from .plans import StepPlan
from .rules import ABORT_PHASE_PER_STEP, WARN_PHASE_PER_STEP, snapshot_steps

# Fraction of total spectral power a mode must carry to count as occupied
# when estimating the kinetic phase rate.
OCCUPIED_MODE_FLOOR = 1e-9

# Zero complex128 samples appended to each row of every kernel stack (one
# 64-byte cache line), so that the column transforms of a plane do not
# stride by a power of two.
ROW_PAD = 4


@dataclass
class PropagationRecord:
    """Final field plus per-run diagnostics."""

    final_field: Field2D
    z_final: float
    n_steps: int
    dz: float
    power_trace: np.ndarray            # columns (z, power), one row per step boundary
    # (z, keep(z, field)) per snapshot: the field itself unless propagate got a keep
    snapshots: list[tuple[float, Any]] = field(default_factory=list)
    max_phase_per_step: float = 0.0


def _kinetic_axes(grid: Grid, dz: float, k0: float, n0: float) -> tuple[np.ndarray, np.ndarray]:
    """The separable y and x factors exp(-i c ky^2) and exp(-i c kx^2),
    c = dz / (2 n0 k0), of a kinetic step of length dz."""
    c = dz / (2.0 * n0 * k0)
    return np.exp(-1j * c * grid.ky() ** 2), np.exp(-1j * c * grid.kx() ** 2)


def kernel_stack(arrays: Sequence[np.ndarray], grid: Grid) -> np.ndarray:
    """A new stack (B, ny, nx + ROW_PAD) of the (ny, nx) arrays in the
    kernel's layout, with zeros in the pad; each array is copied once."""
    values = np.zeros((len(arrays), grid.ny, grid.nx + ROW_PAD), dtype=np.complex128)
    for member, array in zip(values, arrays):
        member[:, :grid.nx] = array
    return values


def block_slices(n_members: int, ny: int, nx: int) -> list[tuple[slice, slice]]:
    """(members, rows) index pairs that cover a stack (B, ny, nx) in blocks of
    about plans.BLOCK_SITES sites: runs of whole members when a field is
    smaller (see plans.member_runs), runs of rows of one member when it is
    larger (64 rows at 512^2). Only the last block of a run may be smaller."""
    if ny * nx <= plans.BLOCK_SITES:
        return [(members, slice(None)) for members in plans.member_runs(n_members, ny, nx)]
    rows = max(1, plans.BLOCK_SITES // nx)
    return [(slice(m, m + 1), slice(r, min(r + rows, ny)))
            for m in range(n_members) for r in range(0, ny, rows)]


class SplitStepKernel:
    """Precomputed factors and owned buffers for split steps of length dz on
    a stack of fields (B, ny, nx) sharing the medium.
    run and kick take stacks in the kernel's layout (see kernel_stack): rows
    of width samples, nx of field and ROW_PAD of zeros."""

    def __init__(self, grid: Grid, medium: MediumParams, dz: float):
        self.grid, self.medium, self.dz = grid, medium, dz
        self.width = grid.nx + ROW_PAD
        # the y and x factors of a half kinetic step, from which the full
        # factor and each half step's are built
        self.half_axes = _kinetic_axes(grid, dz / 2.0, medium.k0, medium.n0)
        # the kick works on half the phase (halving is exact), see kick
        self.half_kerr = 0.5 * dz * medium.g
        self.saturation = (None if medium.i_sat is None
                           else density_to_intensity(1.0, medium.n0) / medium.i_sat)
        self.potential_half, self.amplitude = self._potential_terms()
        self.twice_amplitude = 2.0 * self.amplitude  # the kick's 2a, see kick
        # block buffers and ((B, ny, nx), per-block views), set by run or the first kick
        self.density = self.phase = self.factor = self.blocks = None

    def _half_step(self, values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Multiply the stack values by the half-step kinetic factor (times
        1/(nx ny), see run) in place, or into out (B, ny, nx) from the
        fields values[..., :nx]; return the result. The factor is built
        block by block (see block_slices) in each block's factor view, zero
        in the pad, with the bits of a whole-plane factor."""
        (ny, nx), (ey, ex) = (self.grid.ny, self.grid.nx), self.half_axes
        for members, rows, _, _, factor, *_ in self.blocks[1]:
            factor = factor[0]  # one member's rows, which broadcast over the block's members
            np.multiply(ey[rows, None], ex, out=factor[:, :nx])
            factor[:, nx:] = 0.0
            factor /= nx * ny
            if out is None:
                values[members, rows] *= factor
            else:
                np.multiply(values[members, rows, :nx], factor[:, :nx], out=out[members, rows])
        return values if out is None else out

    def _widen(self, terms):
        """An (ny, nx) array as (ny, width) with zeros in the pad; None or a
        scalar as it is."""
        if np.ndim(terms) < 2:
            return terms
        wide = np.zeros((self.grid.ny, self.width), dtype=terms.dtype)
        wide[:, :self.grid.nx] = terms
        return wide

    def _potential_terms(self):
        """(half phase term or None, amplitude factor) of the potential, whose
        samples must match the grid, and the loss; the amplitude is a scalar
        when the decay is uniform."""
        m, shape = self.medium, (self.grid.ny, self.grid.nx)
        half_phase, decay = None, 0.5 * m.alpha * self.dz
        if m.potential is not None:
            dn = np.asarray(m.potential)
            if dn.shape != shape:
                raise ValueError(f"potential shape {dn.shape} does not match grid {shape}")
            dn = dn.astype(np.complex128, copy=False)
            half_phase = (0.5 * self.dz * m.k0) * dn.real
            if dn.imag.any():
                decay = decay + (self.dz * m.k0) * dn.imag
        gain = -float(np.min(decay))
        if gain > 0 and np.exp(2.0 * gain) > 10.0:
            warnings.warn(f"gain profile would grow power by more than 10x in one "
                          f"step (amplitude factor {np.exp(gain):.3g})", stacklevel=4)
        return self._widen(half_phase), self._widen(np.exp(-decay))

    def kick(self, stack: np.ndarray) -> np.ndarray:
        """Apply the full nonlinear step in place to a stack (B, ny, width) in
        the kernel's layout (see kernel_stack), with |E|^2 frozen at entry;
        return the largest |phase| it applied to each field, shape (B,). The
        pad holds zeros, which stay zero and leave the peak phase as it is.
        The factor a exp(i phase), the loss folded in, comes from one
        transcendental, t = tan(phase / 2): with r = 2a / (1 + t^2),
        a cos = r - a and a sin = t r. The passes run block by block (see
        block_slices) in buffers of one block, not one stack; every operation
        is pointwise, so the result does not depend on the blocking."""
        if self.blocks is None or self.blocks[0] != stack.shape:
            self._size_blocks(stack)
        max_phase = np.zeros(len(stack))
        for members, rows, density, half, factor, re, im, potential, a, two_a in self.blocks[1]:
            block = stack[members, rows]
            # |E|^2 = re^2 + im^2, squared into the factor buffer as scratch
            np.square(block.view(np.float64), out=factor.view(np.float64))
            np.add(re, im, out=density)
            np.multiply(density, self.half_kerr, out=half)
            if self.saturation is not None:  # chi_eff = chi3 / (1 + I / I_sat)
                half /= 1.0 + self.saturation * density
            if potential is not None:
                half += potential
            peak = 2.0 * np.maximum(half.max(axis=(-2, -1)), -half.min(axis=(-2, -1)))
            np.maximum(max_phase[members], peak, out=max_phase[members])
            t, r = np.tan(half, out=half), density
            np.multiply(t, t, out=r)
            r += 1.0
            np.divide(two_a, r, out=r)
            np.multiply(t, r, out=im)
            np.subtract(r, a, out=re)
            block *= factor
        return max_phase

    def _size_blocks(self, stack: np.ndarray):
        """Allocate buffers for the largest block of the stack and record,
        per block, its (members, rows), its views of the buffers and its
        rows of the potential's half phase, a and 2a (a scalar as it is).
        Blocks are counted in field samples: the pad does not count. Raises
        ValueError unless the stack's rows are width samples wide."""
        if stack.ndim != 3 or stack.shape[-1] != self.width:
            raise ValueError(f"the kernel steps stacks (B, ny, {self.width}) in its layout "
                             f"(see kernel_stack), got {stack.shape}")
        blocks = block_slices(len(stack), self.grid.ny, self.grid.nx)
        shape = stack[blocks[0]].shape  # the first block is the largest
        self.density, self.phase = np.empty((2, *shape))
        self.factor = np.empty(shape, dtype=np.complex128)
        terms = (self.potential_half, self.amplitude, self.twice_amplitude)
        views = []
        for members, rows in blocks:
            n_members, n_rows = stack[members, rows].shape[:2]
            density, half, factor = (buffer[:n_members, :n_rows]
                                     for buffer in (self.density, self.phase, self.factor))
            views.append((members, rows, density, half, factor, factor.real, factor.imag,
                          *(term[rows] if np.ndim(term) else term for term in terms)))
        self.blocks = (stack.shape, views)

    def run(self, values: np.ndarray, plan: StepPlan,
            on_snapshot: Callable[[float, np.ndarray], None]) -> tuple:
        """Take plan.n_steps steps of the stack values in the kernel's layout
        (see kernel_stack), which the kernel owns and overwrites: the
        transforms run in place on its fields, the pointwise passes over the
        whole buffer. Each snapshot of snapshot_steps before the last step
        goes to on_snapshot(z, stack) as it is made. Returns the final
        stack, the power per step boundary and member (n_steps + 1, B) and
        each member's max_phase_per_step: its kinetic phase per step plus
        its largest kick phase, both passed through the step-resolution
        guard (_guard) as they are made. Snapshot and final stacks leave through
        _fields as new C-contiguous (B, ny, nx) arrays the callee may keep."""
        n_steps, dz = plan.n_steps, self.dz
        handed_out = set(snapshot_steps(n_steps, plan.snapshot_every)[:-1])
        (ny, nx), (ey, ex) = (self.grid.ny, self.grid.nx), self.half_axes
        power = np.empty((n_steps + 1, len(values)))
        power[0] = _stack_power(values, self.grid)
        max_phase = np.zeros(len(values))
        self._transform(fft2, values)
        # before the kinetic factor and the block buffers exist, so its
        # temporaries add no peak memory
        kinetic = self._kinetic_phase(values[..., :nx])
        warned = self._guard(kinetic, False)
        self._size_blocks(values)
        self._half_step(values)
        # the full-step factor, zero in the pad, times the 1/(nx ny) that the
        # unscaled transforms leave out, built in place so that no other
        # plane is made
        full_kinetic = np.zeros((ny, self.width), dtype=np.complex128)
        np.multiply(ey[:, None], ex, out=full_kinetic[:, :nx])
        full_kinetic *= full_kinetic
        full_kinetic /= nx * ny
        for step in range(n_steps):
            z_mid, z_next = (step + 0.5) * dz, (step + 1) * dz
            if step:  # the previous step's trailing half step merged with this one's leading half
                values *= full_kinetic
            self._transform(ifft2, values)
            step_phase = self.kick(values)
            if step == 0:
                first_phase = step_phase
            warned = self._guard(step_phase, warned, z_mid, first_phase)
            np.maximum(max_phase, step_phase, out=max_phase)
            self._transform(fft2, values)
            power[step + 1] = _stack_power(values, self.grid) / (nx * ny)
            if not np.isfinite(power[step + 1]).all():
                raise FloatingPointError(f"non-finite power at z = {z_next:.6g}; "
                                         f"propagation aborted")
            if step + 1 in handed_out:
                # unbound, so that no local holds the stack after the callback
                on_snapshot(z_next, self._fields(values))
        return self._fields(values), power, kinetic + max_phase

    def _fields(self, values: np.ndarray) -> np.ndarray:
        """The fields of the spectra values after the half step that ends a
        step: a new C-contiguous (B, ny, nx) array, the half step applied
        into it and inverse-transformed in place. values is not written to."""
        out = np.empty((len(values), self.grid.ny, self.grid.nx), dtype=np.complex128)
        return self._transform(ifft2, self._half_step(values, out))

    def _transform(self, transform: Callable, values: np.ndarray) -> np.ndarray:
        """Apply fft2 or ifft2 without scaling (see run) in place to the
        fields values[..., :nx] of a stack and return the stack. pocketfft
        does the same arithmetic on a line at any stride, so the fields get
        the bits of a transform of a contiguous copy."""
        transform(values[..., :self.grid.nx], overwrite_x=True, scaled=False)
        return values

    def _guard(self, phase: np.ndarray, warned: bool, z: float | None = None,
               first: np.ndarray | None = None) -> bool:
        """The step-resolution guard on each member's phase per step: the
        kinetic phase (z None), or the kick's at z with the first kick's.
        Raises RuntimeError above ABORT_PHASE_PER_STEP, checked first; else
        warns at or above WARN_PHASE_PER_STEP unless warned. Returns warned."""
        peak = float(phase.max())
        if peak > ABORT_PHASE_PER_STEP:
            at = ("" if z is None else
                  f" at z = {z:.6g}, from {first[phase.argmax()]:.2f} rad at the first step")
            raise RuntimeError(f"step size dz={self.dz:.3g} gives {peak:.2f} rad of phase per "
                               f"step (> pi){at}; refine the stepping plan")
        if peak >= WARN_PHASE_PER_STEP and not warned:
            where = "on occupied modes" if z is None else f"at z = {z:.6g}"
            warnings.warn(f"step size dz={self.dz:.3g} gives {peak:.2f} rad of phase per step "
                          f"{where}; results may be under-resolved", stacklevel=4)
            return True
        return warned

    def _kinetic_phase(self, spectrum: np.ndarray) -> np.ndarray:
        """dz |k|^2 / (2 n0 k0) at each member's highest occupied |k| (see
        OCCUPIED_MODE_FLOOR), which ties the guard to the field, not the grid."""
        mode_power = np.abs(spectrum)
        mode_power *= mode_power
        occupied = mode_power > OCCUPIED_MODE_FLOOR * mode_power.sum(axis=(-2, -1),
                                                                     keepdims=True)
        m = self.medium
        return self.dz * (np.where(occupied, self.grid.k_squared(), 0.0).max(axis=(-2, -1)) / (2.0 * m.n0 * m.k0))


def _stack_power(values: np.ndarray, grid: Grid) -> np.ndarray:
    """The power of each field of a contiguous stack (B, ny, width), zeros of
    the pad included (of an unscaled spectrum, nx ny times the power). A sum
    of squares over the float64 view, not through BLAS, so that the result
    does not depend on the BLAS thread count."""
    parts = values.view(np.float64).reshape(len(values), -1)
    return np.einsum("ij,ij->i", parts, parts) * grid.cell_area


def nonlinear_step(field_in: Field2D, dz: float, medium: MediumParams,
                   z: float = 0.0) -> Field2D:
    """Full pointwise step: Kerr phase, potential phase, loss and gain.

    |E|^2 is frozen at step entry. The applied multiplier is
    exp(i dz (k0 Re dn + k0/(2 n0) chi_eff |E|^2)) *
    exp(-dz (alpha/2 + k0 Im dn)). The potential does not depend on z, so
    z has no effect; it is kept for callers that pass it.
    """
    grid = field_in.grid
    values = kernel_stack([field_in.values], grid)
    SplitStepKernel(grid, medium, dz).kick(values)
    return field_in.with_values(np.ascontiguousarray(values[0, :, :grid.nx])).validate_finite()


def _read_stack(field_in: Field2D | Iterable[Field2D]) -> tuple[Grid, np.ndarray]:
    """The grid of field_in, one field or an iterable of fields on one grid
    read once, and a new kernel stack of its checked values. Nothing else
    holds the fields when it returns."""
    arrays = []
    for f in [field_in] if isinstance(field_in, Field2D) else field_in:
        if arrays and f.grid != grid:
            raise ValueError("stacked fields must share one grid")
        grid = f.grid
        arrays.append(f.validate_finite().values)
    if not arrays:
        raise ValueError("propagate needs at least one field")
    return grid, kernel_stack(arrays, grid)


def propagate(field_in: Field2D | Iterable[Field2D], medium: MediumParams,
              plan: StepPlan, keep: Callable[[float, Field2D], Any] | None = None
              ) -> PropagationRecord | list[PropagationRecord]:
    """Propagate through the medium with symmetric Strang splitting.

    field_in is one field, or an iterable of fields on one grid that runs as
    one (B, ny, nx) stack through the same step loop and returns a list of
    records in member order. Each member's final field and snapshots equal
    those of a lone call bit for bit. field_in is read once, copied into the
    kernel's stack and never written to; propagate keeps no reference to
    it or its fields, so a field that only an iterable such as a generator
    holds is freed before the first step.
    Snapshots are taken after the steps snapshot_steps lists, z = L among
    them, none without steps. Each
    member's record stores (z, keep(z, member_field)) as the snapshot is
    made, so nothing else holds the field once keep returns; the default
    keep stores the field itself. keep is called in z order and, at each z,
    in member order; the field it gets is its own to keep. The power trace
    has one row per step boundary, computed in spectral space where it
    costs nothing extra.
    Raises FloatingPointError on non-finite samples and RuntimeError when
    the per-step phase exceeds ABORT_PHASE_PER_STEP.
    """
    lone = isinstance(field_in, Field2D)
    grid, stack = _read_stack(field_in)
    if plan.n_steps == 0:
        records = [PropagationRecord(
            final_field=Field2D(grid=grid, values=member[:, :grid.nx].copy()), z_final=0.0,
            n_steps=0, dz=0.0, power_trace=np.array([[0.0, p0]]))
            for member, p0 in zip(stack, _stack_power(stack, grid))]
        return records[0] if lone else records
    dz = plan.resolve_dz(medium.length)
    keep = keep or (lambda z, field: field)
    snapshots = [[] for _ in stack]

    def hand_off(z: float, fields: np.ndarray):
        for member, kept in zip(fields, snapshots):
            kept.append((z, keep(z, Field2D(grid=grid, values=member))))

    final, power, max_phase = SplitStepKernel(grid, medium, dz).run(stack, plan, hand_off)
    del stack  # overwritten by the kernel, and freed before the final fields are handed out
    finals = [Field2D(grid=grid, values=v).validate_finite() for v in final]
    if plan.n_steps in snapshot_steps(plan.n_steps, plan.snapshot_every):
        hand_off(medium.length, final.copy())
    z = np.arange(plan.n_steps + 1) * dz
    records = [PropagationRecord(
        final_field=final_field, z_final=medium.length, n_steps=plan.n_steps, dz=dz,
        power_trace=np.column_stack((z, power[:, b])), snapshots=snapshots[b],
        max_phase_per_step=float(max_phase[b]))
        for b, final_field in enumerate(finals)]
    return records[0] if lone else records
