import re
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pfl import plans, rules, solver
from pfl.grid import Field2D, Grid, fft2, ifft2, make_grid
from pfl.medium import MediumParams, density_to_intensity, fluid_scales
from pfl.solver import SplitStepKernel, StepPlan, nonlinear_step, propagate
from pfl.sources import gaussian_beam, plane_wave

from conftest import WAVELENGTH, defocusing_setup


def measured_waist(field):
    """1/e^2 intensity radius from the second moment, w = 2 sqrt(<x^2>)."""
    rho = field.density()
    x = field.grid.x_coords()
    marg = rho.sum(axis=0)
    return 2.0 * np.sqrt(float((marg * x**2).sum() / marg.sum()))


def kinetic_multiplier(grid, dz, k0, n0):
    """Spectral factor exp(-i |k|^2 dz / (2 n0 k0)) of a kinetic step of
    length dz: the outer product of exp(-i c ky^2) and exp(-i c kx^2),
    c = dz / (2 n0 k0), which has the bits of the kernel's factors."""
    c = dz / (2.0 * n0 * k0)
    return np.outer(np.exp(-1j * c * grid.ky() ** 2), np.exp(-1j * c * grid.kx() ** 2))


def half_kinetic(field, dz, k0, n0):
    """Half a kinetic step, exp(-i |k|^2 dz / (4 n0 k0)) in k-space."""
    spectrum = fft2(field.values) * kinetic_multiplier(field.grid, dz / 2.0, k0, n0)
    return field.with_values(ifft2(spectrum, overwrite_x=True))


KICK_CASES = ["loss", "static_loss", "static_gain", "saturation", "large_phase"]
KICK_DZ = 1e-3
LINE_GRID = Grid(256, 1, 5e-6, 5e-6)  # a probe line (1, 256), as dispersion steps


def kick_case(grid, case):
    """(values, medium) of one fast path of the kick on grid."""
    xx, yy = grid.meshgrid()
    rng = np.random.default_rng(5)
    values = (1.0 + 0.5 * np.exp(-(xx**2 + yy**2) / (1.5e-4) ** 2)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, xx.shape))
    density = np.abs(values) ** 2
    k0 = 2 * np.pi / WAVELENGTH
    kerr_rad = 4.0 if case == "large_phase" else 0.3  # Kerr phase up to kerr_rad / n0
    chi3 = -kerr_rad * 2.0 / (k0 * KICK_DZ * np.max(density))
    landscape = 2e-6 * np.cos(xx / 4e-5) * np.sin(yy / 7e-5)
    potential = {"static_loss": landscape + 1e-5j * (1.0 + np.sin(xx / 5e-5)),
                 "static_gain": landscape - 3e-5j * np.exp(-(yy / 1e-4) ** 2)}.get(case)
    i_sat = float(density_to_intensity(np.mean(density), 1.3))  # I_sat at the mean density
    med = MediumParams(wavelength=WAVELENGTH, n0=1.3, chi3=chi3, alpha=40.0, length=1.0,
                       potential=potential, i_sat=i_sat if case == "saturation" else None)
    return values, med


class TestKineticStep:
    def test_plane_wave_unchanged(self, small_grid):
        f = plane_wave(small_grid, 100.0, 1.0)
        out = half_kinetic(f, 1e-3, 2 * np.pi / WAVELENGTH, 1.0)
        assert np.allclose(out.values, f.values, atol=1e-13)

    def test_single_mode_pure_phase(self, small_grid):
        xx, _ = small_grid.meshgrid()
        k = 4 * (2 * np.pi / small_grid.extent_x)
        f = Field2D(grid=small_grid, values=np.exp(1j * k * xx))
        out = half_kinetic(f, 1e-3, 2 * np.pi / WAVELENGTH, 1.0)
        assert np.allclose(np.abs(out.values), 1.0, atol=1e-14)

    def test_gaussian_diffraction_oracle(self):
        # analytic beam: w(z_R) = w0 sqrt(2), z_R = pi w0^2 / lambda
        w0 = 100e-6
        z_r = np.pi * w0**2 / WAVELENGTH
        assert z_r == pytest.approx(40.27e-3, rel=1e-3)
        g = make_grid(256, 256, 4e-6)
        beam = gaussian_beam(g, w0, 1.0, 1.0)
        k0 = 2 * np.pi / WAVELENGTH
        n_steps = 32
        dz = z_r / n_steps
        f = beam
        for _ in range(2 * n_steps):  # two half steps per dz
            f = half_kinetic(f, dz, k0, 1.0)
        assert measured_waist(f) == pytest.approx(w0 * np.sqrt(2.0), rel=5e-3)


class TestNonlinearStep:
    def test_identity_when_all_zero(self, small_grid):
        f = plane_wave(small_grid, 50.0, 1.0)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=1.0)
        out = nonlinear_step(f, 1e-3, med)
        assert np.array_equal(out.values, f.values)

    def test_plane_wave_global_phase_only(self, small_grid):
        f = plane_wave(small_grid, 50.0, 1.0)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=1.0)
        out = nonlinear_step(f, 1e-3, med)
        assert np.allclose(out.density(), f.density(), rtol=1e-14)
        phases = np.angle(out.values / f.values)
        assert np.ptp(phases) < 1e-14

    def test_absorption_factor(self, small_grid):
        # P ratio per step is exp(-alpha dz) = exp(-0.1) ~ 0.904837
        f = plane_wave(small_grid, 50.0, 1.0)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, alpha=10.0,
                           length=1.0)
        out = nonlinear_step(f, 0.01, med)
        assert out.power() / f.power() == pytest.approx(np.exp(-0.1), rel=1e-12)
        assert np.exp(-0.1) == pytest.approx(0.904837, rel=1e-6)

    def test_gain_warns_when_explosive(self, small_grid):
        f = plane_wave(small_grid, 50.0, 1.0)
        gain = np.full((64, 64), -1.0e-5j)  # negative Im dn = gain
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0,
                           potential=gain, length=1.0)
        with pytest.warns(UserWarning, match="gain"):
            out = nonlinear_step(f, 0.02, med)
        assert out.power() > 10.0 * f.power()

    def test_saturation_reduces_phase(self, small_grid):
        f = plane_wave(small_grid, 5e4, 1.0)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=1.0)
        med_sat = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20,
                               length=1.0, i_sat=5e4)
        full = np.angle(nonlinear_step(f, 1e-3, med).values / f.values)[0, 0]
        sat = np.angle(nonlinear_step(f, 1e-3, med_sat).values / f.values)[0, 0]
        assert sat == pytest.approx(full / 2.0, rel=1e-10)  # I = I_sat halves chi

    @pytest.mark.parametrize("case", KICK_CASES)
    def test_kick_matches_literal_formula(self, small_grid, case):
        # each fast path of the kick against values * exp(1j*phase - decay),
        # on a plane and on a line; large_phase drives tan(phase / 2) of the
        # half-angle kick far from 0
        for grid in (small_grid, LINE_GRID):
            values, med = kick_case(grid, case)
            f = Field2D(grid=grid, values=values)
            density = np.abs(values) ** 2
            k0 = 2 * np.pi / WAVELENGTH
            dz, chi3 = KICK_DZ, med.chi3

            chi_eff = chi3
            if med.i_sat is not None:
                chi_eff = chi3 / (1.0 + density_to_intensity(density, med.n0) / med.i_sat)
                assert np.ptp(chi_eff / chi3) > 0.1  # saturation is far from negligible
            phase = dz * (k0 / (2.0 * med.n0)) * chi_eff * density
            decay = np.full_like(density, 0.5 * med.alpha * dz)
            dn = med.potential
            if dn is not None:
                phase = phase + dz * k0 * dn.real
                decay = decay + dz * k0 * dn.imag
            assert (np.min(decay) < 0) == (case == "static_gain")
            assert (np.max(np.abs(phase)) > 3.0) == (case == "large_phase")
            expected = values * np.exp(1j * phase - decay)

            out = nonlinear_step(f, dz, med)
            np.testing.assert_allclose(out.values, expected, rtol=1e-13, atol=0)
            kernel = SplitStepKernel(grid, med, dz)
            max_phase = kernel.kick(solver.kernel_stack([values], grid))
            assert max_phase == pytest.approx(np.max(np.abs(phase)), rel=1e-13)
            # the factor built from tan(phase / 2) has the modulus of the
            # amplitude factor a (zero in the pad of an array) to a few ulp
            a = kernel.amplitude
            assert np.all(np.abs(np.abs(kernel.factor) - a) <= 4 * np.finfo(float).eps * a)


class TestBlockedKick:
    """The kick runs its passes over blocks of about BLOCK_SITES sites; the
    blocking must not change a bit of the result, and its buffers must stay
    one block in size."""

    @staticmethod
    def kick(monkeypatch, block_sites, grid, medium, values):
        monkeypatch.setattr(plans, "BLOCK_SITES", block_sites)
        stack = solver.kernel_stack(values, grid)
        max_phase = SplitStepKernel(grid, medium, KICK_DZ).kick(stack)
        return stack[..., :grid.nx], max_phase

    def test_block_slices_cover_the_stack(self, monkeypatch):
        monkeypatch.setattr(plans, "BLOCK_SITES", 24 * 64)
        assert solver.block_slices(1, 64, 64) == [
            (slice(0, 1), slice(0, 24)), (slice(0, 1), slice(24, 48)),
            (slice(0, 1), slice(48, 64))]
        monkeypatch.setattr(plans, "BLOCK_SITES", 2**15)
        assert solver.block_slices(10, 64, 64) == [(slice(0, 8), slice(None)),
                                                  (slice(8, 10), slice(None))]
        assert len(solver.block_slices(2, 512, 512)) == 16  # 64 rows of each member
        assert solver.block_slices(1, 3, 2**16) == [(slice(0, 1), slice(r, r + 1))
                                                   for r in range(3)]  # rows wider than a block

    @pytest.mark.parametrize("n, members, rows", [(64, 8, 64), (512, 1, 64)])
    def test_padded_stacks_block_by_field_samples(self, n, members, rows):
        # the pad does not count: 8 members of 64^2 are one block, and a
        # 512^2 plane runs 8 blocks of 64 rows, not 9 of 63 and a tail
        grid = make_grid(n, n, 5e-6)
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-10, length=1.0)
        kernel = SplitStepKernel(grid, medium, KICK_DZ)
        stack = solver.kernel_stack([np.ones((n, n))] * members, grid)
        kernel.kick(stack)
        blocks = [(block_members, block_rows)
                  for block_members, block_rows, *_ in kernel.blocks[1]]
        assert blocks == [(slice(0, members), slice(r, r + rows) if rows < n else slice(None))
                          for r in range(0, n, rows)]
        assert kernel.factor.shape == (members, rows, n + solver.ROW_PAD)

    @pytest.mark.parametrize("case", KICK_CASES)
    def test_blocked_kick_matches_single_block(self, small_grid, case, monkeypatch):
        values, med = kick_case(small_grid, case)
        stack = np.stack([values, 0.8 * values[::-1], 1.1 * np.conj(values)])
        whole = 3 * 64 * 64  # the stack is one block
        for field in (values[None], stack):
            ref, ref_phase = self.kick(monkeypatch, whole, small_grid, med, field)
            # 24 + 24 + 16 rows of each member, then runs of 2 + 1 members
            for block_sites in (24 * 64, 2 * 64 * 64):
                out, phase = self.kick(monkeypatch, block_sites, small_grid, med, field)
                assert np.array_equal(out, ref)
                assert np.array_equal(phase, ref_phase)
                assert np.shape(phase) == np.shape(ref_phase) == field.shape[:-2]

    def test_blocked_propagate_matches_unblocked(self, monkeypatch):
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        xx, yy = grid.meshgrid()
        landscape = 1e-7 * np.cos(xx / 3e-5) + 2e-8j * (1.0 + np.sin(yy / 5e-5))
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=medium.chi3, alpha=5.0,
                              potential=landscape, length=medium.length)
        members = [Field2D(grid=grid, values=1.0 + 0.3 * np.exp(-((xx - x0)**2 + yy**2)
                                                                 / 4e-5**2 + 0.4j))
                   for x0 in (-3e-5, 1e-5)]
        plan = StepPlan(n_steps=12, snapshot_every=5)
        records = {}
        for block_sites in (2**15, 24 * 64):  # one block against 24 + 24 + 16 rows
            monkeypatch.setattr(plans, "BLOCK_SITES", block_sites)
            records[block_sites] = [propagate(members[0], medium, plan),
                                    *propagate(members, medium, plan)]
        for whole, blocked in zip(records[2**15], records[24 * 64]):
            assert np.array_equal(blocked.final_field.values, whole.final_field.values)
            assert np.array_equal(blocked.power_trace, whole.power_trace)
            assert blocked.max_phase_per_step == whole.max_phase_per_step
            assert len(blocked.snapshots) == len(whole.snapshots) == 2
            for (z_b, s_b), (z_w, s_w) in zip(blocked.snapshots, whole.snapshots):
                assert z_b == z_w and np.array_equal(s_b.values, s_w.values)

    def test_kick_allocates_less_than_one_real_field(self):
        # at 512^2 the kick's buffers are one 64-row block, not the field:
        # its peak stays below one float64 field (2 MB), where full-size
        # density, phase and factor buffers took 8 MB
        grid = make_grid(512, 512, 5e-6)
        xx, yy = grid.meshgrid()
        landscape = 1e-7 * np.cos(xx / 3e-5) + 2e-8j * (1.0 + np.sin(yy / 5e-5))
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-10, alpha=5.0,
                              potential=landscape, length=1.0)
        values = np.exp(0.1j * xx / 5e-6) * (1.0 + 0.1 * np.cos(yy / 4e-5))
        kernel = SplitStepKernel(grid, medium, KICK_DZ)
        stack = solver.kernel_stack([values], grid)
        tracemalloc.start()
        try:
            kernel.kick(stack)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 512 * 8


def lossy_kerr(grid):
    """A defocusing Kerr medium with loss and a static complex potential."""
    xx, yy = grid.meshgrid()
    landscape = 1e-7 * np.cos(xx / 3e-5) + 2e-8j * (1.0 + np.sin(yy / 5e-5))
    k0 = 2 * np.pi / WAVELENGTH
    return MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-0.3 / (k0 * 1e-4),
                        alpha=5.0, potential=landscape, length=12e-4)


def padded_case():
    """A lossy Kerr run at 256^2, where the kernel pads its rows, with a
    static complex potential and snapshots: (start, medium, plan)."""
    grid = make_grid(256, 256, 5e-6)
    xx, yy = grid.meshgrid()
    start = Field2D(grid=grid, values=np.exp(-(xx**2 + yy**2) / 2e-4**2
                                             + 0.2j * np.sin(xx / 4e-5)))
    return start, lossy_kerr(grid), StepPlan(n_steps=12, snapshot_every=5)


def bump_stack(nx, ny, members):
    """padded_case's run on a stack of members (ny, nx), lines when ny = 1:
    each a plane wave with a bump and a phase ripple, both periodic on the
    grid, at its own x0: (fields, medium, plan)."""
    grid = make_grid(nx, ny, 5e-6) if ny > 1 else Grid(nx, ny, 5e-6, 5e-6)
    xx, yy = grid.meshgrid()
    width, k_ripple = grid.extent_x / 10, 6 * np.pi / grid.extent_x
    fields = [Field2D(grid=grid, values=(1.0 + 0.3 * np.exp(-((xx - x0)**2 + yy**2) / width**2))
                      * np.exp(0.2j * np.sin(k_ripple * xx + x0 / width)))
              for x0 in np.linspace(-width, width, members)]
    return fields, lossy_kerr(grid), StepPlan(n_steps=12, snapshot_every=5)


def unitary_loop(fields, medium, plan, scaled=True):
    """The kernel's order with unitary transforms on a contiguous stack:
    transform, half kinetic, then per step inverse transform, kick,
    transform, merged kinetic, with whole-plane half and full factors
    stored up front. With scaled False the transforms do not scale and
    1/(nx ny) is folded into both factors and the power, as in the kernel.
    Returns (finals, snapshots, power), the snapshots before z = L and the
    power (n_steps + 1, B)."""
    grid, dz = fields[0].grid, plan.resolve_dz(medium.length)
    kernel = SplitStepKernel(grid, medium, dz)
    sites = 1 if scaled else grid.nx * grid.ny
    half = kinetic_multiplier(grid, dz / 2.0, medium.k0, medium.n0)
    full = half * half / sites
    half = half / sites
    values = np.stack([f.values for f in fields])
    power = [np.sum(np.abs(values) ** 2, axis=(-2, -1)) * grid.cell_area]
    spectrum = fft2(values, scaled=scaled) * half
    snapshots = []
    for step in range(plan.n_steps):
        stack = solver.kernel_stack(ifft2(spectrum, scaled=scaled), grid)
        kernel.kick(stack)
        values = stack[..., :grid.nx]
        spectrum = fft2(values, scaled=scaled)
        power.append(np.sum(np.abs(spectrum) ** 2, axis=(-2, -1)) * grid.cell_area / sites)
        last = step == plan.n_steps - 1
        if (step + 1) % plan.snapshot_every == 0 and not last:
            snapshots.append(ifft2(spectrum * half, scaled=scaled))
        spectrum = spectrum * (half if last else full)
    return ifft2(spectrum, scaled=scaled), snapshots, np.array(power)


class TestPaddedLayout:
    """Planes and lines are stepped in a buffer whose rows carry ROW_PAD
    zeros, with transforms that do not scale; the fields they give must be
    the bits of the unpadded unitary arithmetic where each side is a power
    of 4, and agree with it to rounding elsewhere."""

    def test_padding_rule(self):
        # one layout for every stack: a line's rows are padded like a plane's
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-10, length=1.0)
        for nx, ny in ((512, 512), (256, 256), (64, 64), (256, 1)):
            grid = Grid(nx, ny, 5e-6, 5e-6)
            assert SplitStepKernel(grid, medium, KICK_DZ).width == nx + solver.ROW_PAD
            stack = solver.kernel_stack([np.ones((ny, nx)), 2j * np.ones((ny, nx))], grid)
            assert stack.shape == (2, ny, nx + solver.ROW_PAD) and stack.flags.c_contiguous
            assert not stack[..., nx:].any()

    @pytest.mark.parametrize("ny", [64, 1])
    def test_kick_refuses_a_stack_outside_the_layout(self, ny):
        # an unpadded (B, ny, nx) stack is refused, even where no potential
        # or amplitude array would fail to broadcast against its rows
        grid = Grid(64, ny, 5e-6, 5e-6)
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-10, length=1.0)
        kernel = SplitStepKernel(grid, medium, KICK_DZ)
        with pytest.raises(ValueError, match="kernel_stack"):
            kernel.kick(np.ones((2, ny, 64), dtype=np.complex128))

    def test_padded_run_does_the_unpadded_arithmetic(self):
        start, medium, plan = padded_case()
        record = propagate(start, medium, plan)
        kernel = SplitStepKernel(start.grid, medium, plan.resolve_dz(medium.length))
        assert kernel.width == start.grid.nx + solver.ROW_PAD
        finals, snapshots, power = unitary_loop([start], medium, plan)
        assert np.array_equal(record.final_field.values, finals[0])
        assert len(record.snapshots) == len(snapshots) == 2
        for (_, snap), expected in zip(record.snapshots, snapshots):
            assert np.array_equal(snap.values, expected[0])
        np.testing.assert_allclose(record.power_trace[:, 1], power[:, 0], rtol=1e-13, atol=0)

    @pytest.mark.parametrize("nx, ny, members, tol", [
        (64, 64, 8, 0.0), (256, 1, 5, 0.0),  # sides of powers of 4: the same bits
        (128, 128, 1, 1e-12), (512, 512, 1, 1e-12),
        # the half steps build their factor 64 + 32 rows at a time
        (512, 96, 2, 1e-12)])
    def test_unscaled_run_matches_the_unitary_arithmetic(self, nx, ny, members, tol):
        # fields and snapshots within tol of the unitary reference's peak
        # sample, and the bits of the unscaled one, whose whole-plane half
        # factor is stored
        fields, medium, plan = bump_stack(nx, ny, members)
        records = propagate(fields, medium, plan)
        unitary, stored = (unitary_loop(fields, medium, plan, scaled) for scaled in (True, False))
        for b, record in enumerate(records):
            got = [record.final_field.values, *(snap.values for _, snap in record.snapshots)]
            for (finals, snapshots, power), atol in ((unitary, tol), (stored, 0.0)):
                references = [finals[b], *(snap[b] for snap in snapshots)]
                assert len(got) == len(references) == 3
                for values, reference in zip(got, references):
                    np.testing.assert_allclose(values, reference, rtol=0,
                                               atol=atol * np.abs(reference).max())
                np.testing.assert_allclose(record.power_trace[:, 1], power[:, b],
                                           rtol=1e-13, atol=0)

    def test_transforms_of_contiguous_copies_give_the_same_bytes(self, monkeypatch):
        # the kernel transforms its padded fields in place through a strided
        # view; pocketfft must give the bits of a contiguous copy's transform
        calls = {"fft2": 0, "ifft2": 0}

        def on_a_copy(name, transform):
            def run(values, overwrite_x=False, scaled=True):
                calls[name] += 1
                values[...] = transform(np.ascontiguousarray(values), scaled=scaled)
                return values
            return run

        start, medium, plan = padded_case()
        records = [propagate(start, medium, plan)]
        monkeypatch.setattr(solver, "fft2", on_a_copy("fft2", fft2))
        monkeypatch.setattr(solver, "ifft2", on_a_copy("ifft2", ifft2))
        records.append(propagate(start, medium, plan))
        # 12 steps, 2 snapshots before z = L
        assert calls == {"fft2": 1 + 12, "ifft2": 12 + 2 + 1}
        in_place, copied = records
        assert in_place.final_field.values.tobytes() == copied.final_field.values.tobytes()
        assert in_place.power_trace.tobytes() == copied.power_trace.tobytes()
        assert len(in_place.snapshots) == len(copied.snapshots) == 2
        for (_, a), (_, b) in zip(in_place.snapshots, copied.snapshots):
            assert a.values.tobytes() == b.values.tobytes()

    def test_fields_handed_out_are_contiguous_and_unpadded(self):
        start, medium, plan = padded_case()
        shape = (start.grid.ny, start.grid.nx)
        for record in (propagate(start, medium, plan), *propagate([start, start], medium, plan)):
            for field in (record.final_field, *(snap for _, snap in record.snapshots)):
                assert field.values.shape == shape and field.values.flags.c_contiguous


def handed_out_steps(plan):
    """The steps after which the kernel hands out a snapshot, by unitary_loop's
    modulo test: each multiple of snapshot_every before the last step."""
    every = plan.snapshot_every
    return [step + 1 for step in range(plan.n_steps)
            if every and (step + 1) % every == 0 and step < plan.n_steps - 1]


class TestSnapshotSchedule:
    """rules.snapshot_steps is the one schedule: the kernel hands out a
    snapshot after each of its steps it lists, all before the last, and
    `pfl validate` counts them; the field at z = L is the final field."""

    def test_the_schedule_is_the_modulo_loop_before_the_last_step(self):
        for n_steps in range(30):
            for every in range(12):
                plan = StepPlan(n_steps, every)
                assert rules.snapshot_steps(n_steps, every) == handed_out_steps(plan)
                assert n_steps not in rules.snapshot_steps(n_steps, every)
        # the bogoliubov-256 workload's last snapshots, 5 steps before z = L
        assert rules.snapshot_steps(525, 10)[-3:] == [500, 510, 520]

    def test_tracked_snapshots_refuses_the_plans_it_refused_with_a_z_l_snapshot(self):
        # the count once held a snapshot at z = L for a plan with steps and
        # snapshots, against a minimum of 4; the plans refused are the same
        for n_steps in range(61):
            for every in range(21):
                before = (len(range(every, n_steps, every)) if every else 0) + (
                    n_steps > 0 and every > 0)
                try:
                    rules.tracked_snapshots(n_steps, every)
                except ValueError:
                    refused = True
                else:
                    refused = False
                assert refused == (before < 4), (n_steps, every)

    def test_a_plan_without_snapshots_is_not_tracked(self):
        with pytest.raises(ValueError, match=r"^the plan makes 0 snapshots \(240 steps, one "
                                             r"every 0\); reading a probe's modes needs"):
            rules.tracked_snapshots(240, 0)

    # (calls, stack shape, n_steps, snapshots) of SplitStepKernel.run in a
    # run of each shipped config and of each benchmark workload at seed 1,
    # as a spy counted them before the plans module existed, less the one
    # at z = L that propagate then copied from the final field
    KERNEL_RUNS = {
        "bogoliubov_dispersion": [(1, (5, 1, 132), 240, 29)],
        "sound_scaling": [(5, (1, 1, 260), 375, 53)],
        "precondensation": [(4, (2, 128, 132), 60, 0)],
        "structure_factor": [(12, (8, 64, 68), 180, 0), (1, (4, 64, 68), 180, 0)],
        "propagate_gaussian": [(1, (1, 256, 260), 300, 5)],
        "vortex_pair": [(1, (1, 256, 260), 200, 0)],
        "gem": [], "fifo_filo": [], "gem_efficiency_sweep": [],
        "beam-512": [(1, (1, 512, 516), 300, 5)],
        "sf-ensemble-64": [(25, (8, 64, 68), 160, 0)],
        "bogoliubov-256": [(1, (5, 1, 260), 525, 52)],
    }

    # the one warning of these runs: the sf-ensemble-64 workload steps at
    # 0.54-0.56 rad per step on occupied modes, past the warning's 0.5
    OCCUPIED_MODES = (r"step size dz=\S+ gives 0\.5[4-6] rad of phase per step on occupied "
                      r"modes; results may be under-resolved")

    @pytest.mark.parametrize("name", KERNEL_RUNS)
    def test_each_shipped_run_makes_the_snapshots_of_its_schedule(self, name, shipped_runs):
        # every propagation of the run steps what `pfl validate` planned:
        # its stack, steps and snapshots, dz bit for bit
        run = shipped_runs[name]
        planned, stepped = run.planned, run.kernel_runs
        assert bool(run.warnings) == (name == "sf-ensemble-64")
        assert [w for w in run.warnings
                if w[0] != "UserWarning" or not re.fullmatch(self.OCCUPIED_MODES, w[1])] == []
        expected = [(shape, steps, snapshots)
                    for calls, shape, steps, snapshots in self.KERNEL_RUNS[name]
                    for _ in range(calls)]
        assert [(shape, plan.n_steps, len(rules.snapshot_steps(plan.n_steps, plan.snapshot_every)))
                for shape, plan, _, _ in stepped] == expected
        assert [((p.count, *p.shape[:-1], p.shape[-1] + solver.ROW_PAD), p.plan, p.dz)
                for p in planned] == [(shape, plan, dz) for shape, plan, dz, _ in stepped]
        members = (member for call in run.propagates for member in call)
        for (shape, plan, dz, zs), p in zip(stepped, planned):
            assert zs == [step * dz for step in handed_out_steps(plan)]
            for _ in range(shape[0]):  # each member's record ends at z = L in its final field
                length = p.medium.length
                assert next(members) == (length, length, zs)


class TestPropagate:
    def test_zero_steps_identity(self, small_grid):
        # a zero-step plan's records, lone and stacked: each final field a
        # copy of its input, one power row at z = 0, no phase, no snapshot
        fields = [plane_wave(small_grid, 10.0, 1.0), gaussian_beam(small_grid, 5e-5, 0.5, 1.0)]
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=0.01)
        kept = []
        plan = StepPlan(n_steps=0, snapshot_every=1)
        records = propagate(fields, med, plan, keep=lambda z, snap: kept.append(z))
        assert [type(r) for r in records] == [solver.PropagationRecord] * 2
        assert isinstance(propagate(fields[0], med, plan), solver.PropagationRecord)
        for rec, f in zip(records, fields):
            assert np.array_equal(rec.final_field.values, f.values)
            assert not np.shares_memory(rec.final_field.values, f.values)
            assert rec.power_trace.shape == (1, 2) and rec.power_trace[0, 0] == 0.0
            assert rec.power_trace[0, 1] == pytest.approx(f.power(), rel=1e-12)
            assert (rec.n_steps, rec.dz, rec.z_final) == (0, 0.0, 0.0)
            assert rec.max_phase_per_step == 0.0 and rec.snapshots == []
        assert kept == []

    def test_zero_steps_power_is_the_kernels(self):
        # the beam of configs/propagate_gaussian.ini: its z = 0 power reads
        # the same bits without steps as before the first step
        g = make_grid(256, 256, 5e-6)
        beam = gaussian_beam(g, 150e-6, 0.5, 1.0)
        med = MediumParams.from_n2(wavelength=780e-9, n0=1.0, n2=-5e-12, alpha=10.0,
                                   length=0.075 / 300)
        rows = [propagate(beam, med, StepPlan(n_steps=n)).power_trace[0] for n in (0, 1)]
        assert rows[0].tolist() == rows[1].tolist()

    def test_power_conserved_unitary(self):
        grid, medium, background, _ = defocusing_setup(nx=64, xi_cells=3.0, tau=10.0)
        plan = StepPlan(n_steps=1000)
        rec = propagate(background, medium, plan)
        p = rec.power_trace[:, 1]
        assert np.max(np.abs(p / p[0] - 1.0)) < 1e-10

    def test_loss_law_exact(self):
        g = make_grid(64, 64, 1e-5)
        with pytest.warns(UserWarning, match="beam waist"):
            beam = gaussian_beam(g, 1e-4, 1.0, 1.0)
        alpha, length = 23.0, 0.05
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, alpha=alpha,
                           length=length)
        rec = propagate(beam, med, StepPlan(n_steps=113))
        assert rec.final_field.power() / beam.power() == pytest.approx(
            np.exp(-alpha * length), rel=1e-6)

    def test_free_gaussian_matches_analytic_width(self):
        w0 = 100e-6
        z_r = np.pi * w0**2 / WAVELENGTH
        g = make_grid(256, 256, 5e-6)
        beam = gaussian_beam(g, w0, 1.0, 1.0)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=2 * z_r)
        rec = propagate(beam, med, StepPlan(n_steps=64))
        expected = w0 * np.sqrt(1.0 + 4.0)
        assert measured_waist(rec.final_field) == pytest.approx(expected, rel=5e-3)

    def test_strang_self_convergence_second_order(self):
        # error(dz)/error(dz/2) ~ 4 on a smooth defocusing flow; the step
        # sizes sit below the split-step resonance (kinetic phase < pi at
        # every grid mode) so the pure h^2 term dominates
        grid, medium, _, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0,
                                                   tau=5.0)
        with pytest.warns(UserWarning, match="beam waist"):
            beam = gaussian_beam(grid, 8e-5, 1e-4, 1.0)
        bump = Field2D(grid=grid,
                       values=1.0 + 0.4 * beam.values / np.abs(beam.values).max())
        ref = propagate(bump, medium, StepPlan(n_steps=1280)).final_field.values
        errs = [np.linalg.norm(propagate(bump, medium,
                                         StepPlan(n_steps=n)).final_field.values - ref)
                for n in (160, 320)]
        ratio = errs[0] / errs[1]
        assert 3.5 < ratio < 4.5

    def test_galilean_tilt_translates_density(self):
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6, xi_cells=3.0,
                                                   tau=6.0)
        with pytest.warns(UserWarning, match="beam waist"):
            beam = gaussian_beam(grid, 1.2e-4, 1e-4, 1.0)
        bump = Field2D(grid=grid, values=1.0 + 0.5 * beam.values / np.abs(beam.values).max())
        k_x = 6 * (2 * np.pi / grid.extent_x)
        xx, _ = grid.meshgrid()
        tilted = Field2D(grid=grid, values=bump.values * np.exp(1j * k_x * xx))
        plan = StepPlan(n_steps=120)
        rho_straight = propagate(bump, medium, plan).final_field.density()
        rho_tilted = propagate(tilted, medium, plan).final_field.density()
        # locate the shift by circular cross-correlation along x
        a = rho_straight.sum(axis=0) - rho_straight.mean() * grid.ny
        b = rho_tilted.sum(axis=0) - rho_tilted.mean() * grid.ny
        corr = np.fft.ifft(np.fft.fft(b) * np.conj(np.fft.fft(a))).real
        shift_cells = np.argmax(corr)
        expected = k_x * medium.length / (medium.k0 * medium.n0) / grid.dx
        wrapped_diff = (shift_cells - expected + grid.nx / 2) % grid.nx - grid.nx / 2
        assert abs(wrapped_diff) <= 1.0

    def test_nonfinite_input_rejected(self, small_grid):
        values = np.ones((64, 64), dtype=complex)
        values[0, 0] = np.inf
        f = Field2D(grid=small_grid, values=values)
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=0.01)
        with pytest.raises(FloatingPointError):
            propagate(f, med, StepPlan(n_steps=4))

    def test_step_resolution_abort(self):
        grid, medium, background, scales = defocusing_setup(nx=64, xi_cells=2.0,
                                                            tau=40.0)
        # 4 steps over 40 z_nl: 10 rad of nonlinear phase per step
        with pytest.raises(RuntimeError, match="phase per step"):
            propagate(background, medium, StepPlan(n_steps=4))

    def test_step_resolution_warning(self):
        grid, medium, background, scales = defocusing_setup(nx=64, xi_cells=2.0,
                                                            tau=40.0)
        with pytest.warns(UserWarning, match="phase per step"):
            propagate(background, medium, StepPlan(n_steps=60))

    @pytest.mark.parametrize("weak_power", [0.0, 1e-8], ids=["one-mode", "weak-mode"])
    def test_kinetic_guard_reads_the_highest_occupied_mode(self, small_grid, weak_power):
        # a linear run's phase per step is the kinetic phase dz k^2 / (2 n0 k0)
        # of its highest occupied |k|: one plane-wave mode at n0 = 1.5, or a
        # weak mode holding 1e-8 of the power, still above OCCUPIED_MODE_FLOOR
        xx, _ = small_grid.meshgrid()
        unit = 2 * np.pi / small_grid.extent_x
        values = np.exp(1j * 2 * unit * xx) + np.sqrt(weak_power) * np.exp(1j * 8 * unit * xx)
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.5, chi3=0.0, length=0.01)
        record = propagate(Field2D(grid=small_grid, values=values), medium,
                           StepPlan(n_steps=10))
        k = (8 if weak_power else 2) * unit
        phase = record.dz * k**2 / (2 * medium.n0 * medium.k0)
        assert phase < solver.WARN_PHASE_PER_STEP
        assert record.max_phase_per_step == pytest.approx(phase, rel=1e-12)

    def test_collapse_warns_before_the_abort(self):
        # 3 times the Townes power in a focusing medium: the kick phase grows
        # step by step until it passes pi
        grid = make_grid(128, 128, 5e-6)
        n2 = 1e-10
        townes = 1.8962 * WAVELENGTH**2 / (4.0 * np.pi * n2)
        medium = MediumParams.from_n2(WAVELENGTH, 1.0, n2, length=0.05)
        beam = gaussian_beam(grid, 60e-6, 3.0 * townes, 1.0)
        with pytest.warns(UserWarning, match="rad of phase per step at z =") as warned:
            with pytest.raises(RuntimeError, match="at the first step") as aborted:
                propagate(beam, medium, StepPlan(n_steps=400))
        assert len(warned) == 1
        reached, first = re.search(r"gives ([\d.]+) rad .* from ([\d.]+) rad at the first",
                                   str(aborted.value)).groups()
        assert float(first) < solver.WARN_PHASE_PER_STEP
        assert float(reached) > solver.ABORT_PHASE_PER_STEP

    def test_one_transform_pair_per_step(self, monkeypatch):
        # the guard reads the loop's first spectrum: no transform of its own
        calls = {"fft2": 0, "ifft2": 0}
        scaled_flags = set()
        for name in calls:
            def counted(values, overwrite_x=False, scaled=True, name=name,
                        transform=getattr(solver, name)):
                calls[name] += 1
                scaled_flags.add(scaled)
                return transform(values, overwrite_x=overwrite_x, scaled=scaled)
            monkeypatch.setattr(solver, name, counted)
        grid, medium, background, _ = defocusing_setup(nx=16, xi_cells=3.0, tau=1.0)
        propagate(background, medium, StepPlan(n_steps=7))
        assert calls == {"fft2": 8, "ifft2": 8}
        assert scaled_flags == {False}  # every pass is the kernel's own, unscaled

    def test_merged_kicks_match_plain_composition(self):
        # the inner loop merges adjacent half kicks between snapshots; it
        # must agree with the literal half/full/half composition exactly
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        rng = np.random.default_rng(77)
        smooth = np.fft.ifft2(np.fft.fft2(
            rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64)))
            * (grid.k_squared() < (8 * (2 * np.pi / grid.extent_x)) ** 2))
        start = Field2D(grid=grid, values=1.0 + 0.3 * smooth / np.abs(smooth).max())
        n_steps = 12
        plan = StepPlan(n_steps=n_steps, snapshot_every=5)  # non-divisor cadence
        record = propagate(start, medium, plan)

        dz = medium.length / n_steps
        field = start
        plain_snapshots = []
        for step in range(n_steps):
            field = half_kinetic(field, dz, medium.k0, medium.n0)
            field = nonlinear_step(field, dz, medium)
            field = half_kinetic(field, dz, medium.k0, medium.n0)
            if (step + 1) % 5 == 0 and step != n_steps - 1:
                plain_snapshots.append(field.values.copy())
        scale = np.abs(field.values).max()
        assert np.allclose(record.final_field.values, field.values,
                           atol=1e-12 * scale)
        assert len(record.snapshots) == len(plain_snapshots) == 2
        for (z, snap), plain in zip(record.snapshots, plain_snapshots):
            assert np.allclose(snap.values, plain, atol=1e-12 * scale)

    def test_stack_matches_lone_calls_bit_for_bit(self):
        # five members stepped as one stack give exactly the records of five
        # lone calls; 18 x 10 sites puts member boundaries off SIMD widths
        grid = make_grid(18, 10, 2e-5)
        k0 = 2 * np.pi / WAVELENGTH
        xx, yy = grid.meshgrid()
        landscape = 1e-5 * np.cos(xx / 8e-5) + 2e-6j * (1.0 + np.sin(yy / 4e-5))
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-2.0 / (k0 * 2e-3),
                              alpha=5.0, potential=landscape, length=1e-3)
        rng = np.random.default_rng(11)
        members = [Field2D(grid=grid, values=1.0 + 0.2 * (rng.standard_normal(xx.shape)
                                                         + 1j * rng.standard_normal(xx.shape)))
                   for _ in range(5)]
        plan = StepPlan(n_steps=9, snapshot_every=4)
        stacked = propagate(members, medium, plan)
        assert len(stacked) == 5
        for member, record in zip(members, stacked):
            lone = propagate(member, medium, plan)
            assert np.array_equal(record.final_field.values, lone.final_field.values)
            assert np.array_equal(record.power_trace, lone.power_trace)
            assert record.max_phase_per_step == lone.max_phase_per_step
            assert len(record.snapshots) == len(lone.snapshots) == 2
            for (z_s, s_s), (z_l, s_l) in zip(record.snapshots, lone.snapshots):
                assert z_s == z_l and np.array_equal(s_s.values, s_l.values)

    def test_stack_rejects_mixed_grids_and_empty_input(self):
        grid, medium, background, _ = defocusing_setup(nx=16, xi_cells=3.0, tau=1.0)
        other = Field2D(grid=make_grid(16, 16, 6e-6), values=background.values)
        with pytest.raises(ValueError, match="one grid"):
            propagate([background, other], medium, StepPlan(n_steps=4))
        with pytest.raises(ValueError, match="at least one"):
            propagate([], medium, StepPlan(n_steps=4))

    def test_snapshot_matches_run_of_its_length(self):
        # a snapshot is the spectrum times a half kinetic factor, taken off
        # the merged path; it must equal a run that ends there
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        xx, yy = grid.meshgrid()
        start = Field2D(grid=grid, values=1.0 + 0.3 * np.exp(-(xx**2 + yy**2) / 4e-5**2))
        n_steps, every = 12, 5
        record = propagate(start, medium, StepPlan(n_steps=n_steps, snapshot_every=every))
        dz = medium.length / n_steps
        for i, (z, snap) in enumerate(record.snapshots):
            steps = (i + 1) * every
            assert z == pytest.approx(steps * dz, rel=1e-15)
            short = propagate(start, medium.with_length(steps * dz), StepPlan(n_steps=steps))
            scale = np.abs(short.final_field.values).max()
            assert np.max(np.abs(snap.values - short.final_field.values)) <= 1e-12 * scale

    def test_input_and_snapshots_own_their_arrays(self):
        # transforms overwrite the kernel's buffers in place; neither the
        # input nor an earlier snapshot may share memory with them
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        xx, _ = grid.meshgrid()
        start = Field2D(grid=grid, values=1.0 + 0.3 * np.exp(-(xx / 4e-5) ** 2 + 0.2j))
        original = start.values.copy()
        record = propagate(start, medium, StepPlan(n_steps=12, snapshot_every=5))
        assert np.array_equal(start.values, original)
        snaps = [f for _, f in record.snapshots]
        assert len(snaps) == 2
        kept = [s.values.copy() for s in snaps]
        record.final_field.values[:] = 7.0
        for snap, values in zip(snaps, kept):
            assert np.array_equal(snap.values, values)
        snaps[1].values[:] = -3.0
        assert np.array_equal(snaps[0].values, kept[0])
        assert np.array_equal(start.values, original)

    def test_a_handed_over_field_is_freed_before_the_first_step(self):
        # a field that only a generator holds is copied into the kernel's
        # stack and then dropped: neither it nor its array outlives the
        # read, so a run does not hold its input next to the stack
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        xx, _ = grid.meshgrid()
        refs = []

        def source():
            field = Field2D(grid=grid, values=1.0 + 0.3 * np.exp(-(xx / 4e-5) ** 2 + 0.2j))
            # a Field2D is a tuple, which takes no weak reference; it holds
            # its array, so a freed array is a freed field
            refs.append(weakref.ref(field.values))
            yield field

        def keep(z, field):
            assert [ref() for ref in refs] == [None]
            return field

        (record,) = propagate(source(), medium, StepPlan(n_steps=12, snapshot_every=5), keep)
        assert len(record.snapshots) == 2 and len(refs) == 1

    def test_snapshot_run_peaks_below_three_and_a_half_planes(self):
        # above its input, a 512^2 run with a snapshot at every step holds
        # the padded stack, the full kinetic factor, the kick's 64-row
        # blocks and one snapshot: 3.40 planes of 16 nx ny bytes. A stored
        # whole-plane half factor next to the full one peaked at 4.37.
        grid = make_grid(512, 512, 5e-6)
        xx, yy = grid.meshgrid()
        start = Field2D(grid=grid, values=np.exp(-(xx**2 + yy**2) / 2e-4**2
                                                 + 0.2j * np.sin(xx / 4e-5)))
        del xx, yy
        k0 = 2 * np.pi / WAVELENGTH
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-0.3 / (k0 * 1e-4),
                              alpha=5.0, length=4e-4)
        tracemalloc.start()  # after the input is made, so that it is not counted
        try:
            record = propagate(start, medium, StepPlan(n_steps=4, snapshot_every=1),
                               keep=lambda z, field: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(record.snapshots) == 3
        assert peak <= 3.5 * 16 * grid.nx * grid.ny

    def test_keep_maps_each_snapshot_as_the_default_record_would(self):
        # keep(z, field) sees every snapshot, all before z = L, and the record
        # stores what it returns: the default record's snapshots mapped
        # afterwards, bit for bit, for a lone field and for a stack
        grid, medium, _, _ = defocusing_setup(nx=64, dx=5e-6, xi_cells=3.0, tau=2.0)
        xx, yy = grid.meshgrid()
        members = [Field2D(grid=grid, values=1.0 + 0.3j * np.exp(-((xx - x0)**2 + yy**2) / 4e-5**2))
                   for x0 in (-2e-5, 0.0, 3e-5)]
        plan = StepPlan(n_steps=12, snapshot_every=3)

        def profile(z, f):
            return z, f.density().sum(axis=0)

        lone = (propagate(members[0], medium, plan),
                propagate(members[0], medium, plan, keep=profile))
        stacked = (propagate(members, medium, plan), propagate(members, medium, plan, keep=profile))
        for plain, kept in ([lone[0]], [lone[1]]), stacked:
            assert len(plain) == len(kept)
            for p, k in zip(plain, kept):
                assert np.array_equal(k.final_field.values, p.final_field.values)
                assert len(k.snapshots) == len(p.snapshots) == 3
                assert k.z_final == p.z_final == medium.length
                for (z_p, f_p), (z_k, (z_seen, seen)) in zip(p.snapshots, k.snapshots):
                    assert z_k == z_seen == z_p
                    assert np.array_equal(seen, profile(z_p, f_p)[1])

    def test_snapshots_strictly_increasing(self):
        grid, medium, background, _ = defocusing_setup(nx=64, xi_cells=3.0, tau=5.0)
        rec = propagate(background, medium, StepPlan(n_steps=50, snapshot_every=10))
        zs = [z for z, _ in rec.snapshots]
        assert len(zs) == 4
        assert all(b > a for a, b in zip(zs, [*zs[1:], rec.z_final]))
        assert rec.z_final == medium.length


class TestTimeReversal:
    """Strang splitting is time-reversible at any dz. With C the complex
    conjugation, C S C = S^-1 for a lossless step S = K N K: C K C is the
    inverse kinetic factor, and the kick's phase depends only on |E|^2,
    which the kick keeps. So a lossless run over L, conjugated, run over L
    again and conjugated, returns its input to rounding. The oracle holds
    on any field and catches a step that is not symmetric or not unitary:
    unequal half steps, a wrong merged factor, a snapshot hand-off that
    writes into the stack, a kick that moves |E|. It cannot catch a wrong coefficient that keeps the step
    symmetric, such as a wrong k0, n0 or chi3 scale or a wrong potential
    amplitude; the linearized map and the closed-form tests pin those."""

    @pytest.mark.parametrize("members, ny, nx, n_steps, tau, potential, saturation", [
        (1, 64, 64, 2, 0.25, False, False),
        (1, 64, 64, 40, 0.25, False, False),
        (1, 64, 96, 40, 2.0, False, False),
        (5, 1, 256, 40, 2.0, False, False),
        (3, 64, 64, 40, 2.0, True, False),
        (1, 128, 128, 160, 4.0, True, True),
    ], ids=["64-2-steps", "64-40-steps", "96x64", "line-stack", "stack-potential",
            "128-potential-saturation"])
    def test_conjugated_run_returns_its_input(self, members, ny, nx, n_steps, tau,
                                             potential, saturation):
        # a defocusing fluid with xi = 3 dx at unit density, over tau
        # nonlinear lengths; each member is 1 plus a ripple on |k| xi <= 1.2.
        # No run, there or back, reaches the guard's warning; the relative
        # error read 1.8e-15 to 4.4e-14
        dx, k0 = 5e-6, 2 * np.pi / WAVELENGTH
        grid = make_grid(nx, ny, dx) if ny > 1 else Grid(nx, ny, dx, dx)
        xi = 3 * dx
        z_nl = xi**2 * k0
        xx, yy = grid.meshgrid()
        landscape = None
        if potential:  # real, periodic on the grid, 0.5 rad of phase per z_nl at its peak
            landscape = (0.5 / (k0 * z_nl)) * np.cos(2 * np.pi * 3 * xx / grid.extent_x) * (
                np.sin(2 * np.pi * 2 * yy / grid.extent_y))
        i_sat = float(density_to_intensity(1.0, 1.0)) if saturation else None
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-2.0 / (k0 * z_nl),
                              length=tau * z_nl, potential=landscape, i_sat=i_sat)
        band = grid.k_squared() * xi**2 <= 1.2**2
        rng = np.random.default_rng(members * nx + n_steps)
        fields = []
        for _ in range(members):
            ripple = np.fft.ifft2(np.where(band, rng.standard_normal(band.shape)
                                           + 1j * rng.standard_normal(band.shape), 0.0))
            fields.append(Field2D(grid=grid, values=1.0 + 0.2 * ripple / np.abs(ripple).max()))
        plan = StepPlan(n_steps=n_steps, snapshot_every=7)  # none at 2 steps
        there = propagate(fields, medium, plan)
        back = propagate([r.final_field.with_values(np.conj(r.final_field.values))
                          for r in there], medium, plan)
        for start, record in zip(fields, back):
            error = np.abs(np.conj(record.final_field.values) - start.values).max()
            assert error <= 1e-12 * np.abs(start.values).max()


class TestDarkSolitonPair:
    """A fully nonlinear oracle: the black soliton of the defocusing NLSE
    (Zakharov and Shabat, Sov. Phys. JETP 37, 823 (1973)) is
    E = sqrt(rho) tanh(x / xi) exp(-i k0 dn z) in pfl's units, with xi the
    healing length of medium.fluid_scales, and does not change its density.
    On a periodic line a pair at +-L/4 is stationary to within tanh's tails
    (exp(-L / (2 xi)) = 1e-14 at L = 256 dx and xi = 4 dx), so what moves
    its density is the step's error."""

    def max_density_change(self, n_steps):
        dx, rho, k0 = 5e-6, 1.0, 2 * np.pi / WAVELENGTH
        grid = Grid(256, 1, dx, dx)
        z_nl = (4 * dx) ** 2 * k0  # xi = 4 dx at n0 = 1
        medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-2.0 / (k0 * z_nl * rho),
                              length=20 * z_nl)
        _, xi, _ = fluid_scales(medium, rho)
        assert xi == pytest.approx(4 * dx, rel=1e-12)
        x, quarter = grid.x_coords(), grid.extent_x / 4
        pair = np.sqrt(rho) * np.tanh((x + quarter) / xi) * np.tanh((x - quarter) / xi)
        start = Field2D(grid=grid, values=pair[None, :].astype(np.complex128))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # neither run warns
            record = propagate(start, medium, StepPlan(n_steps=n_steps))
        return np.abs(record.final_field.density() - start.density()).max() / rho

    def test_the_pair_keeps_its_density_at_second_order_in_the_step(self):
        # over tau = 20 max |d rho| / rho read 2.18e-5 at 800 steps and
        # 5.44e-6 at 1600, a ratio of 4.00. At 200 steps the pair is
        # destroyed (1.59) after one 1.46 rad warning at entry
        coarse, fine = self.max_density_change(800), self.max_density_change(1600)
        assert coarse < 3e-5
        assert fine < 7.5e-6
        assert 3.5 <= coarse / fine <= 4.5


@st.composite
def lossless_runs(draw):
    """(grid, medium, fields, plan, block_sites) of a lossless run of a stack:
    1 to 9 members of lines or planes of 8 to 96 samples a side, powers of
    two and not, each sample complex normal; dz of up to 10 rad of kinetic
    phase per step at each axis's Nyquist mode, up to 0.5 rad of Kerr phase
    of either sign at the peak density, maybe a real static potential of up
    to 0.5 rad per step and saturation at a quarter of the peak density; 1 to
    6 steps, with snapshots every 0 to 3 of them; BLOCK_SITES of 2^15, or of
    256, at which the kick and the half steps walk blocks of rows."""
    side = st.one_of(st.sampled_from([8, 16, 32, 64]), st.integers(8, 96))
    nx, ny = draw(side), draw(st.one_of(st.just(1), side))
    members, n_steps = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    kinetic, kerr = draw(st.floats(0.01, 10.0)), draw(st.floats(-0.5, 0.5))
    potential, saturation = draw(st.one_of(st.none(), st.floats(0.0, 0.5))), draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dx, k0 = 5e-6, 2 * np.pi / WAVELENGTH
    dz = kinetic * 2 * k0 / (np.pi / dx) ** 2  # dz k^2 / (2 n0 k0) at k = pi / dx, n0 = 1
    fields = rng.standard_normal((members, ny, nx)) + 1j * rng.standard_normal((members, ny, nx))
    rho = np.max(np.abs(fields) ** 2)
    if potential is not None:
        potential = potential / (k0 * dz) * rng.uniform(-1.0, 1.0, (ny, nx))
    medium = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-2.0 * kerr / (k0 * dz * rho),
                          length=n_steps * dz, potential=potential,
                          i_sat=float(density_to_intensity(rho / 4, 1.0)) if saturation else None)
    plan = StepPlan(n_steps, draw(st.integers(0, 3)))
    return Grid(nx, ny, dx, dx), medium, fields, plan, draw(st.sampled_from([2**15, 256]))


def kernel_run(grid, medium, fields, plan, block_sites):
    """The final fields of SplitStepKernel.run on the stack fields in blocks
    of block_sites, with the step-resolution guard's abort lifted."""
    kernel = SplitStepKernel(grid, medium, plan.resolve_dz(medium.length))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "ABORT_PHASE_PER_STEP", np.inf)
        patch.setattr(plans, "BLOCK_SITES", block_sites)
        return kernel.run(solver.kernel_stack(fields, grid), plan, lambda z, stack: None)[0]


ROUNDING_ULPS = 32


def rounding_bound(fields, plan):
    """ROUNDING_ULPS ulp of the peak input sample per step and one more: a
    step rounds through a transform pair and a kick, each a few ulp. Over
    2100 random cases, a run there and back read at most 6.5 of these ulp
    and a shifted or flipped run 3.6."""
    return ROUNDING_ULPS * (plan.n_steps + 1) * np.finfo(float).eps * np.abs(fields).max()


class TestKernelProperties:
    """TestTimeReversal's oracle and two exact symmetries of the lattice,
    as properties of SplitStepKernel.run on random lossless runs (see
    lossless_runs) at any dz: each must hold to rounding."""

    @pytest.mark.filterwarnings("ignore:step size")
    @settings(max_examples=40, deadline=None)
    @given(case=lossless_runs())
    def test_conjugated_run_returns_its_input(self, case):
        grid, medium, fields, plan, block_sites = case
        there = kernel_run(*case)
        back = np.conj(kernel_run(grid, medium, np.conj(there), plan, block_sites))
        assert np.abs(back - fields).max() <= rounding_bound(fields, plan)

    @pytest.mark.filterwarnings("ignore:step size")
    @settings(max_examples=40, deadline=None)
    @given(case=lossless_runs(), cells=st.tuples(st.integers(0, 95), st.integers(0, 95)))
    def test_shift_and_parity_commute_with_a_run(self, case, cells):
        # a shift by whole cells (periodic) and a flip of both axes, of the
        # fields and the potential alike, before a run or after it
        grid, medium, fields, plan, block_sites = case
        run = kernel_run(*case)
        for move in (lambda a: np.roll(a, cells, axis=(-2, -1)),
                     lambda a: np.flip(a, axis=(-2, -1))):
            moved = medium._replace(
                potential=None if medium.potential is None else move(medium.potential))
            assert (np.abs(kernel_run(grid, moved, move(fields), plan, block_sites)
                           - move(run)).max() <= rounding_bound(fields, plan))


class TestLinearizedMap:
    """The exact linearized split-step map as an oracle for the kernel at any
    dz. On a uniform fluid of density rho, in the frame that turns with the
    background, one Strang step maps each pair (a_k, conj a_-k) of a weak
    perturbation E = sqrt(rho) (1 + u) by K N K, with the half kinetic
    phase beta = dz k^2 / (4 n0 k0) in K = diag(exp(-i beta), exp(i beta))
    and the kick phase gamma = g rho dz in N = [[1 + i gamma, i gamma],
    [-i gamma, 1 - i gamma]]. The symmetric difference of the +eps and -eps
    runs cancels the even orders, so it matches the map to eps^2."""

    @staticmethod
    def _mapped(u0, k_squared, dz, n0, gammas):
        """u0 after one step of the map per kick phase in gammas, in the
        frame that turns with the background: each pair (a_k, conj a_-k) of
        its spectrum times K N K per step, with beta from k_squared on u0's
        grid."""
        beta = dz * k_squared / (4 * n0 * 2 * np.pi / WAVELENGTH)
        kinetic = np.array([[np.exp(-1j * beta), 0 * beta], [0 * beta, np.exp(1j * beta)]])
        a = np.fft.fftn(u0)
        # a[-k] on every axis: reverse, then shift the zero mode back to 0
        pair = np.array([a, np.conj(np.roll(np.flip(a), 1, axis=tuple(range(a.ndim))))])
        for gamma in gammas:
            kick = np.array([[1 + 1j * gamma, 1j * gamma], [-1j * gamma, 1 - 1j * gamma]])
            step = np.einsum("ij...,jl,lm...->im...", kinetic, kick, kinetic)
            pair = np.einsum("ij...,j...->i...", step, pair)
        return np.fft.ifftn(pair[0])

    @staticmethod
    def _band_limited(k_squared, xi, seed):
        """A perturbation with unit RMS on the modes 0 < |k| xi <= 2.8."""
        band = (k_squared != 0) & (np.sqrt(k_squared) * xi <= 2.8)
        rng = np.random.default_rng(seed)
        noise = rng.standard_normal(band.shape) + 1j * rng.standard_normal(band.shape)
        u0 = np.fft.ifftn(np.where(band, noise, 0.0))
        return u0 / np.sqrt(np.mean(np.abs(u0) ** 2))

    @pytest.mark.parametrize("n_steps, n0", [(200, 1.0), (40, 1.0), (40, 1.5)],
                             ids=["200-steps", "40-steps", "n0-1.5"])
    def test_defocusing_line_stack_follows_the_map(self, n_steps, n0):
        # 40 steps: 0.2 rad of kick and up to 0.76 rad of kinetic phase per
        # step (2.3e-7 measured; 1.3e-7 at 200 steps)
        nx, eps = 128, 1e-4
        grid, medium, _, scales = defocusing_setup(nx=nx, dx=5e-6, xi_cells=2.0, tau=8.0,
                                                   n0=n0)
        line = grid._replace(ny=1)
        u0 = self._band_limited(line.kx() ** 2, scales["xi"], 0)
        plus, minus = propagate([Field2D(grid=line, values=(1.0 + sign * eps * u0)[None])
                                 for sign in (1, -1)], medium, StepPlan(n_steps=n_steps))
        dz = medium.length / n_steps
        gamma = -dz / scales["z_nl"]  # g rho dz, rho = 1
        expected = self._mapped(u0, line.kx() ** 2, dz, n0, [gamma] * n_steps)
        frame = np.exp(1j * n_steps * gamma)
        measured = (plus.final_field.values[0] - minus.final_field.values[0]) / (2 * eps * frame)
        assert np.max(np.abs(measured - expected)) < 1e-6 * np.max(np.abs(expected))

    @pytest.mark.parametrize("n_steps, n0", [(200, 1.0), (40, 1.0), (40, 1.5)],
                             ids=["200-steps", "40-steps", "n0-1.5"])
    def test_defocusing_plane_follows_the_map(self, n_steps, n0):
        # a 64^2 plane, whose (k, -k) pairs are 2D and whose beta comes from
        # kx^2 + ky^2. The eps^2 remainder is larger than on the line, as
        # more modes couple: at 40 steps it reads 1.0e-6 at eps = 1e-4 and
        # falls 4-fold per halving of eps to 6.5e-8 at eps = 2.5e-5
        # (1.1e-8 at 200 steps)
        eps = 2.5e-5
        grid, medium, _, scales = defocusing_setup(nx=64, dx=5e-6, xi_cells=2.0, tau=8.0,
                                                   n0=n0)
        u0 = self._band_limited(grid.k_squared(), scales["xi"], 1)
        plus, minus = propagate([Field2D(grid=grid, values=1.0 + sign * eps * u0)
                                 for sign in (1, -1)], medium, StepPlan(n_steps=n_steps))
        dz = medium.length / n_steps
        gamma = -dz / scales["z_nl"]
        expected = self._mapped(u0, grid.k_squared(), dz, n0, [gamma] * n_steps)
        frame = np.exp(1j * n_steps * gamma)
        measured = (plus.final_field.values - minus.final_field.values) / (2 * eps * frame)
        assert np.max(np.abs(measured - expected)) < 1e-6 * np.max(np.abs(expected))


    def _line_run(self, medium, scales, n_steps, eps, seed):
        """(u0, dz, measured): the symmetric difference of the +eps and -eps
        runs of a 128-sample line over n_steps, per 2 eps, unnormalized."""
        line = Grid(128, 1, 5e-6, 5e-6)
        u0 = self._band_limited(line.kx() ** 2, scales["xi"], seed)
        plus, minus = propagate([Field2D(grid=line, values=(1.0 + sign * eps * u0)[None])
                                 for sign in (1, -1)], medium, StepPlan(n_steps=n_steps))
        return u0, medium.length / n_steps, (
            plus.final_field.values[0] - minus.final_field.values[0]) / (2 * eps)

    def test_lossy_line_stack_follows_the_map(self):
        # alpha L = 1: the background density entering kick n is
        # exp(-alpha n dz), so gamma falls by e over the run. The loss scales
        # the perturbation with its background, so u follows the map with
        # that gamma per step, and the background's amplitude reads
        # exp(-alpha L / 2). Pins the loss folded into the kick's factor
        # (1.1e-7 measured)
        n_steps = 40
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0, tau=8.0)
        medium = medium._replace(alpha=1.0 / medium.length)
        u0, dz, measured = self._line_run(medium, scales, n_steps, 1e-4, 2)
        gammas = -dz / scales["z_nl"] * np.exp(-medium.alpha * dz * np.arange(n_steps))
        expected = self._mapped(u0, grid.kx() ** 2, dz, 1.0, gammas)
        frame = np.exp(-0.5 * medium.alpha * medium.length + 1j * gammas.sum())
        assert np.max(np.abs(measured / frame - expected)) < 1e-6 * np.max(np.abs(expected))

    def test_focusing_line_stack_follows_the_map_not_the_continuum(self):
        # a focusing fluid is modulationally unstable for |k| xi < 2; its
        # modes grow at the map's rates, which differ from the continuum's
        # (the map at 64 substeps per step) by far more than the bound. The
        # growth makes the eps^2 remainder larger, so eps = 1e-5 (3.6e-9
        # measured; 3.6e-7 at eps = 1e-4)
        n_steps = 40
        grid, medium, _, scales = defocusing_setup(nx=128, dx=5e-6, xi_cells=2.0, tau=2.0)
        medium = medium._replace(chi3=-medium.chi3)
        u0, dz, measured = self._line_run(medium, scales, n_steps, 1e-5, 3)
        gamma = dz / scales["z_nl"]
        expected = self._mapped(u0, grid.kx() ** 2, dz, 1.0, [gamma] * n_steps)
        continuum = self._mapped(u0, grid.kx() ** 2, dz / 64, 1.0, [gamma / 64] * n_steps * 64)
        scale = np.max(np.abs(expected))
        assert scale > 2.0 * np.max(np.abs(u0))  # the unstable modes grew
        assert np.max(np.abs(continuum - expected)) > 1e-4 * scale  # 9e-4 measured
        frame = np.exp(1j * n_steps * gamma)
        assert np.max(np.abs(measured / frame - expected)) < 1e-6 * scale


class TestRescale:
    """The dimensionless scales of a homogeneous fluid, from fluid_scales."""

    def test_tau_and_scales(self):
        # |g| rho = 100 1/m over L = 0.07 m gives tau = 7
        n0 = 1.0
        k0 = 2 * np.pi / WAVELENGTH
        rho = 1.0
        chi3 = -100.0 * 2 * n0 / (k0 * rho)
        med = MediumParams(wavelength=WAVELENGTH, n0=n0, chi3=chi3, length=0.07)
        z_nl, xi, _ = fluid_scales(med, rho)
        assert med.length / z_nl == pytest.approx(7.0, rel=1e-12)
        assert z_nl == pytest.approx(0.01, rel=1e-12)
        assert xi == pytest.approx(np.sqrt(0.01 / (k0 * n0)), rel=1e-12)

    def test_density_scaling_relations(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        z_nl1, xi1, _ = fluid_scales(med, 1.0)
        z_nl2, xi2, _ = fluid_scales(med, 2.0)
        assert z_nl2 == pytest.approx(z_nl1 / 2.0, rel=1e-12)
        assert xi2 == pytest.approx(xi1 / np.sqrt(2.0), rel=1e-12)

    def test_zero_nonlinearity_has_no_fluid_scales(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=0.0, length=0.01)
        assert fluid_scales(med, 1.0) == (np.inf, np.inf, 0.0)

    def test_zero_density_has_no_fluid_scales(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        assert fluid_scales(med, 0.0) == (np.inf, np.inf, 0.0)

    def test_fluid_scales_consistency(self):
        med = MediumParams(wavelength=WAVELENGTH, n0=1.0, chi3=-1e-20, length=0.01)
        z_nl, xi, c_s = fluid_scales(med, 2.0)
        assert z_nl == pytest.approx(1.0 / (abs(med.g) * 2.0), rel=1e-12)
        assert c_s * z_nl == pytest.approx(xi, rel=1e-12)  # c_s z_nl = xi identity
