"""Each run's propagations, numpy-free, so that `pfl validate` checks the
plan the run steps. propagations derives from the config, the grid and the
medium what a run of each scenario propagates (stacks of members, field
shape, step plan, length, density, probes), applying the `rules` that tie
these values together. config.validate_config calls it with the medium it
checks, each propagating handler with the medium it builds, whose potential
the plan carries unread; the GEM scenarios propagate nothing. A `grid` has
nx, ny, dx, dy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import rules
from .medium import MediumParams, fluid_scales, intensity_to_density

# Lattice sites per block of the kernel's kick and half steps and per stack
# of members (see member_runs): 8 members at 64^2, the fastest stack
# measured. On one core of a 2-vCPU x86 VM (2 MiB L2 per core), stacks of 4,
# 16 and 32 took 1.043, 1.088 and 1.149 of the time of stacks of 8 (75
# interleaved rounds).
BLOCK_SITES = 2**15
STEPS_PER_Z_NL = 15  # sound-scaling steps per nonlinear length


@dataclass
class StepPlan:
    """Stepping schedule for one propagation: n_steps equal steps of
    dz = length / n_steps, with snapshots after the steps that
    rules.snapshot_steps lists (none for snapshot_every = 0).
    """

    n_steps: int
    snapshot_every: int = 0

    def __post_init__(self):
        if self.n_steps < 0:
            raise ValueError(f"n_steps must be non-negative, got {self.n_steps}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be non-negative")

    def resolve_dz(self, length: float) -> float:
        """The step length over a medium of this length (0 without steps)."""
        return length / self.n_steps if self.n_steps else 0.0


@dataclass(frozen=True)
class Propagation:
    """One stack a run propagates: the run's members it holds (ensemble
    members, probes or densities), each a field of shape (ny, nx), (1, nx)
    for a probe line, stepped by plan through medium. density is the
    source's mean |E|^2 where the scenario reads one, tau the length in
    nonlinear lengths of that density where the scenario sets the length so,
    and probes the (waist, k_perp, power_ratio) of each probe line."""

    members: slice
    shape: tuple[int, int]
    plan: StepPlan
    medium: MediumParams
    density: float | None = None
    tau: float | None = None
    probes: tuple[tuple[float, float, float], ...] = ()

    @property
    def count(self) -> int:
        return self.members.stop - self.members.start

    @property
    def dz(self) -> float:
        return self.plan.resolve_dz(self.medium.length)


def member_runs(n_members: int, ny: int, nx: int) -> list[slice]:
    """Consecutive runs of members (ny, nx) of about BLOCK_SITES sites each,
    at least one member: 8 members at 64^2, one at 256^2 and above. The
    ensemble scenarios propagate one run per stack, which amortizes the
    per-call and per-step overhead of small fields, and a run of small
    fields is one block of the kernel's kick (see solver.block_slices). Only
    the last run may be shorter."""
    size = max(1, BLOCK_SITES // (ny * nx))
    return [slice(m, min(m + size, n_members)) for m in range(0, n_members, size)]


def sound_scaling_runs(medium: MediumParams, densities, grid, tau: float, k_perp_xi: float,
                       probe_waist_xi: float, power_ratio: float) -> list[Propagation]:
    """Each density's probe line of a sound-scaling sweep, in increasing
    density, after the sweep, decade, tracking, probe and first-kick rules:
    a length of tau z_nl, one probe of waist probe_waist_xi xi and k_perp
    k_perp_xi / xi, z_nl and xi from medium.fluid_scales. Each run takes
    ceil(tau STEPS_PER_Z_NL) steps and a snapshot every max(1, n_steps //
    50), so its probe's first kick is about (1 + sqrt(power_ratio))^2 /
    STEPS_PER_Z_NL rad per step whatever tau is."""
    densities = rules.swept(densities, "densities")
    rules.decade(densities)
    n_steps = math.ceil(tau * STEPS_PER_Z_NL)
    plan, runs = StepPlan(n_steps, max(1, n_steps // 50)), []
    rules.tracked_snapshots(plan.n_steps, plan.snapshot_every)
    for i, density in enumerate(densities):
        z_nl, xi, _ = fluid_scales(medium, density)
        waist, k_perp = probe_waist_xi * xi, k_perp_xi / xi
        rules.probe(waist, k_perp, grid)
        run_medium = medium.with_length(tau * z_nl)
        rules.probe_kick(run_medium, density, power_ratio, n_steps, steps_set=True)
        runs.append(Propagation(slice(i, i + 1), (1, grid.nx), plan, run_medium, density, tau,
                                ((waist, k_perp, power_ratio),)))
    return runs


def _source_density(cfg, medium: MediumParams) -> float | None:
    """The |E|^2 of a plane-wave or speckle source's mean intensity."""
    intensity = cfg.source.get("intensity")
    return None if intensity is None else intensity_to_density(intensity, medium.n0)


def _one_field(cfg, grid, medium: MediumParams) -> list[Propagation]:
    """propagate's and vortices' one field; propagate makes no snapshot
    that it would not write."""
    every = cfg.plan["snapshot_every"] if cfg.run.get("snapshots") else 0
    return [Propagation(slice(0, 1), (grid.ny, grid.nx), StepPlan(cfg.plan["n_steps"], every),
                        medium, _source_density(cfg, medium))]


def _dispersion(cfg, grid, medium: MediumParams) -> list[Propagation]:
    """One stack of probe lines, one per k_perp in increasing order."""
    p, plan = cfg.params, StepPlan(**cfg.plan)
    k_perps = rules.swept(p["k_perp_list"], "k_perp_list")
    for k_perp in k_perps:
        rules.probe(p["probe_waist"], k_perp, grid)
    rules.tracked_snapshots(plan.n_steps, plan.snapshot_every)
    density = _source_density(cfg, medium)
    rules.probe_kick(medium, density, p["power_ratio"], plan.n_steps)
    probes = tuple((p["probe_waist"], k_perp, p["power_ratio"]) for k_perp in k_perps)
    return [Propagation(slice(0, len(probes)), (1, grid.nx), plan, medium, density,
                        probes=probes)]


def _sound_scaling(cfg, grid, medium: MediumParams) -> list[Propagation]:
    p = cfg.params
    return sound_scaling_runs(medium, [intensity_to_density(i, medium.n0)
                                       for i in p["intensities"]],
                              grid, p["tau"], p["k_perp_xi"], p["probe_waist_xi"],
                              p["power_ratio"])


def _precondensation(cfg, grid, medium: MediumParams) -> list[Propagation]:
    """For each tau in increasing order, the ensemble's stacks over tau z_nl
    of the source density."""
    p, plan = cfg.params, StepPlan(**cfg.plan)
    density = _source_density(cfg, medium)
    z_nl, _, _ = fluid_scales(medium, density)
    stacks = member_runs(p["realizations"], grid.ny, grid.nx)
    return [Propagation(members, (grid.ny, grid.nx), plan, medium.with_length(tau * z_nl),
                        density, tau)
            for tau in rules.swept(p["tau_list"], "tau_list") for members in stacks]


def _structure_factor(cfg, grid, medium: MediumParams) -> list[Propagation]:
    p, plan = cfg.params, StepPlan(**cfg.plan)
    rules.noise_band(p["band_fraction"], grid)
    density = _source_density(cfg, medium)
    return [Propagation(members, (grid.ny, grid.nx), plan, medium, density)
            for members in member_runs(p["realizations"], grid.ny, grid.nx)]


_PLANS = {"propagate": _one_field, "dispersion": _dispersion,
          "sound-scaling": _sound_scaling, "precondensation": _precondensation,
          "structure-factor": _structure_factor, "vortices": _one_field}


def propagations(cfg, grid, medium: MediumParams | None) -> list[Propagation]:
    """The propagations of a run of cfg, a RunConfig, in the order the run
    steps them; none for a scenario that propagates nothing. Raises the
    ValueError of the first rule the plan breaks."""
    plan = _PLANS.get(cfg.scenario)
    return plan(cfg, grid, medium) if plan else []
