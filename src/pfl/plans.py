"""Each run's propagations and memories, numpy-free, so that `pfl validate`
checks the plan the run steps. propagations derives from the config, the
grid and the medium what a run propagates (stacks of members, field shape,
step plan, length, density, probes), memories what a GEM run integrates
(GemConfig and pulses), each applying the `rules` that tie them together.
config.validate_config calls both, each handler its scenario's; propagations
gets the medium validate checks or the handler builds, whose potential the
plan carries unread. A `grid` has nx, ny, dx, dy."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

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


@dataclass(frozen=True)
class Propagation:
    """One stack a run propagates: the run's members it holds (ensemble
    members, probes or densities), each a field of shape (ny, nx), (1, nx)
    for a probe line, stepped by plan through medium. density is the
    source's mean |E|^2 where the scenario reads one, tau the length in
    nonlinear lengths of that density where the scenario sets the length so,
    and probes the ProbeSpec of each probe line."""

    members: slice
    shape: tuple[int, int]
    plan: StepPlan
    medium: MediumParams
    density: float | None = None
    tau: float | None = None
    probes: tuple[ProbeSpec, ...] = ()

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


def probe_stack(medium: MediumParams, density: float, probes, plan: StepPlan, grid,
                steps_set: bool = False) -> Propagation:
    """One stack of probe lines, one per ProbeSpec of probes in their order,
    over a uniform background of this density (|E|^2) in medium, stepped by
    plan, after every rule of a probe stack: a medium without a potential
    and not focusing (chi3 <= 0), rules.source_density, rules.probe and a
    positive power_ratio for each probe, a plan that rules.tracked_snapshots
    passes, rules.probe_kick for each probe (steps_set as there), and
    snapshots that rules.mode_aliasing passes."""
    if medium.potential is not None:
        raise ValueError("the background must be homogeneous: the medium has a potential")
    if medium.chi3 > 0:
        raise ValueError(f"the background must not be focusing (chi3 = {medium.chi3:g} > 0): "
                         "a focusing fluid has no real Bogoliubov branch to read")
    rules.source_density(density)
    probes = tuple(probes)
    for p in probes:
        rules.probe(p.waist, p.k_perp, grid)
        if p.power_ratio <= 0:
            raise ValueError(f"probe power_ratio must be positive, got {p.power_ratio}")
    rules.tracked_snapshots(plan.n_steps, plan.snapshot_every)
    for p in probes:
        rules.probe_kick(medium, density, p.power_ratio, plan.n_steps, steps_set)
    rules.mode_aliasing(medium, density, [p.k_perp for p in probes],
                        plan.snapshot_every * plan.resolve_dz(medium.length), grid)
    return Propagation(slice(0, len(probes)), (1, grid.nx), plan, medium, density,
                       probes=probes)


def sound_scaling_runs(medium: MediumParams, densities, grid, tau: float, k_perp_xi: float,
                       probe_waist_xi: float, power_ratio: float) -> list[Propagation]:
    """Each density's probe stack of a sound-scaling sweep, in increasing
    density: at least 4 positive densities spanning a decade, each once, and
    for each a length of tau z_nl and one probe of waist probe_waist_xi xi
    and k_perp k_perp_xi / xi, z_nl and xi from medium.fluid_scales. Each run
    takes ceil(tau STEPS_PER_Z_NL) steps and a snapshot every max(1, n_steps
    // 50), so its probe's first kick is about (1 + sqrt(power_ratio))^2 /
    STEPS_PER_Z_NL rad per step whatever tau is."""
    if len(densities) < 4:
        raise ValueError("need at least 4 densities")
    if min(densities) <= 0:
        raise ValueError("densities must be positive")
    densities = rules.swept(densities, "densities")
    rules.decade(densities)
    n_steps = math.ceil(tau * STEPS_PER_Z_NL)
    plan, runs = StepPlan(n_steps, max(1, n_steps // 50)), []
    for i, density in enumerate(densities):
        z_nl, xi, _ = fluid_scales(medium, density)
        probe = ProbeSpec(probe_waist_xi * xi, k_perp_xi / xi, power_ratio)
        run = probe_stack(medium.with_length(tau * z_nl), density, [probe], plan, grid,
                          steps_set=True)
        runs.append(replace(run, members=slice(i, i + 1), tau=tau))
    return runs


def _source_density(cfg, medium: MediumParams) -> float | None:
    """The |E|^2 of a plane-wave or speckle source's mean intensity."""
    intensity = cfg.source.get("intensity")
    return None if intensity is None else intensity_to_density(intensity, medium.n0)


def _one_field(cfg, grid, medium: MediumParams) -> list[Propagation]:
    """propagate's and vortices' one field; propagate makes no snapshot
    that it would not write, and vortices imprints no stripe on a source of
    zero intensity or power (a file source is checked when the run reads it)."""
    every = cfg.plan["snapshot_every"] if cfg.run.get("snapshots") else 0
    density = _source_density(cfg, medium)
    if cfg.params.get("kind") == "stripe":
        rules.source_density(cfg.source.get("power", density))
    return [Propagation(slice(0, 1), (grid.ny, grid.nx), StepPlan(cfg.plan["n_steps"], every),
                        medium, density)]


def _dispersion(cfg, grid, medium: MediumParams) -> list[Propagation]:
    """One stack of probe lines, one per k_perp in increasing order."""
    p = cfg.params
    probes = [ProbeSpec(p["probe_waist"], k_perp, p["power_ratio"])
              for k_perp in rules.swept(p["k_perp_list"], "k_perp_list")]
    return [probe_stack(medium, _source_density(cfg, medium), probes, StepPlan(**cfg.plan),
                        grid)]


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
    rules.nonlinear_length(z_nl)
    stacks = member_runs(p["realizations"], grid.ny, grid.nx)
    return [Propagation(members, (grid.ny, grid.nx), plan, medium.with_length(tau * z_nl),
                        density, tau)
            for tau in rules.swept(p["tau_list"], "tau_list") for members in stacks]


def _structure_factor(cfg, grid, medium: MediumParams) -> list[Propagation]:
    p, plan = cfg.params, StepPlan(**cfg.plan)
    rules.noise_band(p["band_fraction"], grid)
    density = _source_density(cfg, medium)
    rules.source_density(density)
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


@dataclass(frozen=True)
class GaussianPulse:
    center: float
    width: float
    amplitude: complex = 1.0
    label: str = ""


@dataclass
class GemConfig:
    """Lattice, coupling and schedule parameters of one memory run.

    eta_flips lists the times at which the gradient slope changes sign,
    starting from +eta0. coupling_windows lists (t_on, t_off) intervals
    during which the coupling gate is open; () means always on.
    """

    g: float
    density: float
    eta0: float
    z_extent: float
    nz: int
    t_extent: float
    nt: int
    eta_flips: tuple[float, ...] = ()
    coupling_windows: tuple[tuple[float, float], ...] = ()
    decay: float = 0.0

    def __post_init__(self):
        if self.nz < rules.MIN_LATTICE or self.nt < rules.MIN_LATTICE:
            raise ValueError(f"nz and nt must be at least {rules.MIN_LATTICE}")
        if self.z_extent <= 0 or self.t_extent <= 0:
            raise ValueError("z_extent and t_extent must be positive")
        if self.decay < 0:
            raise ValueError("decay must be non-negative")
        rules.schedule(self.eta_flips, self.coupling_windows, self.t_extent)
        rules.gradient_phase(self.eta0, self.z_extent, self.t_extent, self.nt)

    @property
    def dt(self) -> float:
        return self.t_extent / (self.nt - 1)

    @property
    def dz(self) -> float:
        return self.z_extent / (self.nz - 1)


@dataclass(frozen=True)
class Memory:
    """One memory run: pulses on config, and an efficiency sweep's ratio 2 pi g N / |eta0|."""

    config: GemConfig
    pulses: tuple[GaussianPulse, ...]
    ratio: float | None = None


def memories(cfg) -> list[Memory]:
    """The memory runs of cfg, a RunConfig, in the order the run integrates
    them, after every memory rule (else the first one's ValueError): gem's
    one run of its pulses, labelled A, B, ... unless the config labels them;
    one per ratio of gem-efficiency-sweep in increasing order, at g = N =
    sqrt(ratio |eta0| / (2 pi)), where sigma = (1 - exp(-ratio))^2."""
    p = cfg.params
    if cfg.scenario == "gem":
        centers, widths, labels = p["pulse_centers"], p["pulse_widths"], p["pulse_labels"]
        if len(centers) != len(widths):
            raise ValueError("gem.pulse_centers and pulse_widths must have equal lengths")
        windows = rules.coupling_windows(p["coupling_windows"])
        config = GemConfig(p["g"], p["density"], p["eta0"], p["z_extent"], p["nz"],
                           p["t_extent"], p["nt"], p["flip_times"], windows, p["decay"])
        rules.ordering(config.eta_flips, windows, centers, widths, config.t_extent)
        if labels and len(labels) != len(centers):
            raise ValueError("gem.pulse_labels needs one label per pulse or none")
        rules.pulses(centers, widths, config.t_extent)
        labels = labels or [chr(ord("A") + i) for i in range(len(centers))]
        return [Memory(config, tuple(GaussianPulse(center, width, label=label)
                                     for center, width, label in zip(centers, widths, labels)))]
    if cfg.scenario != "gem-efficiency-sweep":
        return []
    runs, pulse = [], GaussianPulse(p["pulse_center"], p["pulse_width"])
    for ratio in rules.swept(p["ratios"], "ratios"):
        g = math.sqrt(ratio * abs(p["eta0"]) / (2.0 * math.pi))
        runs.append(Memory(GemConfig(g, g, p["eta0"], p["z_extent"], p["nz"], p["t_extent"],
                                     p["nt"], (p["flip_time"],)), (pulse,), ratio))
    rules.echo_windows(p["flip_time"], pulse.center, pulse.width, p["t_extent"])
    rules.pulses((pulse.center,), (pulse.width,), p["t_extent"])
    rules.nonzero_eta(p["eta0"])
    return runs
