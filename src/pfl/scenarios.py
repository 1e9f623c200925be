"""Scenario orchestration: build objects from a RunConfig, run, write
artifacts, and emit a manifest of exactly the files produced. Each handler
runs the plan `pfl validate` checks, which run_scenario makes once: the
propagations `plans.propagations` lists for the config, grid and built
medium (stacks of members, step plans, media, probes), or for a config
without a grid the memories `plans.memories` lists."""

from __future__ import annotations

import itertools
from dataclasses import replace
from operator import attrgetter

import numpy as np

from . import plans
from .config import SCENARIOS, RunConfig, medium_params
from .fileio import ArtifactWriter, fmt, load_field
from .grid import Field2D, Grid, fft2, ifft2, make_grid
from .medium import MediumParams
from .seeding import stream_rng, stream_seed
from .plans import StepPlan
from .solver import propagate
from .sources import gaussian_beam, imprint_dark_stripe, imprint_vortex, plane_wave, speckle

# Every scenario uses the modules above. Each handler imports the rest of what
# it runs (dispersion, stats, hydro, gem, potentials) in its own body, so a
# run loads only its scenario's modules.


def build_grid(cfg: RunConfig) -> Grid:
    g = cfg.grid
    return make_grid(g["nx"], g["ny"], g["dx"], g["dy"])


def build_medium(cfg: RunConfig, grid: Grid) -> MediumParams:
    """The medium pfl validate checks, with the potential sampled on grid."""
    potential = None if cfg.potential is None else _build_potential(cfg, grid)
    return replace(medium_params(cfg.medium), potential=potential)


def _build_potential(cfg: RunConfig, grid: Grid) -> np.ndarray:
    from .potentials import gaussian_defect, lattice_potential, pt_symmetrize, uniform_potential

    p = cfg.potential
    if p["kind"] == "uniform":
        dn = uniform_potential(grid, complex(p["value_re"], p["value_im"]))
    elif p["kind"] == "gaussian_defect":
        dn = gaussian_defect(grid, complex(p["amplitude_re"], p["amplitude_im"]), p["width"],
                             center=(p["center_x"], p["center_y"]))
    else:
        dn = lattice_potential(grid, complex(p["amplitude_re"], p["amplitude_im"]),
                               p["period"], p["orientation"])
    if p["pt_symmetrize"]:
        dn = pt_symmetrize(dn)
    if not np.all(np.isfinite(dn)):
        raise FloatingPointError("potential contains non-finite samples")
    return dn


def build_plan(cfg: RunConfig) -> StepPlan:
    """The [plan] section as it reads; a run steps the plans of its
    propagations (plans.propagations)."""
    return StepPlan(**cfg.plan)


def build_source(cfg: RunConfig, grid: Grid, medium: MediumParams,
                 member: int = 0) -> Field2D:
    s = cfg.source
    if s["kind"] == "gaussian":
        return gaussian_beam(grid, s["waist"], s["power"], medium.n0)
    if s["kind"] == "plane":
        return plane_wave(grid, s["intensity"], medium.n0)
    if s["kind"] == "file":
        return load_field(s["path"], grid)[0]
    return speckle(grid, s["correlation_length"], s["intensity"],
                   seed=stream_seed(cfg.run["seed"], "source", member), n0=medium.n0)


def run_scenario(cfg: RunConfig, out_dir) -> ArtifactWriter:
    """Dispatch a validated RunConfig; returns the writer after the manifest
    is on disk. Raises on any failure (the CLI maps that to exit code 3)."""
    writer = ArtifactWriter(out_dir)
    grid = cfg.grid and build_grid(cfg)
    runs = plans.propagations(cfg, grid, build_medium(cfg, grid)) if grid else plans.memories(cfg)
    _HANDLERS[cfg.scenario](cfg, runs, grid, writer)
    writer.write_manifest()
    return writer


def _scenario_propagate(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    (run,) = runs

    def source():
        """The input, written and then handed to propagate, which alone holds it."""
        field = build_source(cfg, grid, run.medium)
        w.field("input.pfl1", field, 0.0)
        yield field

    index = itertools.count()

    def write_snapshot(z: float, snap: Field2D):
        w.field(f"snapshot_{next(index):04d}.pfl1", snap, z)

    (record,) = propagate(source(), run.medium, run.plan, keep=write_snapshot)
    w.field("final.pfl1", record.final_field, record.z_final)
    w.csv("power.csv", ["z", "power"], *record.power_trace.T)
    if cfg.run["pgm"]:
        w.pgm("final_density.pgm", record.final_field.density())
    w.metrics("metrics.txt", record)


def _scenario_dispersion(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    from .dispersion import dispersion_from_group_velocity, measure_group_velocity

    (run,) = runs
    curve = dispersion_from_group_velocity(measure_group_velocity(run, grid), run.medium)
    w.csv("dispersion.csv", ["k_perp", "v_g", "omega"], curve.k_perp, curve.v_g, curve.omega)
    w.text("fit.txt", "\n".join([
        f"c_s = {fmt(curve.c_s)}",
        f"c_s_stderr = {fmt(curve.c_s_stderr)}",
        f"xi_fit = {fmt(curve.xi_fit)}",
        f"dn_fit = {fmt(curve.dn_fit)}",
    ]) + "\n")


def _scenario_sound_scaling(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    from .dispersion import sound_speed_scaling

    result = sound_speed_scaling(runs, grid)
    w.csv("sound_scaling.csv", ["density", "c_s"], result.densities, result.sound_speeds)
    w.text("fit.txt", f"exponent = {fmt(result.exponent)}\n"
                      f"stderr = {fmt(result.stderr)}\n")


def _scenario_precondensation(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    from .stats import coherence_g1, intensity_statistics

    p = cfg.params
    n_real = p["realizations"]
    members = [build_source(cfg, grid, runs[0].medium, member=i) for i in range(n_real)]
    moments = []
    for tau, stacks in itertools.groupby(runs, key=attrgetter("tau")):
        finals = [record.final_field for run in stacks
                  for record in propagate(members[run.members], run.medium, run.plan)]
        stats = intensity_statistics(finals, bins=p["bins"])
        tag = fmt(tau).replace(".", "p")
        edges = stats.bin_edges
        w.csv(f"pi_hist_tau{tag}.csv", ["intensity", "pdf"], 0.5 * (edges[:-1] + edges[1:]),
              stats.pdf)
        g1 = coherence_g1(finals, method="rotate_pair" if n_real == 1 else "ensemble")
        w.csv(f"g1_tau{tag}.csv", ["separation", "g1"], g1.separation, g1.g1)
        moments.append((tau, stats.mode, stats.g2))
    w.csv("moments.csv", ["tau", "mode", "g2"], *zip(*moments))


def _scenario_structure_factor(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    from .stats import structure_factor

    p = cfg.params
    amplitude = np.sqrt(runs[0].density)
    band = np.sqrt(grid.k_squared()) <= p["band_fraction"] * min(grid.k_nyquist_x,
                                                                 grid.k_nyquist_y)
    eps = p["noise_amplitude"] * amplitude

    def pairs():
        """(signal, reference) densities of each member, one run's stack at a time."""
        for run in runs:
            # each member's noise from its own stream, band-limited in place as one stack
            values = np.empty((run.count, *run.shape), dtype=np.complex128)
            for member, i in zip(values, range(run.members.start, run.members.stop)):
                rng = stream_rng(cfg.run["seed"], "sf-noise", i)
                member.real, member.imag = (rng.standard_normal(run.shape),
                                            rng.standard_normal(run.shape))
            values /= np.sqrt(2.0)
            values *= eps
            fft2(values, overwrite_x=True)
            values *= band
            ifft2(values, overwrite_x=True)
            values += amplitude
            fields = [Field2D(grid=grid, values=member) for member in values]
            references = [f.density() for f in fields]
            for record, reference in zip(propagate(fields, run.medium, run.plan), references):
                yield record.final_field.density(), reference

    sf = structure_factor(pairs(), grid=grid, nbins=p["nbins"],
                          min_realizations=min(p["realizations"], 100))
    w.csv("structure_factor.csv", ["k", "s_k", "sigma"], sf.k, sf.s_k, sf.sigma)


def _scenario_vortices(cfg: RunConfig, runs, grid: Grid, w: ArtifactWriter):
    from .hydro import detect_vortices

    (run,) = runs
    p = cfg.params

    def source():
        """The imprinted input, written and then handed to propagate, which
        alone holds it."""
        field = build_source(cfg, grid, run.medium)
        if p["kind"] == "imprint":
            for charge, x, y in zip(p["charges"], p["xs"], p["ys"]):
                field = imprint_vortex(field, charge, center=(x, y),
                                       core_width=p["core_width"])
        else:
            field = imprint_dark_stripe(field, position=p["stripe_position"],
                                        angle=p["stripe_angle"],
                                        contrast=p["stripe_contrast"])
        w.field("initial.pfl1", field, 0.0)
        yield field

    (record,) = propagate(source(), run.medium, run.plan)
    field = record.final_field
    w.metrics("metrics.txt", record)
    w.field("final.pfl1", field, record.z_final)
    vortices = detect_vortices(field)
    w.csv("vortices.csv", ["x", "y", "charge"], *vortices.positions.T, vortices.charges)
    if cfg.run["pgm"]:
        w.pgm("density.pgm", field.density())


def _scenario_gem(cfg: RunConfig, memories, grid: None, w: ArtifactWriter):
    from .gem import gem_evolve, recall_order

    (memory,) = memories
    # the z-resolved polarization is read only for its image
    result = gem_evolve(memory.config, memory.pulses, store_polarization=cfg.run["pgm"])
    order = recall_order(memory.config, memory.pulses, result)  # None unless the schedule sets one
    for name, trace in (("input.csv", result.input_field), ("output.csv", result.output_field)):
        # each sample's power as a scalar: numpy's array abs and ** 2 round differently
        w.csv(name, ["t", "re", "im", "power"], result.times, trace.real, trace.imag,
              [abs(e) ** 2 for e in trace])
    if cfg.run["pgm"]:
        w.pgm("polarization.pgm", np.abs(result.polarization))
    if order:
        w.csv("peaks.csv", ["time", "label"], order.peak_times, order.labels)
        w.text("ordering.txt", f"mode = {order.mode}\norder = {','.join(order.labels)}\n")


def _scenario_gem_efficiency_sweep(cfg: RunConfig, memories, grid: None, w: ArtifactWriter):
    from .gem import gem_efficiency_measured, gem_efficiency_theory

    w.csv("efficiency_sweep.csv", ["ratio", "sigma_theory", "sigma_sim"],
          [m.ratio for m in memories],
          [gem_efficiency_theory(m.config.g, m.config.density, m.config.eta0) for m in memories],
          [gem_efficiency_measured(m.config, *m.pulses).sigma for m in memories])


# each scenario of config.SCENARIOS runs _scenario_<name, '-' as '_'>
_HANDLERS = {name: globals()["_scenario_" + name.replace("-", "_")] for name in SCENARIOS}
