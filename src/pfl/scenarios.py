"""Scenario orchestration: build objects from a RunConfig, run, write
artifacts, and emit a manifest of exactly the files produced. Each
propagating handler steps the propagations `plans.propagations` lists for
its config, grid and built medium (the plan `pfl validate` checks): their
stacks of members, step plans, lengths and probes."""

from __future__ import annotations

import itertools
from dataclasses import replace
from operator import attrgetter

import numpy as np

from . import plans, rules
from .config import SCENARIOS, RunConfig, medium_params
from .fileio import ArtifactWriter, fmt, load_field
from .grid import Field2D, Grid, fft2, ifft2, make_grid
from .medium import MediumParams, intensity_to_density
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
    _HANDLERS[cfg.scenario](cfg, writer)
    writer.write_manifest()
    return writer


def _scenario_propagate(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    (run,) = plans.propagations(cfg, grid, medium)
    field = build_source(cfg, grid, medium)
    w.field("input.pfl1", field, 0.0)
    index = itertools.count()

    def write_snapshot(z: float, snap: Field2D):
        w.field(f"snapshot_{next(index):04d}.pfl1", snap, z)

    record = propagate(field, run.medium, run.plan, keep=write_snapshot)
    w.field("final.pfl1", record.final_field, record.z_final)
    w.csv("power.csv", ["z", "power"], record.power_trace)
    if cfg.run["pgm"]:
        w.pgm("final_density.pgm", record.final_field.density())
    w.metrics("metrics.txt", record)


def _scenario_dispersion(cfg: RunConfig, w: ArtifactWriter):
    from .dispersion import ProbeSpec, dispersion_from_group_velocity, measure_group_velocity

    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    (run,) = plans.propagations(cfg, grid, medium)
    background = build_source(cfg, grid, medium)
    probes = [ProbeSpec(*probe) for probe in run.probes]
    samples = [(m.k_perp, m.v_g)
               for m in measure_group_velocity(background, probes, run.medium, run.plan)]
    curve = dispersion_from_group_velocity(samples, medium)
    w.csv("dispersion.csv", ["k_perp", "v_g", "omega"], curve.rows())
    w.text("fit.txt", "\n".join([
        f"c_s = {fmt(curve.c_s)}",
        f"c_s_stderr = {fmt(curve.c_s_stderr)}",
        f"xi_fit = {fmt(curve.xi_fit)}",
        f"dn_fit = {fmt(curve.dn_fit)}",
    ]) + "\n")


def _scenario_sound_scaling(cfg: RunConfig, w: ArtifactWriter):
    from .dispersion import sound_speed_scaling

    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    p = cfg.params
    densities = [intensity_to_density(i, medium.n0) for i in p["intensities"]]
    result = sound_speed_scaling(densities, medium, grid, tau=p["tau"],
                                 k_perp_xi=p["k_perp_xi"],
                                 probe_waist_xi=p["probe_waist_xi"],
                                 power_ratio=p["power_ratio"])
    w.csv("sound_scaling.csv", ["density", "c_s"],
          zip(result.densities, result.sound_speeds))
    w.text("fit.txt", f"exponent = {fmt(result.exponent)}\n"
                      f"stderr = {fmt(result.stderr)}\n")


def _scenario_precondensation(cfg: RunConfig, w: ArtifactWriter):
    from .stats import coherence_g1, intensity_statistics

    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    p = cfg.params
    n_real = p["realizations"]
    runs = plans.propagations(cfg, grid, medium)
    members = [build_source(cfg, grid, medium, member=i) for i in range(n_real)]
    moments = []
    for tau, stacks in itertools.groupby(runs, key=attrgetter("tau")):
        finals = [record.final_field for run in stacks
                  for record in propagate(members[run.members], run.medium, run.plan)]
        stats = intensity_statistics(finals, bins=p["bins"])
        tag = fmt(tau).replace(".", "p")
        w.csv(f"pi_hist_tau{tag}.csv", ["intensity", "pdf"], stats.rows())
        g1 = coherence_g1(finals, method="rotate_pair" if n_real == 1 else "ensemble")
        w.csv(f"g1_tau{tag}.csv", ["separation", "g1"], g1.rows())
        moments.append((tau, stats.mode, stats.g2))
    w.csv("moments.csv", ["tau", "mode", "g2"], moments)


def _scenario_structure_factor(cfg: RunConfig, w: ArtifactWriter):
    from .stats import structure_factor

    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    p = cfg.params
    runs = plans.propagations(cfg, grid, medium)
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
    w.csv("structure_factor.csv", ["k", "s_k", "sigma"], sf.rows())


def _scenario_vortices(cfg: RunConfig, w: ArtifactWriter):
    from .hydro import detect_vortices

    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    (run,) = plans.propagations(cfg, grid, medium)
    p = cfg.params
    field = build_source(cfg, grid, medium)
    if p["kind"] == "imprint":
        for charge, x, y in zip(p["charges"], p["xs"], p["ys"]):
            field = imprint_vortex(field, charge, center=(x, y),
                                   core_width=p["core_width"])
    else:
        field = imprint_dark_stripe(field, position=p["stripe_position"],
                                    angle=p["stripe_angle"],
                                    contrast=p["stripe_contrast"])
    w.field("initial.pfl1", field, 0.0)
    record = propagate(field, run.medium, run.plan)
    field = record.final_field
    w.metrics("metrics.txt", record)
    w.field("final.pfl1", field, record.z_final)
    vortices = detect_vortices(field)
    w.csv("vortices.csv", ["x", "y", "charge"], vortices.as_rows())
    if cfg.run["pgm"]:
        w.pgm("density.pgm", field.density())


def _write_trace(w: ArtifactWriter, name: str, times, field):
    """A complex time trace as (t, re, im, power) CSV rows."""
    w.csv(name, ["t", "re", "im", "power"],
          ((t, e.real, e.imag, abs(e) ** 2) for t, e in zip(times, field)))


def _scenario_gem(cfg: RunConfig, w: ArtifactWriter):
    from .gem import GaussianPulse, GemConfig, gem_evolve, ordering_mode, recall_order

    p = cfg.params
    gem_cfg = GemConfig(
        g=p["g"], density=p["density"], eta0=p["eta0"],
        z_extent=p["z_extent"], nz=p["nz"], t_extent=p["t_extent"], nt=p["nt"],
        eta_flips=tuple(p["flip_times"]), decay=p["decay"],
        coupling_windows=rules.coupling_windows(p["coupling_windows"]))
    labels = list(p["pulse_labels"]) or [chr(ord("A") + i) for i in range(len(p["pulse_centers"]))]
    pulses = [GaussianPulse(center=c, width=wd, label=lb)
              for c, wd, lb in zip(p["pulse_centers"], p["pulse_widths"], labels)]
    ordering_mode(gem_cfg, pulses)  # raises for a schedule rules.ordering refuses, before the run
    # the z-resolved polarization is read only for its image
    result = gem_evolve(gem_cfg, pulses, store_polarization=cfg.run["pgm"])
    order = recall_order(gem_cfg, pulses, result)  # None unless the schedule sets one
    _write_trace(w, "input.csv", result.times, result.input_field)
    _write_trace(w, "output.csv", result.times, result.output_field)
    if cfg.run["pgm"]:
        w.pgm("polarization.pgm", np.abs(result.polarization))
    if order:
        w.csv("peaks.csv", ["time", "label"], zip(order.peak_times, order.labels))
        w.text("ordering.txt", f"mode = {order.mode}\norder = {','.join(order.labels)}\n")


def _scenario_gem_efficiency_sweep(cfg: RunConfig, w: ArtifactWriter):
    from .gem import GaussianPulse, GemConfig, gem_efficiency_measured, gem_efficiency_theory

    p = cfg.params
    rows = []
    for ratio in rules.swept(p["ratios"], "ratios"):
        g_n = ratio * abs(p["eta0"]) / (2.0 * np.pi)
        g = density = float(np.sqrt(g_n))
        gem_cfg = GemConfig(g=g, density=density, eta0=p["eta0"],
                            z_extent=p["z_extent"], nz=p["nz"],
                            t_extent=p["t_extent"], nt=p["nt"],
                            eta_flips=(p["flip_time"],))
        pulse = GaussianPulse(center=p["pulse_center"], width=p["pulse_width"])
        measured = gem_efficiency_measured(gem_cfg, pulse)
        theory = gem_efficiency_theory(g, density, p["eta0"])
        rows.append((ratio, theory, measured.sigma))
    w.csv("efficiency_sweep.csv", ["ratio", "sigma_theory", "sigma_sim"], rows)


# each scenario of config.SCENARIOS runs _scenario_<name, '-' as '_'>
_HANDLERS = {name: globals()["_scenario_" + name.replace("-", "_")] for name in SCENARIOS}
