"""Scenario orchestration: build objects from a RunConfig, run, write
artifacts, and emit a manifest of exactly the files produced."""

from __future__ import annotations

import itertools

import numpy as np

from .config import SCENARIOS, RunConfig
from .dispersion import (ProbeSpec, dispersion_from_group_velocity,
                         measure_group_velocity, sound_speed_scaling)
from .fileio import ArtifactWriter, fmt, load_field
from .gem import (GaussianPulse, GemConfig, PulseTrain, gem_efficiency_measured,
                  gem_efficiency_theory, gem_evolve, recall_order)
from .grid import Field2D, Grid, fft2, fft_workers, ifft2, make_grid
from .hydro import detect_vortices
from .medium import MediumParams, intensity_to_density
from .potentials import gaussian_defect, lattice_potential, pt_symmetrize, uniform_potential
from .seeding import stream_rng, stream_seed
from .solver import BLOCK_SITES, StepPlan, fluid_scales, propagate
from .sources import gaussian_beam, imprint_dark_stripe, imprint_vortex, plane_wave, speckle
from .stats import intensity_statistics, coherence_g1, structure_factor


def build_grid(cfg: RunConfig) -> Grid:
    g = cfg.grid
    return make_grid(g["nx"], g["ny"], g["dx"], g["dy"])


def build_medium(cfg: RunConfig, grid: Grid | None = None) -> MediumParams:
    m = cfg.medium
    kwargs = dict(alpha=m["alpha"], i_sat=m["isat"])
    if "length" in m:  # absent where the scenario sets the length of each run
        kwargs["length"] = m["length"]
    if cfg.potential is not None and grid is not None:
        kwargs["potential"] = _build_potential(cfg, grid)
    if m["chi3"] is not None:
        return MediumParams(wavelength=m["lambda"], n0=m["n0"], chi3=m["chi3"], **kwargs)
    return MediumParams.from_n2(wavelength=m["lambda"], n0=m["n0"], n2=m["n2"], **kwargs)


def _build_potential(cfg: RunConfig, grid: Grid) -> np.ndarray:
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


def _stacks(members, grid: Grid) -> list:
    """Consecutive slices of members of about BLOCK_SITES lattice sites each
    (8 members at 64^2, one at 256^2 and above): enough to amortize the
    per-call and per-step overhead of small grids, while a stack of small
    fields is one block of the kernel's kick."""
    size = max(1, BLOCK_SITES // (grid.nx * grid.ny))
    return [members[start:start + size] for start in range(0, len(members), size)]


def run_scenario(cfg: RunConfig, out_dir, jobs: int = 1) -> ArtifactWriter:
    """Dispatch a validated RunConfig; returns the writer after the manifest
    is on disk. jobs is the FFT worker count. Raises on any failure (the
    CLI maps that to exit code 3)."""
    writer = ArtifactWriter(out_dir)
    handler = _HANDLERS[cfg.scenario]
    with fft_workers(jobs):
        handler(cfg, writer)
    writer.write_manifest()
    return writer


def _scenario_propagate(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    plan = build_plan(cfg)
    field = build_source(cfg, grid, medium)
    w.field("input.pfl1", field, 0.0)
    index = itertools.count()

    def write_snapshot(z: float, snap: Field2D):
        if cfg.run["snapshots"]:
            w.field(f"snapshot_{next(index):04d}.pfl1", snap, z)

    record = propagate(field, medium, plan, keep=write_snapshot)
    w.field("final.pfl1", record.final_field, record.z_final)
    if cfg.run["csv"]:
        w.csv("power.csv", ["z", "power"], record.power_trace)
    if cfg.run["pgm"]:
        w.pgm("final_density.pgm", record.final_field)
    w.metrics("metrics.txt", record)


def _scenario_dispersion(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    plan = build_plan(cfg)
    background = build_source(cfg, grid, medium)

    probes = [ProbeSpec(waist=cfg.params["probe_waist"], k_perp=k_perp,
                        power_ratio=cfg.params["power_ratio"])
              for k_perp in sorted(cfg.params["k_perp_list"])]
    samples = [(m.k_perp, m.v_g)
               for m in measure_group_velocity(background, probes, medium, plan)]
    curve = dispersion_from_group_velocity(samples, medium)
    if cfg.run["csv"]:
        w.csv("dispersion.csv", ["k_perp", "v_g", "omega"], curve.rows())
    w.text("fit.txt", "\n".join([
        f"c_s = {fmt(curve.c_s)}",
        f"c_s_stderr = {fmt(curve.c_s_stderr)}",
        f"xi_fit = {fmt(curve.xi_fit)}",
        f"dn_fit = {fmt(curve.dn_fit)}",
    ]) + "\n")


def _scenario_sound_scaling(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    p = cfg.params
    densities = [intensity_to_density(i, medium.n0) for i in p["intensities"]]
    result = sound_speed_scaling(densities, medium, grid, tau=p["tau"],
                                 k_perp_xi=p["k_perp_xi"],
                                 probe_waist_xi=p["probe_waist_xi"],
                                 power_ratio=p["power_ratio"])
    if cfg.run["csv"]:
        w.csv("sound_scaling.csv", ["density", "c_s"],
              zip(result.densities, result.sound_speeds))
    w.text("fit.txt", f"exponent = {fmt(result.exponent)}\n"
                      f"stderr = {fmt(result.stderr)}\n")


def _scenario_precondensation(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    p = cfg.params
    n_real = p["realizations"]
    rho = intensity_to_density(cfg.source["intensity"], medium.n0)
    z_nl, _, _ = fluid_scales(medium, rho)
    members = [build_source(cfg, grid, medium, member=i) for i in range(n_real)]
    moments = []
    for tau in sorted(p["tau_list"]):
        run_medium = medium.with_length(tau * z_nl)
        plan = build_plan(cfg)
        finals = [record.final_field for stack in _stacks(members, grid)
                  for record in propagate(stack, run_medium, plan)]
        stats = intensity_statistics(finals, bins=p["bins"])
        tag = fmt(tau).replace(".", "p")
        if cfg.run["csv"]:
            w.csv(f"pi_hist_tau{tag}.csv", ["intensity", "pdf"], stats.rows())
            g1 = coherence_g1(finals, method="rotate_pair" if n_real == 1 else "ensemble")
            w.csv(f"g1_tau{tag}.csv", ["separation", "g1"], g1.rows())
        moments.append((tau, stats.mode, stats.g2))
    if cfg.run["csv"]:
        w.csv("moments.csv", ["tau", "mode", "g2"], moments)


def _scenario_structure_factor(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    plan = build_plan(cfg)
    p = cfg.params
    rho = intensity_to_density(cfg.source["intensity"], medium.n0)
    amplitude = np.sqrt(rho)
    band = np.sqrt(grid.k_squared()) <= p["band_fraction"] * min(grid.k_nyquist_x,
                                                                 grid.k_nyquist_y)
    eps = p["noise_amplitude"] * amplitude

    def member(i):
        rng = stream_rng(cfg.run["seed"], "sf-noise", i)
        white = (rng.standard_normal((grid.ny, grid.nx))
                 + 1j * rng.standard_normal((grid.ny, grid.nx))) / np.sqrt(2.0)
        noise = ifft2(fft2(white * eps) * band)
        return Field2D(grid=grid, values=amplitude + noise)

    signal, reference = [], []
    for indices in _stacks(range(p["realizations"]), grid):
        fields = [member(i) for i in indices]
        reference += [f.density() for f in fields]
        signal += [r.final_field.density() for r in propagate(fields, medium, plan)]
    sf = structure_factor(signal, reference, grid=grid, nbins=p["nbins"],
                          min_realizations=min(p["realizations"], 100))
    if cfg.run["csv"]:
        w.csv("structure_factor.csv", ["k", "s_k", "sigma"], sf.rows())


def _scenario_vortices(cfg: RunConfig, w: ArtifactWriter):
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
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
    record = propagate(field, medium, build_plan(cfg))
    field = record.final_field
    w.metrics("metrics.txt", record)
    w.field("final.pfl1", field, record.z_final)
    vortices = detect_vortices(field)
    if cfg.run["csv"]:
        w.csv("vortices.csv", ["x", "y", "charge"], vortices.as_rows())
    if cfg.run["pgm"]:
        w.pgm("density.pgm", field)


def _gem_config_from_params(p: dict) -> GemConfig:
    windows = p["coupling_windows"]
    return GemConfig(
        g=p["g"], density=p["density"], eta0=p["eta0"],
        z_extent=p["z_extent"], nz=p["nz"], t_extent=p["t_extent"], nt=p["nt"],
        eta_flips=tuple(p["flip_times"]), decay=p["decay"],
        coupling_windows=tuple(zip(windows[::2], windows[1::2])))


def _pulse_train_from_params(p: dict) -> PulseTrain:
    labels = list(p["pulse_labels"]) or [
        chr(ord("A") + i) for i in range(len(p["pulse_centers"]))]
    pulses = [GaussianPulse(center=c, width=wd, label=lb)
              for c, wd, lb in zip(p["pulse_centers"], p["pulse_widths"], labels)]
    return PulseTrain(pulses)


def _write_trace(w: ArtifactWriter, name: str, times, field):
    """A complex time trace as (t, re, im, power) CSV rows."""
    w.csv(name, ["t", "re", "im", "power"],
          ((t, e.real, e.imag, abs(e) ** 2) for t, e in zip(times, field)))


def _scenario_gem(cfg: RunConfig, w: ArtifactWriter):
    gem_cfg = _gem_config_from_params(cfg.params)
    train = _pulse_train_from_params(cfg.params)
    # the z-resolved polarization is read only for its image
    result = gem_evolve(gem_cfg, train, store_polarization=cfg.run["pgm"])
    order = recall_order(gem_cfg, train, result)  # None unless the schedule sets one
    if cfg.run["csv"]:
        _write_trace(w, "input.csv", result.times, result.input_field)
        _write_trace(w, "output.csv", result.times, result.output_field)
        if order:
            w.csv("peaks.csv", ["time", "label"], zip(order.peak_times, order.labels))
    if cfg.run["pgm"]:
        w.pgm("polarization.pgm", np.abs(result.polarization))
    if order:
        w.text("ordering.txt", f"mode = {order.mode}\norder = {','.join(order.labels)}\n")


def _scenario_gem_efficiency_sweep(cfg: RunConfig, w: ArtifactWriter):
    p = cfg.params

    rows = []
    for ratio in sorted(p["ratios"]):
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
    if cfg.run["csv"]:
        w.csv("efficiency_sweep.csv", ["ratio", "sigma_theory", "sigma_sim"], rows)


# each scenario of config.SCENARIOS runs _scenario_<name, '-' as '_'>
_HANDLERS = {name: globals()["_scenario_" + name.replace("-", "_")] for name in SCENARIOS}
