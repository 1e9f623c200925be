"""Paraxial fluids of light: a split-step spectral solver for the 2D+1
nonlinear Schrodinger equation with hydrodynamic diagnostics, plus a
one-dimensional gradient-echo-memory simulator."""

__version__ = "0.1.0"

from .grid import Field2D, Grid, make_grid, zero_field
from .medium import MediumParams, density_to_intensity, intensity_to_density, optical_power
from .sources import (add_probe, gaussian_beam, imprint_dark_stripe, imprint_vortex,
                      plane_wave, speckle)
from .potentials import build_potential, pt_symmetrize
from .solver import (PropagationRecord, StepPlan, fluid_scales, kinetic_half_step,
                     nonlinear_step, propagate, rescale_dimensionless)
from .hydro import (FluidDiagnostics, VortexSet, circulation, circulation_batch,
                    detect_vortices, madelung)
from .dispersion import (DispersionCurve, ProbeSpec, bogoliubov_omega,
                         bogoliubov_sound_speed, dispersion_from_group_velocity,
                         measure_group_velocity, snapshot_density, sound_speed_scaling)
from .stats import coherence_g1, intensity_statistics, structure_factor
from .gem import (GaussianPulse, GemConfig, GemState, PulseTrain, fifo_filo_experiment,
                  gem_efficiency_measured, gem_efficiency_theory, gem_evolve)
from .config import ConfigError, RunConfig, parse_config, serialize_config
from .fileio import load_field, save_field, write_density_pgm
from .scenarios import run_scenario

__all__ = [
    "Field2D", "Grid", "make_grid", "zero_field",
    "MediumParams", "intensity_to_density", "density_to_intensity", "optical_power",
    "gaussian_beam", "plane_wave", "speckle", "imprint_vortex", "imprint_dark_stripe",
    "add_probe", "build_potential", "pt_symmetrize",
    "StepPlan", "PropagationRecord", "kinetic_half_step", "nonlinear_step",
    "propagate", "rescale_dimensionless", "fluid_scales",
    "FluidDiagnostics", "VortexSet", "madelung", "detect_vortices",
    "circulation", "circulation_batch",
    "ProbeSpec", "DispersionCurve", "bogoliubov_omega", "bogoliubov_sound_speed",
    "measure_group_velocity", "snapshot_density", "dispersion_from_group_velocity",
    "sound_speed_scaling",
    "intensity_statistics", "coherence_g1", "structure_factor",
    "GemConfig", "GemState", "GaussianPulse", "PulseTrain", "gem_evolve",
    "gem_efficiency_theory", "gem_efficiency_measured", "fifo_filo_experiment",
    "RunConfig", "ConfigError", "parse_config", "serialize_config",
    "save_field", "load_field", "write_density_pgm",
    "run_scenario",
    "__version__",
]
