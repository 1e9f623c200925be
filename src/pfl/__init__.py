"""Paraxial fluids of light: a split-step spectral solver for the 2D+1
nonlinear Schrodinger equation with hydrodynamic diagnostics, plus a
one-dimensional gradient-echo-memory simulator.

The public names are imported from their modules on first access (PEP 562),
so ``pfl validate`` and ``pfl version`` load no numpy. Every record (a
config, a plan, a medium, a field, a result) is a ``typing.NamedTuple``,
so records need nothing beyond ``typing`` (no ``inspect``): use
``_replace``, ``_fields`` and ``_asdict``. A record whose fields are checked
(``MediumParams``, ``StepPlan``, ``GemConfig``, ``Field2D``) checks them
again on ``_replace``. No module imports scipy, which only the tests use.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {  # module: the public names it defines
    "grid": ("Field2D", "Grid", "make_grid"),
    "medium": ("MediumParams", "intensity_to_density", "density_to_intensity", "fluid_scales"),
    "sources": ("gaussian_beam", "plane_wave", "speckle", "imprint_vortex",
                "imprint_dark_stripe"),
    "potentials": ("uniform_potential", "gaussian_defect", "lattice_potential", "pt_symmetrize"),
    "plans": ("StepPlan", "ProbeSpec", "GemConfig", "GaussianPulse"),
    "solver": ("PropagationRecord", "nonlinear_step", "propagate"),
    "hydro": ("VortexSet", "detect_vortices", "circulation", "circulation_batch"),
    "dispersion": ("DispersionCurve", "bogoliubov_omega", "measure_group_velocity", "probe_line",
                   "dispersion_from_group_velocity", "sound_speed_scaling"),
    "stats": ("intensity_statistics", "coherence_g1", "structure_factor"),
    "gem": ("gem_evolve", "gem_efficiency_theory", "gem_efficiency_measured"),
    "config": ("RunConfig", "ConfigError", "parse_config"),
    "fileio": ("save_field", "load_field", "write_density_pgm"),
    "scenarios": ("run_scenario",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value
