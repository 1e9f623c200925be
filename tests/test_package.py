import sys
from importlib import import_module
from types import SimpleNamespace

import numpy as np
import pytest

import pfl
from conftest import defocusing_setup


@pytest.mark.parametrize("name", [n for n in pfl.__all__ if n != "__version__"])
def test_export_is_the_defining_modules_object(name):
    value = getattr(pfl, name)
    assert value.__module__.startswith("pfl.")
    assert value is getattr(sys.modules[value.__module__], name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from pfl import *", namespace)
    assert set(pfl.__all__) <= set(namespace)
    assert namespace["propagate"] is pfl.solver.propagate


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        pfl.no_such_name  # noqa: B018


def test_submodule_import_still_works():
    from pfl import solver
    assert solver is sys.modules["pfl.solver"]


@pytest.mark.parametrize("module, name", [("solver", "kinetic_half_step"),
                                          ("config", "serialize_config"),
                                          ("solver", "kinetic_multiplier"),
                                          ("gem", "PulseTrain"),
                                          ("dispersion", "bogoliubov_sound_speed"),
                                          ("hydro", "DEFAULT_DENSITY_FLOOR"),
                                          ("solver", "row_pad")],
                         ids=["kinetic_half_step", "serialize_config", "kinetic_multiplier",
                              "PulseTrain", "bogoliubov_sound_speed", "DEFAULT_DENSITY_FLOOR",
                              "row_pad"])
def test_removed_name_is_not_public(module, name):
    assert name not in pfl.__all__
    assert not hasattr(import_module(f"pfl.{module}"), name)


REMOVED_FORMS = {  # each function takes one input form, and a config Key holds each default
    "lone_probe": lambda s: pfl.measure_group_velocity(s.background, s.probe, s.medium, s.plan),
    "lone_field_statistics": lambda s: pfl.intensity_statistics(s.background, bins=64),
    "lone_field_g1": lambda s: pfl.coherence_g1(s.background),
    "scaling_defaults": lambda s: pfl.sound_speed_scaling([1.0, 2.0, 4.0], s.medium, s.grid),
    "statistics_bins": lambda s: pfl.intensity_statistics([s.background]),
    "speckle_n0": lambda s: pfl.speckle(s.grid, 8 * s.grid.dx, 1.0, seed=1),
}


@pytest.mark.parametrize("call", REMOVED_FORMS.values(), ids=REMOVED_FORMS)
def test_removed_form_is_a_type_error(call):
    grid, medium, background, _ = defocusing_setup(nx=16)
    setup = SimpleNamespace(grid=grid, medium=medium, background=background,
                            probe=pfl.ProbeSpec(waist=4 * grid.dx, k_perp=0.0, power_ratio=1e-4),
                            plan=pfl.StepPlan(n_steps=40, snapshot_every=4))
    with pytest.raises(TypeError):
        call(setup)


def test_callable_potential_is_refused_when_the_kernel_is_built():
    # the potential is fixed along z: a function of z is no array of the grid's shape
    from pfl.grid import make_grid
    from pfl.medium import MediumParams
    from pfl.solver import SplitStepKernel

    grid = make_grid(8, 8, 1e-5)
    medium = MediumParams(wavelength=780e-9, n0=1.0, chi3=0.0, length=1e-3,
                          potential=lambda z: np.zeros((8, 8)))
    with pytest.raises(ValueError, match=r"potential shape \(\) does not match grid \(8, 8\)"):
        SplitStepKernel(grid, medium, 1e-4)
