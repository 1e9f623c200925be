import inspect
import pickle
import sys
from importlib import import_module
from types import SimpleNamespace

import numpy as np
import pytest

import pfl
from pfl import plans, rules
from pfl.config import parse_config
from pfl.grid import Field2D, make_grid
from pfl.medium import MediumParams
from pfl.plans import GaussianPulse, GemConfig, StepPlan
from pfl.scenarios import build_grid, build_medium
from conftest import CONFIGS, defocusing_setup


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
                                          ("solver", "row_pad"),
                                          ("gem", "ordering_mode"),
                                          ("grid", "fft"),
                                          ("grid", "ifft"),
                                          ("dispersion", "snapshot_density")],
                         ids=["kinetic_half_step", "serialize_config", "kinetic_multiplier",
                              "PulseTrain", "bogoliubov_sound_speed", "DEFAULT_DENSITY_FLOOR",
                              "row_pad", "ordering_mode", "fft", "ifft", "snapshot_density"])
def test_removed_name_is_not_public(module, name):
    assert name not in pfl.__all__
    assert not hasattr(pfl, name)
    assert not hasattr(import_module(f"pfl.{module}"), name)


REMOVED_FORMS = {  # each function takes one input form, and a config Key holds each default
    "lone_probe": lambda s: pfl.measure_group_velocity(s.background, s.probe, s.medium, s.plan),
    "lone_field_statistics": lambda s: pfl.intensity_statistics(s.background, bins=64),
    "lone_field_g1": lambda s: pfl.coherence_g1(s.background),
    "scaling_defaults": lambda s: pfl.sound_speed_scaling([1.0, 2.0, 4.0], s.medium, s.grid),
    "statistics_bins": lambda s: pfl.intensity_statistics([s.background]),
    "speckle_n0": lambda s: pfl.speckle(s.grid, 8 * s.grid.dx, 1.0, seed=1),
    # a probe stack is built once, by plans.probe_stack or plans.sound_scaling_runs
    "background_probes": lambda s: pfl.measure_group_velocity(s.background, [s.probe], s.medium,
                                                              s.plan),
    "scaling_densities": lambda s: pfl.sound_speed_scaling(
        [1.0, 2.0, 4.0, 10.0], s.medium, s.grid, tau=25.0, k_perp_xi=0.2, probe_waist_xi=10.0,
        power_ratio=1e-5),
    "background_line": lambda s: pfl.probe_line(s.background, s.probe),
    # a record is a tuple, so a lone one iterates its fields where a list belongs
    "lone_pulse_evolve": lambda s: pfl.gem_evolve(s.memory, GaussianPulse(1.5, 0.18)),
    "lone_pulse_order": lambda s: pfl.gem.recall_order(s.memory, GaussianPulse(1.5, 0.18), None),
    "lone_run_scaling": lambda s: pfl.sound_speed_scaling(
        plans.Propagation(slice(0, 1), (1, s.grid.nx), s.plan, s.medium, 1.0), s.grid),
}


@pytest.mark.parametrize("call", REMOVED_FORMS.values(), ids=REMOVED_FORMS)
def test_removed_form_is_a_type_error(call):
    grid, medium, background, _ = defocusing_setup(nx=16)
    setup = SimpleNamespace(grid=grid, medium=medium, background=background,
                            probe=pfl.ProbeSpec(waist=4 * grid.dx, k_perp=0.0, power_ratio=1e-4),
                            plan=pfl.StepPlan(n_steps=40, snapshot_every=4),
                            memory=GemConfig(g=1.0, density=1.0, eta0=20.0, z_extent=2.0, nz=128,
                                             t_extent=8.0, nt=1200, eta_flips=(3.0,)))
    with pytest.raises(TypeError):
        call(setup)


def test_probe_spec_lives_in_plans_and_resolves_from_dispersion():
    from pfl import dispersion, plans
    assert pfl.ProbeSpec is plans.ProbeSpec is dispersion.ProbeSpec


@pytest.mark.parametrize("name", ["GemConfig", "GaussianPulse"])
def test_memory_classes_live_in_plans_and_resolve_from_gem(name):
    from pfl import gem, plans
    assert getattr(pfl, name) is getattr(plans, name) is getattr(gem, name)


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


GRID = make_grid(8, 8, 1e-5)
CHECKED_RECORDS = {  # a valid record, a change that breaks its check, the message
    "negative-wavelength": (MediumParams(wavelength=780e-9, n0=1.0, chi3=-1e-20, length=1e-3),
                            {"wavelength": -780e-9}, "wavelength must be positive"),
    "negative-steps": (StepPlan(n_steps=10, snapshot_every=2), {"n_steps": -1},
                       "n_steps must be non-negative"),
    "short-lattice": (GemConfig(g=1.0, density=1.0, eta0=20.0, z_extent=2.0, nz=256,
                                t_extent=8.0, nt=1600, eta_flips=(3.0,)),
                      {"nz": rules.MIN_LATTICE - 1},
                      f"nz and nt must be at least {rules.MIN_LATTICE}"),
    "misshaped-values": (Field2D(grid=GRID, values=np.zeros((8, 8))),
                         {"values": np.zeros((8, 4))},
                         r"values shape \(8, 4\) does not match grid \(8, 8\)"),
}


@pytest.mark.parametrize("record, change, message", CHECKED_RECORDS.values(),
                         ids=CHECKED_RECORDS)
def test_replace_checks_a_record_as_its_construction_does(record, change, message):
    # records are typing.NamedTuples; _replace, like dataclasses.replace
    # before them, builds through the class, so the checks run again
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        type(record)(**{**record._asdict(), **change})


def test_replace_takes_field_values_as_complex_arrays():
    moved = Field2D(grid=GRID, values=np.zeros((8, 8)))._replace(values=[[1] * 8] * 8)
    assert isinstance(moved, Field2D) and moved.values.dtype == np.complex128
    assert np.array_equal(moved.values, np.ones((8, 8)))


def test_plans_and_media_pickle_round_trip_equal():
    # tests/observed_runs.py pickles each run's plans out of a forked child
    cfg = parse_config(next(c for c in CONFIGS if c.stem == "sound_scaling").read_text())
    grid = build_grid(cfg)
    medium = build_medium(cfg, grid)
    runs = plans.propagations(cfg, grid, medium)
    assert len(runs) >= 4 and all(run.probes for run in runs)
    for record in (medium, *runs):
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is type(record)


@pytest.mark.parametrize("record", [MediumParams, StepPlan, GemConfig, GaussianPulse, Field2D])
def test_a_records_constructor_takes_its_fields(record):
    # perfbench builds these records by keyword
    assert list(inspect.signature(record).parameters) == list(record._fields)
