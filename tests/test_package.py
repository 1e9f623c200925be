import sys

import pytest

import pfl


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


def test_kinetic_half_step_is_not_public():
    assert "kinetic_half_step" not in pfl.__all__
    assert not hasattr(pfl.solver, "kinetic_half_step")
