import pytest

from pfl.medium import C_LIGHT, EPS0, MediumParams


def test_constants_are_codata_2022_literals():
    assert C_LIGHT == 299792458.0
    assert EPS0 == 8.8541878188e-12


def test_installed_scipy_agrees_with_the_literals():
    # scipy before 1.15 ships CODATA 2018, eps0 = 8.8541878128e-12, 6.8e-10 off
    from scipy import constants
    assert constants.c == C_LIGHT
    assert constants.epsilon_0 == pytest.approx(EPS0, rel=1e-9)


def test_n2_round_trip_is_unchanged():
    medium = MediumParams.from_n2(780e-9, 1.3, -2.5e-10, length=0.01)
    assert medium.chi3 == -2.5e-10 * 1.3**2 * C_LIGHT * EPS0
    assert medium.chi3 == -1.1214919133369981e-12
    assert medium.n2 == pytest.approx(-2.5e-10, rel=1e-15)
