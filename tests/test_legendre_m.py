"""Legendre M-function tests.

The generic-parameter reference value M(0.3,0.4,0.6; z=0.37) =
0.2525019105351543783547958 was frozen from the Wronskian-form oracle
(tests/oracles.py, 60-digit raw series), an independent route from the
contiguous-combination evaluation used by the package.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings, strategies as st

from genellip import (
    EllipticParams,
    Method,
    Modulus,
    MPoint,
    beta,
    ell_derivatives,
    m_deriv,
    m_scaled,
    m_scaled_limit,
    m_value,
    m_value_elliptic,
)
from genellip.errors import DomainError, ParameterError, SaturationError
from genellip.legendre_m import _m_pair

INV_PI = 1.0 / math.pi


def test_classical_constant():
    for z in (0.02, 0.3, 0.5, 0.77, 0.98):
        r = m_value(MPoint(0.5, 0.5, 1.0, z))
        assert r.value == pytest.approx(INV_PI, rel=1e-12)


@pytest.mark.parametrize("a", [0.1, 0.25, 0.5, 0.7, 0.9])
def test_sine_constant_family(a):
    # M(a, 1-a, 1, z) = sin(pi a)/pi for every z
    want = math.sin(math.pi * a) / math.pi
    for z in (0.1, 0.5, 0.83):
        assert m_value(MPoint(a, 1.0 - a, 1.0, z)).value == pytest.approx(
            want, rel=1e-11)


def test_generic_frozen_wronskian():
    r = m_value(MPoint(0.3, 0.4, 0.6, 0.37))
    assert r.value == pytest.approx(0.2525019105351543783547958, rel=1e-12)
    assert abs(r.value - 0.2525019105351543783547958) <= \
        10.0 * r.abs_err_est + 1e-14


def test_symmetry():
    for (a, b, c) in ((0.3, 0.4, 0.6), (0.2, 0.9, 1.0), (0.7, 0.6, 1.1)):
        for z in (0.08, 0.31, 0.47):
            lhs = m_value(MPoint(a, b, c, z)).value
            rhs = m_value(MPoint(a, b, c, 1.0 - z)).value
            assert lhs == pytest.approx(rhs, rel=1e-11)


# --------------------------------------------------------------------------
# elliptic-integral route

def test_elliptic_route_classical():
    p = EllipticParams(0.5, 0.5, 1.0)
    r = m_value_elliptic(p, Modulus.from_r(0.5))
    assert r.value == pytest.approx(INV_PI, rel=1e-12)


def test_elliptic_route_symmetry_point():
    p = EllipticParams(0.5, 0.5, 1.0)
    at_sym = m_value_elliptic(p, Modulus.from_r(math.sqrt(0.5))).value
    at_half = m_value(MPoint(0.5, 0.5, 1.0, 0.5)).value
    assert at_sym == pytest.approx(at_half, rel=1e-12)


def test_routes_agree_generic():
    p = EllipticParams(0.4, 0.4, 0.7)
    lhs = m_value_elliptic(p, Modulus.from_r(0.3)).value
    rhs = m_value(MPoint(0.4, 0.4, 0.7, 0.09)).value
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_elliptic_route_reads_an_interior_pair_whose_r_rounds_to_one():
    # r'^2 = 1e-18 > 0 makes the pair interior by the rule mu_m and _m_pair
    # read, though r rounds to 1.0: a check of r in (0, 1) refused it
    p, m = EllipticParams(0.5, 0.5, 1.0), Modulus.from_r_comp(1e-9)
    assert m.r == 1.0
    got = m_value_elliptic(p, m)
    assert abs(got.value - INV_PI) <= got.abs_err_est
    pair = _m_pair(0.5, 0.5, 1.0, m.z, m.z_comp)
    assert abs(got.value - pair.value) <= got.abs_err_est + pair.abs_err_est
    assert all(map(math.isfinite, dataclasses.astuple(ell_derivatives(p, m))))


# --------------------------------------------------------------------------
# derivative

def test_deriv_zero_for_constant_case():
    assert m_deriv(MPoint(0.5, 0.5, 1.0, 0.3)).value == pytest.approx(
        0.0, abs=1e-12)


def test_deriv_vanishes_at_symmetry_point():
    # M(z) = M(1-z) forces M'(1/2) = 0
    assert m_deriv(MPoint(0.3, 0.5, 0.7, 0.5)).value == pytest.approx(
        0.0, abs=1e-11)


def test_deriv_antisymmetric():
    d1 = m_deriv(MPoint(0.3, 0.5, 0.7, 0.25)).value
    d2 = m_deriv(MPoint(0.3, 0.5, 0.7, 0.75)).value
    assert d1 == pytest.approx(-d2, rel=1e-9)


def test_deriv_matches_central_difference():
    pt = MPoint(0.3, 0.5, 0.7, 0.25)
    h = 1e-5
    num = (m_value(MPoint(0.3, 0.5, 0.7, 0.25 + h)).value
           - m_value(MPoint(0.3, 0.5, 0.7, 0.25 - h)).value) / (2.0 * h)
    assert m_deriv(pt).value == pytest.approx(num, rel=1e-7)


def test_deriv_charges_the_error_of_its_v_v1_term():
    # the (1-2z)((c-a)(a+2b-1)-b^2) v v1 term carries most of the error here;
    # dM/dz from mpmath at 40 digits
    got = m_deriv(MPoint(0.36801916023657977, 0.9081635347769776,
                         0.31396470318933883, 0.017856691581123685))
    assert abs(got.value - -2832.208748514192880290082688838972763054) <= got.abs_err_est


def test_deriv_names_no_end_of_an_f():
    # F(1, 20; 11; 1 - 1e-100) overflows; dM/dz tends to -inf as z -> 0 when
    # a+b > c, so F's +inf is not dM/dz's end, and no end is named
    with pytest.raises(DomainError) as exc:
        m_deriv(MPoint(1.0, 20.0, 11.0, 1e-100))
    assert not isinstance(exc.value, SaturationError)


def test_deriv_method_follows_its_four_f_values_as_m_does():
    pt = MPoint(0.3, 0.5, 0.7, 0.9)
    assert m_deriv(pt).method == m_value(pt).method == Method.TRANSFORM_NEAR_ONE


# --------------------------------------------------------------------------
# closed forms

def test_closed_form_a_equals_c():
    # a=c: M = b (z(1-z))^(-b), and b=c: M = a (z(1-z))^(-a)
    want = 0.4 * (0.3 * 0.7) ** (-0.4)
    assert m_value(MPoint(0.6, 0.4, 0.6, 0.3)).value == pytest.approx(want, rel=1e-10)
    want = 0.6 * (0.3 * 0.7) ** (-0.6)
    assert m_value(MPoint(0.6, 0.4, 0.4, 0.3)).value == pytest.approx(want, rel=1e-10)


def test_closed_form_power_case():
    # a+b+1 = 2c with (0.3, 0.5, 0.9); d via the stdlib gamma
    pt = MPoint(0.3, 0.5, 0.9, 0.5)
    d = math.gamma(0.9) ** 2 / (math.gamma(0.3) * math.gamma(0.5))
    want = d * 0.25 ** (1.0 - 0.9)
    assert m_value(pt).value == pytest.approx(want, rel=1e-9)


def test_closed_form_classical_is_constant():
    # (1/2,1/2,1) is the power case with d = Gamma(1)^2/Gamma(1/2)^2 = 1/pi
    assert m_value(MPoint(0.5, 0.5, 1.0, 0.77)).value == pytest.approx(INV_PI, rel=1e-12)


# --------------------------------------------------------------------------
# scaled variant and endpoint limits

def test_scaled_consistent_with_m():
    pt = MPoint(0.3, 0.4, 0.6, 0.37)
    w = (0.37 * 0.63) ** (0.3 + 0.4 - 0.6)
    assert m_scaled(pt).value == pytest.approx(
        w * m_value(pt).value, rel=1e-11)


def test_zero_balanced_endpoint():
    # a+b = c: M extends continuously to the endpoints with value 1/B(a,b)
    a, b = 0.3, 0.5
    lim = 1.0 / beta(a, b).value
    near = m_value(MPoint(a, b, a + b, 1e-9)).value
    assert near == pytest.approx(lim, rel=1e-6)


def test_scaled_endpoint_limit():
    # a+b > c: (z(1-z))^(a+b-c) M -> (a+b-c) B(c, a+b-c)/B(a,b)
    a, b, c = 0.4, 0.5, 0.6
    lim = m_scaled_limit(a, b, c)
    near = m_scaled(MPoint(a, b, c, 1e-10)).value
    assert near == pytest.approx(lim, rel=1e-6)
    with pytest.raises(ParameterError):
        m_scaled_limit(0.2, 0.3, 0.9)


def test_tiny_a_with_b_exactly_c_plus_one():
    # the contiguous triple (a-1, b, c) has c-b = -1 exactly, a pole of the
    # near-balanced prefactor's Gamma(c-b); M and dM/dz from mpmath at 40 digits
    pt = MPoint(1e-8, 7.3, 6.3, 0.9)
    for got, want in ((m_value(pt), 2.446208186744128280589851e-8),
                      (m_deriv(pt), 1.567705346579592452186457e-7)):
        assert math.isfinite(got.abs_err_est)
        assert abs(got.value - want) <= got.abs_err_est


def test_tiny_a_with_b_near_c_plus_one():
    # (a, b, c) itself is on the integer-d route with c-a-b near -1, where a-1
    # rounded beside the pole -1 of Gamma lost the digits of a: M was
    # -8.4e-9 +- 6.1e-9 and 3.180752380371743e-07 +- 1.8e-14.  M from mpmath
    # at 80 digits.
    for pt, want in ((MPoint(1e-9, 1.7, 0.7, 0.9), 1.401587306671998633736741105367035893897e-8),
                     (MPoint(1e-8, 1.3, 0.30000001, 0.9),
                      3.137036973924803191301075051735385051668e-7)):
        got = m_value(pt)
        assert abs(got.value - want) <= got.abs_err_est


def test_terminating_triple_at_z_one():
    # 1-z rounds to 1.0, so the scaled route evaluates the polynomial
    # F(10, -9; 11; z) at z = 1.0; M from mpmath at 40 digits
    got = m_value(MPoint(1.0, 20.0, 11.0, 1e-17))
    assert abs(got.value - 1.0825088224469022760568e+166) <= got.abs_err_est


# --------------------------------------------------------------------------
# properties

@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=0.1, max_value=0.9))
@settings(max_examples=200, deadline=None)
def test_positive_and_symmetric(z, a, b):
    c = min(1.0, a + b)  # keep a < min(c,1) territory of the main results
    if a >= c:
        c = a + 0.5 * b
    pt = m_value(MPoint(a, b, c, z))
    mirror = m_value(MPoint(a, b, c, 1.0 - z))
    assert pt.value > 0.0
    assert pt.value == pytest.approx(mirror.value, rel=1e-9)


def test_point_validation():
    from genellip.errors import DomainError
    with pytest.raises(DomainError):
        MPoint(0.5, 0.5, 1.0, 0.0)
    with pytest.raises(DomainError):
        MPoint(0.5, 0.5, 1.0, 1.0)
    with pytest.raises(ParameterError):
        MPoint(-0.1, 0.5, 1.0, 0.5)
