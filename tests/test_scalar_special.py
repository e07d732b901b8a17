"""Tests for the scalar special-function layer.

Frozen reference values were produced by the independent oracles in
tests/oracles.py (recurrence+Stirling log-gamma, defining series with
Euler-Maclaurin tails for digamma); run `python3 tests/oracles.py`
to regenerate the table.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from genellip import (
    beta,
    beta_ln,
    digamma,
    gamma,
    gamma_ln,
    ramanujan_r,
)
from genellip.errors import DomainError, ParameterError, PoleError
from genellip.scalar_special import _lngamma_signed

EULER_GAMMA = 0.57721566490153286061


# --------------------------------------------------------------------------
# gamma_ln

def test_gamma_ln_at_one_is_zero():
    assert gamma_ln(1.0).value == pytest.approx(0.0, abs=1e-15)


def test_gamma_ln_half():
    # log sqrt(pi)
    assert gamma_ln(0.5).value == pytest.approx(0.5723649429247001, rel=1e-14)


def test_gamma_ln_oracle_7_25():
    # oracle: Stirling series after recurrence shift, 60 digits
    r = gamma_ln(7.25)
    assert r.value == pytest.approx(7.052185450738539444925749, rel=1e-14)
    assert abs(r.value - 7.052185450738539444925749) <= 10 * r.abs_err_est + 1e-14


# --------------------------------------------------------------------------
# gamma

def test_gamma_half_is_sqrt_pi():
    assert gamma(0.5).value == pytest.approx(math.sqrt(math.pi), rel=1e-14)


def test_gamma_five_is_factorial():
    assert gamma(5.0).value == pytest.approx(24.0, rel=1e-14)


def test_gamma_negative_half_reflection():
    # Gamma(-1/2) = -2 sqrt(pi); oracle confirms -3.544907701811032054596335
    assert gamma(-0.5).value == pytest.approx(-3.544907701811032054596335,
                                              rel=1e-14)


def test_gamma_rejects_nonpositive_integers():
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(DomainError):
            gamma(x)


def test_signed_lngamma_rejects_its_poles():
    # the 2F1 tables read it directly, past gamma's own pole check
    for x in (0.0, -1.0, -7.0):
        with pytest.raises(PoleError):
            _lngamma_signed(x)


@given(st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=300, deadline=None)
def test_gamma_recurrence(x):
    """Gamma(x+1) = x Gamma(x), the defining functional equation."""
    lhs = gamma(x + 1.0).value
    rhs = x * gamma(x).value
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --------------------------------------------------------------------------
# digamma

def test_digamma_one_is_minus_euler():
    assert digamma(1.0).value == pytest.approx(-EULER_GAMMA, rel=1e-13)


def test_digamma_half():
    assert digamma(0.5).value == pytest.approx(
        -EULER_GAMMA - 2.0 * math.log(2.0), rel=1e-13)


def test_digamma_oracle_3_7():
    # oracle: defining series with Euler-Maclaurin tail
    assert digamma(3.7).value == pytest.approx(1.167153539361511385873864,
                                               rel=1e-13)


@given(st.floats(min_value=0.05, max_value=40.0))
@settings(max_examples=300, deadline=None)
def test_digamma_recurrence(x):
    assert digamma(x + 1.0).value == pytest.approx(
        digamma(x).value + 1.0 / x, rel=1e-11, abs=1e-12)


# --------------------------------------------------------------------------
# beta

def test_beta_half_half_is_pi():
    assert beta(0.5, 0.5).value == pytest.approx(math.pi, rel=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_beta_one_n(n):
    assert beta(1.0, float(n)).value == pytest.approx(1.0 / n, rel=1e-14)


def test_beta_oracle():
    assert beta(0.3, 0.9).value == pytest.approx(3.481796250499138687903324,
                                                 rel=1e-14)


def test_beta_ln_consistent():
    assert math.exp(beta_ln(0.3, 0.9)) == pytest.approx(
        beta(0.3, 0.9).value, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=20.0),
       st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=200, deadline=None)
def test_beta_symmetric(x, y):
    assert beta(x, y).value == pytest.approx(beta(y, x).value, rel=1e-13)


# --------------------------------------------------------------------------
# ramanujan_r

def test_r_half_half_is_log16():
    assert ramanujan_r(0.5, 0.5).value == pytest.approx(math.log(16.0),
                                                        rel=1e-13)


def test_r_one_one_is_zero():
    assert ramanujan_r(1.0, 1.0).value == pytest.approx(0.0, abs=1e-13)


def test_r_quarter_three_quarters_oracle():
    # digamma oracle gives 4.158883083359671856503393, which is 6 log 2
    v = ramanujan_r(0.25, 0.75).value
    assert v == pytest.approx(4.158883083359671856503393, rel=1e-13)
    assert v == pytest.approx(6.0 * math.log(2.0), rel=1e-13)


@given(st.floats(min_value=0.05, max_value=5.0),
       st.floats(min_value=0.05, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_r_symmetric_and_matches_digamma(a, b):
    r = ramanujan_r(a, b).value
    assert r == pytest.approx(ramanujan_r(b, a).value, rel=1e-12, abs=1e-12)
    direct = -digamma(a).value - digamma(b).value - 2.0 * EULER_GAMMA
    assert r == pytest.approx(direct, rel=1e-11, abs=1e-11)


# --------------------------------------------------------------------------
# domain validation

def test_bad_arguments_raise():
    with pytest.raises((DomainError, ParameterError)):
        beta(-1.0, 2.0)
    with pytest.raises((DomainError, ParameterError)):
        digamma(0.0)
    with pytest.raises((DomainError, ParameterError)):
        gamma_ln(-2.0)
