"""Generalized complete elliptic integral tests.

K(1/sqrt 2) in the classical case was frozen from two independent oracles
(explicit AGM loop; Gamma(1/4)^2/(4 sqrt pi) via the Stirling log-gamma),
which agree to 55 digits: 1.85407467730137191843385.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from genellip import (
    EllipticParams,
    Modulus,
    arth,
    beta,
    ell_derivatives,
    ell_e,
    ell_e_comp,
    ell_e_minus_rc2k,
    ell_k,
    ell_k_comp,
    ell_k_minus_e,
    p_logit,
)
from genellip.elliptic import _interior
from genellip.errors import DomainError, ParameterError
from genellip.hypergeom import _Triple
from genellip.verify.registry import R33

CLASSICAL = EllipticParams(0.5, 0.5, 1.0)
INV_SQRT2 = math.sqrt(0.5)


# --------------------------------------------------------------------------
# parameter and modulus plumbing

def test_params_validation():
    EllipticParams(0.3, 0.5, 0.7)  # fine: c <= a+b, a < min(c,1)
    with pytest.raises(ParameterError):
        EllipticParams(0.8, 0.5, 0.7)  # a >= c
    with pytest.raises(ParameterError):
        EllipticParams(0.3, 0.1, 0.7)  # c > a+b
    with pytest.raises(ParameterError):
        EllipticParams(1.2, 1.2, 1.0)  # a >= 1


def test_half_beta_is_computed_once_per_params(monkeypatch):
    # on these routes only B(a,b)/2 reads ln Gamma at a+b
    from genellip import hypergeom, scalar_special
    hypergeom._eval_pair.cache_clear()  # no table of an earlier test survives
    calls = []

    def counted(x, _f=scalar_special._lngamma_raw):
        calls.append(x)
        return _f(x)
    monkeypatch.setattr(scalar_special, "_lngamma_raw", counted)
    p = EllipticParams(0.3, 0.6, 0.7)
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        ell_k(p, Modulus.from_r(r))
    assert calls.count(p.a + p.b) == 1


def test_modulus_pair_round_trip():
    m = Modulus.from_r(0.6)
    assert m.r_comp == pytest.approx(0.8, rel=1e-15)
    assert m.z + m.z_comp == pytest.approx(1.0, abs=1e-15)
    c = m.complement
    assert (c.r, c.r_comp) == (m.r_comp, m.r)


def test_modulus_rejects_inconsistent_pair():
    with pytest.raises(DomainError):
        Modulus(0.6, 0.9)


def test_modulus_deep_complement_is_exact():
    # the pair construction must carry complements far below float(1-r)
    m = Modulus.from_r_comp(1e-50)
    assert m.z_comp == 1e-100
    assert m.r == 1.0  # r rounds to 1 but the pair stays usable


def _outcome(f, m):
    try:
        return f(m)
    except Exception as exc:  # both sides must fail alike
        return type(exc)


# the exact-pair log rules that p_logit, the registry's log r and mutheorem-2's
# weight each wrote for themselves before Modulus owned log_z and log_z_comp
_OLD_LOG_RULES = (
    (p_logit, lambda m: (
        math.log1p(-m.z_comp) - math.log(m.z_comp) if _interior(m, "p").z_comp < 0.5
        else math.log(m.z) - math.log1p(-m.z))),
    (lambda m: 0.5 * m.log_z, lambda m: (
        0.5 * math.log1p(-m.z_comp) if m.z_comp < 0.5 else 0.5 * math.log(m.z))),
    (lambda m: m.log_z, lambda m: math.log(m.z) if m.z <= 0.5 else math.log1p(-m.z_comp)),
    (lambda m: m.log_z_comp, lambda m: (
        math.log(m.z_comp) if m.z_comp <= 0.5 else math.log1p(-m.z))),
)


def test_modulus_holds_its_squares_and_one_log_rule():
    ms = [Modulus.from_r(r) for r in (1e-300, 0.5, 1.0 - 2.0 ** -53, *R33.dims[0].points())]
    ms += [Modulus.from_r_comp(1e-8), Modulus(0.6, 0.8), Modulus._pair(0.28, 0.96)]
    ms += [m.complement for m in ms]
    for m in ms:
        # stored when the pair is built, from each side alone
        assert vars(m)["z"] == m.r * m.r and vars(m)["z_comp"] == m.r_comp * m.r_comp
        assert repr(m) == f"Modulus(r={m.r!r}, r_comp={m.r_comp!r})"
        for new, old in _OLD_LOG_RULES:
            # where an old rule took the log of 0 (a bare ValueError), the
            # new one raises a DomainError that names r
            want = _outcome(old, m)
            assert _outcome(new, m) == (DomainError if want is ValueError else want), m
    # r^2 rounds to 1 - 2^-52 here, whose log is -2.2e-16; log1p of the
    # complement keeps log r^2 = log(1 - 1e-16)
    m = Modulus.from_r_comp(1e-8)
    assert m.log_z == pytest.approx(-1e-16, rel=1e-15) and math.log(m.z) < -2e-16


def test_log_of_a_square_that_is_zero_names_r():
    for m, log in ((Modulus.from_r(1e-300), "log_z"), (Modulus.from_r_comp(1e-300), "log_z_comp")):
        with pytest.raises(DomainError, match=f"r={m.r!r}, r'={m.r_comp!r}"):
            getattr(m, log)
        assert getattr(m.complement, log) == -0.0  # log1p of the other, tiny square


def test_arth():
    assert arth(0.5) == pytest.approx(math.atanh(0.5), rel=1e-15)
    # pair form stays finite and exact where 1-r underflows
    m = Modulus.from_r_comp(1e-8)
    assert arth(m.r, m.r_comp) == pytest.approx(
        math.log(2.0) - math.log(1e-8), rel=1e-12)
    with pytest.raises(DomainError):
        arth(1.0)


# --------------------------------------------------------------------------
# values at distinguished points

def test_k_at_zero_is_half_beta():
    for p in (CLASSICAL, EllipticParams(0.3, 0.5, 0.7)):
        want = 0.5 * beta(p.a, p.b).value
        assert ell_k(p, Modulus.from_r(0.0)).value == pytest.approx(
            want, rel=1e-14)
        assert ell_e(p, Modulus.from_r(0.0)).value == pytest.approx(
            want, rel=1e-14)


def test_k_classical_frozen():
    r = ell_k(CLASSICAL, Modulus.from_r(INV_SQRT2))
    assert r.value == pytest.approx(1.85407467730137191843385, rel=1e-14)
    assert abs(r.value - 1.85407467730137191843385) <= \
        10.0 * r.abs_err_est + 1e-14


def test_k_pole_at_one():
    r = ell_k(CLASSICAL, Modulus.from_r(1.0))
    assert r.value == math.inf
    assert not math.isfinite(r.value)


def test_e_at_one_classical():
    assert ell_e(CLASSICAL, Modulus.from_r(1.0)).value == pytest.approx(
        1.0, rel=1e-14)


def test_e_at_one_balanced_frozen():
    # (0.4, 0.4, 0.8): the endpoint formula collapses to 1/(2b) = 1.25,
    # confirmed by the Beta/Gamma oracle
    p = EllipticParams(0.4, 0.4, 0.8)
    assert ell_e(p, Modulus.from_r(1.0)).value == pytest.approx(
        1.25, rel=1e-13)


def test_e_at_one_within_its_estimate_of_the_log_beta_sum():
    # E(1) = B(a,b) B(c,c+1-a-b) / (2 B(c+1-a,c-b)), summed as logs; it is
    # (B(a,b)/2) F(a-1,b;c;1), with F(a-1,b;c;1) the Gauss sum of the (a-1, b, c) table
    import random

    from genellip.scalar_special import beta_ln
    rng = random.Random("e-at-one")
    n = 0
    while n < 2000:
        a, b = rng.uniform(1e-3, 0.999), rng.uniform(1e-3, 49.0)
        c = rng.uniform(b, min(a + b, 50.0))
        try:
            p = EllipticParams(a, b, c)
        except ParameterError:
            continue
        want = 0.5 * math.exp(beta_ln(a, b) + beta_ln(c, c + 1.0 - a - b)
                              - beta_ln(c + 1.0 - a, c - b))
        got = ell_e(p, Modulus.from_r(1.0))
        assert abs(got.value - want) <= got.abs_err_est, (a, b, c)
        assert got.value == p.half_beta * _Triple(a - 1.0, b, c).gauss_sum, (a, b, c)
        n += 1


# --------------------------------------------------------------------------
# complementary integrals

def test_comp_symmetry_point():
    m = Modulus.from_r(INV_SQRT2)
    assert ell_k_comp(CLASSICAL, m).value == pytest.approx(
        ell_k(CLASSICAL, m).value, rel=1e-14)


def test_comp_pole_at_zero():
    assert ell_k_comp(CLASSICAL, Modulus.from_r(0.0)).value == math.inf


def test_comp_is_k_of_complement():
    p = EllipticParams(0.3, 0.5, 0.7)
    m = Modulus.from_r(0.6)
    assert ell_k_comp(p, m).value == pytest.approx(
        ell_k(p, Modulus.from_r(0.8)).value, rel=1e-13)
    assert ell_e_comp(p, m).value == pytest.approx(
        ell_e(p, Modulus.from_r(0.8)).value, rel=1e-13)


# --------------------------------------------------------------------------
# difference forms

def test_k_minus_e_matches_subtraction():
    p = EllipticParams(0.3, 0.5, 0.7)
    for r in (0.05, 0.3, 0.6, 0.92, 0.9995):
        m = Modulus.from_r(r)
        direct = ell_k(p, m).value - ell_e(p, m).value
        assert ell_k_minus_e(p, m).value == pytest.approx(direct, rel=1e-10)


def test_k_minus_e_small_r_relative_accuracy():
    # near r = 0 the subtraction loses all digits; the series form must not
    p = CLASSICAL
    m = Modulus.from_r(1e-6)
    got = ell_k_minus_e(p, m).value
    # leading term: (half_beta) (b/c) z = (pi/2)(1/2) 1e-12
    want = math.pi / 4.0 * 1e-12
    assert got == pytest.approx(want, rel=1e-5)
    assert got > 0.0


def test_e_minus_rc2k_matches_subtraction():
    p = EllipticParams(0.4, 0.5, 0.8)
    for r in (0.1, 0.5, 0.85, 0.999):
        m = Modulus.from_r(r)
        direct = ell_e(p, m).value - m.z_comp * ell_k(p, m).value
        assert ell_e_minus_rc2k(p, m).value == pytest.approx(
            direct, rel=1e-9)


# (a,b,c), r, K-E, E-r'^2 K; frozen from tests/oracles.py (difference_forms),
# which takes each as a difference of two 60-digit raw 2F1 series.  The radii
# straddle z = 0.75 (the 2F1 regime switch) and z = 0.9; (0.5,0.5,1) is
# zero-balanced.
DIFFERENCE_FORMS = [
    ((0.3, 0.5, 0.7), 0.001, '1.6265872476967051715e-6', '6.5063478426070602618e-7'),
    ((0.3, 0.5, 0.7), 0.3, '0.15008259616148828674', '0.059037996882347658435'),
    ((0.3, 0.5, 0.7), 0.86, '1.6907298076276992193', '0.52735425133054080022'),
    ((0.3, 0.5, 0.7), 0.87, '1.7590364179068885984', '0.5415066837727262037'),
    ((0.3, 0.5, 0.7), 0.947, '2.5400381099269864981', '0.66333070305005332139'),
    ((0.3, 0.5, 0.7), 0.95, '2.5885591959089647318', '0.66868113110576955893'),
    ((0.3, 0.5, 0.7), 0.99, '3.9070216868955355012', '0.74854176819218247313'),
    ((0.3, 0.5, 0.7), 0.9995, '6.6997201737806072788', '0.77353364067160993652'),
    ((0.5, 0.5, 1.0), 0.001, '7.8539845792194369419e-7', '7.8539826157225558255e-7'),
    ((0.5, 0.5, 1.0), 0.3, '0.073215155007263754004', '0.071509220786482387136'),
    ((0.5, 0.5, 1.0), 0.86, '0.92071345163709215407', '0.66076098213899285016'),
    ((0.5, 0.5, 1.0), 0.87, '0.96237650008599546969', '0.67938863415745373541'),
    ((0.5, 0.5, 1.0), 0.947, '1.4559457436968327538', '0.84286402292617587927'),
    ((0.5, 0.5, 1.0), 0.95, '1.4872895826203371443', '0.85019555324389961957'),
    ((0.5, 0.5, 1.0), 0.99, '2.3281247143323879206', '0.96167945861391624319'),
    ((0.5, 0.5, 1.0), 0.9995, '3.8390870566962630194', '0.99733026342326529244'),
    ((0.25, 0.6, 0.8), 0.001, '1.8199922366447432062e-6', '6.0666399462263998782e-7'),
    ((0.25, 0.6, 0.8), 0.3, '0.16725813221338230149', '0.055023058969081045827'),
    ((0.25, 0.6, 0.8), 0.86, '1.7905955066305030117', '0.48908683432636931003'),
    ((0.25, 0.6, 0.8), 0.87, '1.8579228631997059357', '0.50210427879794290017'),
    ((0.25, 0.6, 0.8), 0.947, '2.5962879666084656915', '0.61366107814592804828'),
    ((0.25, 0.6, 0.8), 0.95, '2.6402733492245662926', '0.61853227145582131746'),
    ((0.25, 0.6, 0.8), 0.99, '3.7619771140777444486', '0.69062556614925343083'),
    ((0.25, 0.6, 0.8), 0.9995, '5.8171749915405047051', '0.71251124551125980727'),
]


@pytest.mark.parametrize("abc, r, kme, emk", DIFFERENCE_FORMS)
def test_difference_forms_against_oracle(abc, r, kme, emk):
    p, m = EllipticParams(*abc), Modulus.from_r(r)
    assert ell_k_minus_e(p, m).value == pytest.approx(float(kme), rel=1e-10)
    assert ell_e_minus_rc2k(p, m).value == pytest.approx(float(emk), rel=1e-10)


def test_difference_forms_at_pole():
    m = Modulus.from_r(1.0)
    assert ell_k_minus_e(CLASSICAL, m).value == math.inf
    # E - r'^2 K -> E(1) which is finite
    assert ell_e_minus_rc2k(CLASSICAL, m).value == pytest.approx(
        1.0, rel=1e-12)


# --------------------------------------------------------------------------
# derivatives

def test_de_dr_sign_classical():
    m = Modulus.from_r(0.5)
    d = ell_derivatives(CLASSICAL, m)
    kme = ell_k_minus_e(CLASSICAL, m).value
    want = 2.0 * (CLASSICAL.a - 1.0) / 0.5 * kme
    assert d.dE_dr == pytest.approx(want, rel=1e-12)
    assert d.dE_dr < 0.0


def test_dkme_linearity():
    m = Modulus.from_r(0.5)
    d = ell_derivatives(CLASSICAL, m)
    assert d.dKmE_dr == pytest.approx(d.dK_dr - d.dE_dr, rel=1e-10)


def test_derivatives_against_central_differences():
    p = EllipticParams(0.4, 0.5, 0.8)
    r, h = 0.3, 1e-5
    d = ell_derivatives(p, Modulus.from_r(r))

    def num(f):
        hi = f(p, Modulus.from_r(r + h)).value
        lo = f(p, Modulus.from_r(r - h)).value
        return (hi - lo) / (2.0 * h)

    assert d.dK_dr == pytest.approx(num(ell_k), rel=1e-8)
    assert d.dE_dr == pytest.approx(num(ell_e), rel=1e-8)
    assert d.dKmE_dr == pytest.approx(num(ell_k_minus_e), rel=1e-8)
    assert d.dEmr2K_dr == pytest.approx(num(ell_e_minus_rc2k), rel=1e-8)


# --------------------------------------------------------------------------
# shape properties

@given(st.floats(min_value=0.01, max_value=0.97))
@settings(max_examples=150, deadline=None)
def test_k_above_e_and_monotone(r):
    p = EllipticParams(0.3, 0.6, 0.8)
    m = Modulus.from_r(r)
    m2 = Modulus.from_r(r + 0.01)
    K, E = ell_k(p, m).value, ell_e(p, m).value
    assert K > E  # strict for r > 0
    assert ell_k(p, m2).value > K     # K increasing
    assert ell_e(p, m2).value < E     # E decreasing


@given(st.floats(min_value=0.05, max_value=0.6),
       st.floats(min_value=0.05, max_value=0.6),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=150, deadline=None)
def test_k_e_bracket_half_beta(a, b, r):
    # E <= B/2 <= K on [0,1), from the monotonicity in r
    c = min(1.0, a + b)
    p = EllipticParams(a, b, c)
    m = Modulus.from_r(r)
    hb = 0.5 * beta(a, b).value
    assert ell_e(p, m).value <= hb * (1.0 + 1e-12)
    assert ell_k(p, m).value >= hb * (1.0 - 1e-12)
