"""Gauss hypergeometric evaluation tests.

Frozen decimals come from the raw-series oracle in tests/oracles.py
(60-digit arithmetic, geometric tail bound).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from genellip import (
    EllipticParams,
    HypParams,
    Modulus,
    ModulusParams,
    hyp2f1,
    hyp2f1_pair,
    beta,
    gamma_ln,
)
from genellip.errors import ConvergenceError, DomainError, ParameterError, SaturationError
from genellip.hypergeom import (_connection, _direct_series, _eval_pair, _first_ratios,
                                _integer_d, _near_zero_balanced, _Triple, _zero_balanced)
from genellip.result import EvalResult, Method
from genellip.scalar_special import _is_nonpositive_integer


def gauss_value(a, b, c):
    """F(a,b;c;1) for c > a+b, by the log-gamma route."""
    return math.exp(gamma_ln(c).value + gamma_ln(c - a - b).value
                    - gamma_ln(c - a).value - gamma_ln(c - b).value)


# --------------------------------------------------------------------------
# basic values

def test_value_at_zero_is_one():
    for p in (HypParams(0.5, 0.5, 1.0), HypParams(2.0, 3.0, 0.7)):
        assert hyp2f1(p, 0.0).value == 1.0


def test_frozen_half_half_one():
    r = hyp2f1(HypParams(0.5, 0.5, 1.0), 0.5)
    assert r.value == pytest.approx(1.180340599016096226045338, rel=1e-14)


def test_gauss_limit_c_greater_ab():
    # c > a+b: F converges at z=1 to the Gauss value; the approach rate
    # is (1-z)^(c-a-b), so the bound scales with that factor
    a, b, c = 0.3, 0.4, 1.1
    want = gauss_value(a, b, c)
    eps = 1e-12
    got = hyp2f1(HypParams(a, b, c), 1.0 - eps).value
    assert abs(got - want) <= 5.0 * eps ** (c - a - b) * want


def test_frozen_near_one_zero_balanced():
    # (0.3, 0.7, 1.0) is zero balanced; z=0.99 exercises the connection route
    r = hyp2f1(HypParams(0.3, 0.7, 1.0), 0.99)
    assert r.value == pytest.approx(2.107710917717898159567188, rel=1e-12)


def test_frozen_near_one_c_exceeds_ab():
    r = hyp2f1(HypParams(0.2, 0.3, 1.0), 0.999)
    assert r.value == pytest.approx(1.164827014619428883209214, rel=1e-12)


def test_ramanujan_asymptote():
    # B F(z) + log(1-z) -> R(a,b) as z -> 1 in the zero-balanced case
    p = HypParams(0.5, 0.5, 1.0)
    z = 1.0 - 1e-8
    B = beta(0.5, 0.5).value
    lhs = B * hyp2f1(p, z).value + math.log1p(-z)
    assert abs(lhs - math.log(16.0)) <= 1e-6


def test_internal_route_crosscheck_z09():
    # direct series against the pair-aware ladder at its switch region
    p = HypParams(0.5, 0.5, 1.0)
    direct = hyp2f1(p, 0.9)
    paired = hyp2f1_pair(p, 0.9, 0.1)
    assert abs(direct.value - paired.value) <= \
        direct.abs_err_est + paired.abs_err_est + 1e-15 * direct.value


# --------------------------------------------------------------------------
# Euler transform: F(a,b;c;z) = (1-z)^(c-a-b) F(c-a,c-b;c;z)

def euler_side(p, z):
    """The right-hand side of the Euler transformation, (value, error)."""
    d = p.c - p.a - p.b
    inner = hyp2f1(HypParams(p.c - p.a, p.c - p.b, p.c), z)
    factor = (1.0 - z) ** d
    return factor * inner.value, factor * inner.abs_err_est


def test_euler_identity_instance():
    p = HypParams(0.5, 0.5, 1.0)
    assert euler_side(p, 0.5)[0] == pytest.approx(hyp2f1(p, 0.5).value, rel=1e-11)


def test_euler_c_exceeds_ab_near_one():
    # a+b < c keeps the transformed value finite all the way up
    value, _ = euler_side(HypParams(0.2, 0.3, 1.0), 0.999)
    assert math.isfinite(value)
    assert value == pytest.approx(1.164827014619428883209214, rel=1e-9)


def test_euler_at_zero():
    assert euler_side(HypParams(0.4, 1.1, 2.0), 0.0)[0] == 1.0


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.1, max_value=3.0),
       st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=200, deadline=None)
def test_euler_transform_residual(z, a, b, extra):
    """(1-z)^(c-a-b) F(c-a,c-b;c;z) = F(a,b;c;z) when c > max(a,b)."""
    c = max(a, b) + extra
    p = HypParams(a, b, c)
    lhs, lhs_err = euler_side(p, z)
    rhs = hyp2f1(p, z)
    tol = 5.0 * (lhs_err + rhs.abs_err_est) + 1e-12 * abs(rhs.value)
    assert abs(lhs - rhs.value) <= tol


# --------------------------------------------------------------------------
# contiguous shifts and the derivative

def test_shift_a_minus_is_e_kernel():
    # F(a-1,b;c;r^2) is the E-integrand kernel: scaled E equals (B/2) F(a-)
    from genellip import EllipticParams, Modulus, ell_e
    ep = EllipticParams(0.5, 0.5, 1.0)
    r = 0.6
    f = _eval_pair(_Triple(-0.5, 0.5, 1.0), r * r, 1.0 - r * r)
    e = ell_e(ep, Modulus.from_r(r))
    B = beta(0.5, 0.5).value
    assert e.value == pytest.approx(0.5 * B * f.value, rel=1e-12)


def test_shift_c_plus_at_zero():
    assert hyp2f1(HypParams(1.0, 1.0, 3.0), 0.0).value == 1.0


def test_shift_a_plus_frozen():
    r = hyp2f1(HypParams(1.4, 0.6, 1.2), 0.7)
    assert r.value == pytest.approx(2.375800693417542594734975, rel=1e-12)


def test_deriv_matches_central_difference():
    # dF/dz = (ab/c) F(a+1,b+1;c+1;z), by the term-shift identity
    p = HypParams(0.4, 0.8, 1.1)
    z, h = 0.35, 1e-6
    want = (hyp2f1(p, z + h).value - hyp2f1(p, z - h).value) / (2.0 * h)
    shifted = hyp2f1(HypParams(1.4, 1.8, 2.1), z).value
    assert p.a * p.b / p.c * shifted == pytest.approx(want, rel=1e-8)


# --------------------------------------------------------------------------
# structural properties

@given(st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.1, max_value=5.0),
       st.floats(min_value=0.2, max_value=5.0),
       st.floats(min_value=0.0, max_value=0.95))
@settings(max_examples=200, deadline=None)
def test_symmetric_in_a_b(a, b, c, z):
    lhs = hyp2f1(HypParams(a, b, c), z).value
    rhs = hyp2f1(HypParams(b, a, c), z).value
    assert lhs == pytest.approx(rhs, rel=1e-13)


@given(st.floats(min_value=0.05, max_value=0.9))
@settings(max_examples=100, deadline=None)
def test_positive_series_monotone_in_z(z):
    # positive parameters give a positive-coefficient series
    p = HypParams(0.5, 0.7, 1.3)
    assert hyp2f1(p, z + 0.05).value > hyp2f1(p, z).value >= 1.0


def test_error_estimate_covers_truth():
    # frozen oracle points: estimate must cover the actual error
    cases = [
        (HypParams(0.5, 0.5, 1.0), 0.5, 1.180340599016096226045338),
        (HypParams(0.3, 0.7, 1.0), 0.99, 2.107710917717898159567188),
        (HypParams(0.2, 0.3, 1.0), 0.999, 1.164827014619428883209214),
    ]
    for p, z, want in cases:
        r = hyp2f1(p, z)
        assert abs(r.value - want) <= 20.0 * r.abs_err_est + 5e-15 * want


def test_method_tags():
    assert hyp2f1(HypParams(0.5, 0.5, 1.0), 0.3).method is Method.SERIES
    near = hyp2f1(HypParams(0.5, 0.5, 1.0), 1.0 - 1e-10).method
    assert near in (Method.TRANSFORM_NEAR_ONE, Method.ASYMPTOTIC)


def test_domain_rejections():
    with pytest.raises((DomainError, ParameterError)):
        hyp2f1(HypParams(0.5, 0.5, 1.0), 1.5)
    with pytest.raises((DomainError, ParameterError)):
        hyp2f1(HypParams(0.5, 0.5, 1.0), -0.2)
    with pytest.raises(ParameterError):
        HypParams(-0.5, 0.5, 1.0)
    with pytest.raises(ParameterError):
        HypParams(0.5, 0.5, 51.0)
    with pytest.raises(DomainError, match="complement"):
        hyp2f1_pair(HypParams(0.5, 0.5, 1.0), 0.5, 0.25)


def test_pair_complement_must_be_one_minus_z_to_rounding():
    p = HypParams(0.5, 0.5, 1.0)
    # a gap of 1e-13 near z = 1 is the whole complement: F there is
    # 10.4106062245013 (mpmath), F at z = 1 - 1e-15 is 11.88
    with pytest.raises(DomainError, match="complement"):
        hyp2f1_pair(p, 1.0 - 1e-13, 1e-15)
    # the complement of a modulus pair at the 1e-15 edge of Modulus
    m = Modulus(0.6, math.nextafter(0.8, 1.0))
    assert hyp2f1_pair(p, m.z, m.z_comp).value == pytest.approx(
        hyp2f1(p, 0.36).value, rel=1e-14)


# --------------------------------------------------------------------------
# c-a-b near 0: the near-balanced kernel against a 100-digit oracle

# (a, b, c, u, F(a,b;c;1-u)); frozen from tests/oracles.py
# (near_balanced_points, hyp2f1_near_balanced): 40 seeded points with
# 1e-12 < |c-a-b| < 1e-6, then the triples within three ulps of each edge
# of that band, on both sides.
NEAR_BALANCED = [
    (1.3414622802217981, 0.18821325665572863, 1.5296754703593651, 1e-12, 6.547808538847473211044968),
    (0.09267049631598952, 0.09877260508145515, 0.19144376173787755, 0.25, 1.06656732045037844131978),
    (0.3040809928314107, 0.10269764846000881, 0.4067786413210319, 5.245623896018327e-11, 2.886255503403665091042739),
    (1.8476808504712963, 0.5425377849448074, 2.3902183212359147, 5.8297904593332075e-12, 20.8710488856994392505455),
    (0.08044028038224976, 0.29577722727275896, 0.3762175075891339, 8.570547740516708e-08, 2.058293755302537886634688),
    (0.06847570925736635, 0.051453646586769555, 0.11992935594572902, 3.7533416824897445e-10, 1.640778329988441636415921),
    (2.689491327207322, 0.44477290460445773, 3.1342642267394365, 6.640663490506125e-12, 19.4039966146664992807181),
    (0.08435664620601917, 0.14751975574938586, 0.23187640195782802, 2.1380979673545768e-10, 2.214661997321062589628414),
    (2.3144270415197647, 1.1382580480972042, 3.452685089459209, 3.0548757473940253e-06, 32.35302169446086555926026),
    (0.25077688484547955, 0.3132473289098491, 0.5640242145082133, 0.06753053339368201, 1.393312405486375954485657),
    (0.07113676291642408, 0.19376962918407756, 0.2649063922698177, 0.0003422703889223143, 1.421689736063984653377089),
    (0.16173888376215836, 2.8551122031321285, 3.0168509813565914, 8.340608425907938e-09, 4.649421562804684101067867),
    (1.2166839556750955, 0.962466292680731, 2.17915024775501, 3.436648717678423e-06, 14.373356021288681963797),
    (0.5597863450369871, 2.4280794717917056, 2.9878658161151677, 8.766590694465091e-06, 11.32817956320575282775599),
    (0.35750141376209327, 0.17709980321371907, 0.5346013335022333, 4.546119813952946e-06, 2.556324909998141006568583),
    (1.3835899713442776, 0.4979277465046021, 1.881517717913099, 1.5063700357833368e-11, 15.60487972386881189620807),
    (0.1493591128956062, 0.13639493276480696, 0.2857540534841799, 1.0931200846720216e-11, 2.846980489770280469933932),
    (1.2466452248573316, 0.7066897789838642, 1.9533350038388495, 5.82703389994e-07, 12.29325257981520301054717),
    (1.370792169304461, 1.2884918942409884, 2.6592840578970627, 5.179590346170293e-06, 21.12059070614043791502108),
    (0.252561225216399, 0.7138046630679128, 0.9663658881521272, 2.5276621090063426e-06, 3.810816910085945285393918),
    (1.6947448090095578, 2.5031654810175223, 4.197910290020197, 0.018444303212024768, 13.88822771092184841650314),
    (0.9516829239561913, 0.3252747739040431, 1.276957704522938, 0.09342568351357511, 1.649282562666841589384909),
    (0.0773445242977117, 0.08053302663817385, 0.15787768473209907, 0.0006768905682995624, 1.290043903614662547760245),
    (0.6999818378852201, 2.644255869289209, 3.3442377071769127, 1.881147646570089e-11, 35.12421200613610598384764),
    (0.5981934711639015, 2.4413208293172626, 3.039514883660536, 6.007091965469844e-08, 17.78992229021737604426919),
    (0.12769976351220352, 2.1251837715932793, 2.252883534667822, 8.465677456467293e-10, 3.991039112675763214496777),
    (0.6443092912204362, 0.06359246305609169, 0.707901754733716, 1.6970624553446777e-07, 1.939968533946086216020309),
    (0.055207424894154575, 0.1733704255536922, 0.22857796296484403, 1.6117444302917535e-06, 1.565255527670927922074103),
    (1.0875139682477246, 0.5376873968171484, 1.625201365148116, 0.03545177307618288, 2.550138841374644547814377),
    (0.21516117206715327, 0.0730757489120727, 0.2882369209568383, 0.21239247701893643, 1.085151182951861634740883),
    (0.6241460131462564, 0.9246920073328718, 1.5488380135420494, 0.00028743306494867477, 5.404124918684182879385529),
    (0.6881653952071819, 0.162939474242097, 0.8511051853265237, 5.657264796184923e-07, 3.102215952770965241951101),
    (0.2584700706807821, 0.30128611762261187, 0.5597561882897235, 0.00481856131737257, 1.792425713586360355639077),
    (0.40773763806460095, 0.27795473001781995, 0.6856928166652092, 3.359383223648491e-10, 5.051495628016865664872467),
    (0.4545427118351409, 1.9796384943292358, 2.434181421131115, 1.2273527612459533e-07, 10.88846042244521404637328),
    (2.20241620912789, 0.30945014812387533, 2.5118663568404727, 6.0443781346178036e-05, 4.785255680928504315695631),
    (0.2817172077043961, 0.5630574989148385, 0.844774687573666, 3.891425604479742e-10, 5.737327124112941066598733),
    (1.1695663357345467, 0.17169241193912285, 1.3412587474999786, 4.5332767806989136e-05, 2.734410423785685115072526),
    (0.4007758254796216, 0.1152051376586098, 0.5159809630908297, 5.5096348987009275e-08, 2.573225430178218728853904),
    (0.35734879175644363, 1.4148254919264058, 1.7721742836924244, 9.65203557285071e-12, 11.36388843097883339452187),
    (0.5, 0.25, 0.7499999999989997, 1e-06, 3.594895278577902348582786),
    (0.5, 0.25, 0.7499999999989998, 1e-06, 3.594895278577900159393231),
    (0.5, 0.25, 0.7499999999989999, 1e-06, 3.594895278577897970203676),
    (0.5, 0.25, 0.749999999999, 1e-06, 3.594895278577895781014121),
    (0.5, 0.25, 0.7499999999990001, 1e-06, 3.594895278577893591824567),
    (0.5, 0.25, 0.7499999999990002, 1e-06, 3.594895278577891402635012),
    (0.5, 0.25, 0.7499999999990004, 1e-06, 3.594895278577889213445457),
    (0.5, 0.25, 0.7500000000009996, 0.25, 1.240806478802365559623649),
    (0.5, 0.25, 0.7500000000009998, 0.25, 1.24080647880236551143333),
    (0.5, 0.25, 0.7500000000009999, 0.25, 1.240806478802365463243011),
    (0.5, 0.25, 0.750000000001, 0.25, 1.240806478802365415052692),
    (0.5, 0.25, 0.7500000000010001, 0.25, 1.240806478802365366862374),
    (0.5, 0.25, 0.7500000000010002, 0.25, 1.240806478802365318672055),
    (0.5, 0.25, 0.7500000000010003, 0.25, 1.240806478802365270481736),
    (0.5, 0.25, 0.7499989999999996, 1e-12, 6.229449470210657921915858),
    (0.5, 0.25, 0.7499989999999997, 1e-12, 6.229449470210649522531834),
    (0.5, 0.25, 0.7499989999999999, 1e-12, 6.22944947021064112314781),
    (0.5, 0.25, 0.749999, 1e-12, 6.229449470210632723763787),
    (0.5, 0.25, 0.7499990000000001, 1e-12, 6.229449470210624324379763),
    (0.5, 0.25, 0.7499990000000002, 1e-12, 6.229449470210615924995739),
    (0.5, 0.25, 0.7499990000000003, 1e-12, 6.229449470210607525611715),
    (0.5, 0.25, 0.7500009999999997, 1e-06, 3.594875560190478541061685),
    (0.5, 0.25, 0.7500009999999998, 1e-06, 3.594875560190476351894073),
    (0.5, 0.25, 0.7500009999999999, 1e-06, 3.594875560190474162726461),
    (0.5, 0.25, 0.750001, 1e-06, 3.594875560190471973558849),
    (0.5, 0.25, 0.7500010000000001, 1e-06, 3.594875560190469784391236),
    (0.5, 0.25, 0.7500010000000003, 1e-06, 3.594875560190467595223624),
    (0.5, 0.25, 0.7500010000000004, 1e-06, 3.594875560190465406056012),
]


def test_near_balanced_route_meets_its_error_bound():
    inside = 0
    for a, b, c, u, want in NEAR_BALANCED:
        r = hyp2f1_pair(HypParams(a, b, c), 1.0 - u, u)
        assert abs(r.value - want) <= r.abs_err_est, (a, b, c, u)
        # outside the band the zero-balanced route charges |c-a-b| |ln u| and
        # the connection route its 1/|c-a-b| cancellation, both over 1e-13
        if _Triple(a, b, c).route == "near_balanced":
            inside += 1
            assert r.abs_err_est <= 1e-13 * abs(want), (a, b, c, u)
    assert inside == 52  # the 40 seeded points and 12 of the 28 at the edges


def test_band_across_a_gamma_pole_takes_the_series():
    # c-b = a + (c-a-b) crosses the pole of Gamma at 0, where the logs of the
    # near-balanced kernel fail; the value is the raw series of tests/oracles.py
    a, b, c = 1e-9, 2.0, 2.0 - 9e-9
    assert _Triple(a, b, c).route == "series"
    r = hyp2f1(HypParams(a, b, c), 0.9)
    assert abs(r.value - 1.000000002302585117175118578) <= r.abs_err_est
    # Triples whose kernel meets a pole that (a, b, c) does not have: a-1
    # rounds onto -1 on the integer-d route (its log part's prefactor came
    # out 0), and the near-balanced logs overflow beside the pole at 0.
    # Values from mpmath.hyp2f1 at 40 digits.
    for a, b, c, z, want in ((1e-300, 1.0, 1e-9, 0.81, 1.0),
                             (1e-300, 1e-300, 1e-9, 0.9, 1.0)):
        assert _Triple(a, b, c).route == "series"
        r = hyp2f1(HypParams(a, b, c), z)
        assert abs(r.value - want) <= r.abs_err_est <= 1e-14
    # c-a or c-b a few ulps above the pole at 0, with no pole crossed: the
    # near-balanced kernel keeps them and takes that step from the exact
    # c-b or c-a, where the rounded c-a-b had lost its digits (the Maclaurin
    # series would need millions of terms at 1-z = 1e-12).  Values from
    # mpmath.hyp2f1 at 50 digits.
    for a, b, c, z, want in (
            (2e-9, 1e-9, 2.0000000000000005e-09, 0.9, 1.000000002302585095644995),
            (2e-9, 1e-9, 2.0000000000000005e-09, 1 - 1e-12, 1.000000027631043619630633),
            (1.0000000001e-07, 0.5, 0.5000000000000001, 0.9, 1.000000230258535831922961),
            (1.0000000001e-07, 0.5, 0.5000000000000001, 1 - 1e-10, 1.00000230258773590133553)):
        assert _Triple(a, b, c).route == "near_balanced"
        r = hyp2f1(HypParams(a, b, c), z)
        assert abs(r.value - want) <= r.abs_err_est <= 1e-14


def test_near_balanced_takes_both_pole_steps_out_of_the_exponential():
    # a and b each one ulp from their pole steps: eps Phi_0 would be near 71,
    # and the exponential of G_0 lost that many ulps (2.0e-14 off, estimate
    # 7.9e-15).  Values from mpmath.hyp2f1 at 40 digits.
    a, b, c = 1.0000000000000003e-09, 1e-09, 1.0000000000000005e-09
    for z, want in ((0.9999, 1.000000009210340414391477),
                    (0.999, 1.000000006907755302840677)):
        for p in (HypParams(a, b, c), HypParams(b, a, c)):
            assert _Triple(p.a, p.b, p.c).route == "near_balanced"
            r = hyp2f1(p, z)
            assert abs(r.value - want) <= r.abs_err_est <= 1e-14


def test_integer_d_log_series_stops_in_the_units_of_f():
    # c-a-b = -10: the log series' terms take the prefactor Gamma(c)/Gamma(a-10)
    # Gamma(b-10) = 4.1e28 before they meet the finite part, and compared bare
    # with it they ended the sum after three terms (-9.51e23 +- 6.7e9 at
    # z = 0.88, -1.12e23 at 0.95).  Values from mpmath.hyp2f1 at 40 digits.
    p = HypParams(30.0, 30.0, 50.0)
    assert _Triple(p.a, p.b, p.c).route == "integer_d"
    for z, want in ((0.88, 109094198138418.4356536792210432476845385),
                    (0.95, 4617206793911511280.977019550116776516079)):
        r = hyp2f1(p, z)
        assert abs(r.value - want) <= r.abs_err_est <= 1e-2 * want


def test_integer_d_below_zero_takes_gamma_beside_a_pole_from_its_product():
    # c-a-b = -k with a or b tiny: a-k or b-k rounded beside a pole of Gamma
    # lost the digits of the tiny parameter, and Gamma(c)/Gamma(a-k) Gamma(b-k)
    # with them (1.0000003280505958 +- 7.0e-15 at the first row, a miss of
    # 7e5 times the estimate).  Values from mpmath.hyp2f1 at 40 digits.
    for a, b, c, z, want in (
            (1e-08, 1.3, 0.30000001, 0.9, 1.000000323025841152997711313966100555687),
            (2.6297112119726225, 1.956803065118514e-12, 0.6297112119745791, 0.9997469530869505,
             1.000029787325508471364004235579825411627)):
        assert _Triple(a, b, c).route == "integer_d"
        r = hyp2f1(HypParams(a, b, c), z)
        assert abs(r.value - want) <= r.abs_err_est <= 1e-14


def test_near_balanced_takes_gamma_beside_a_pole_by_reflection():
    # c-a = -1 - 3 2^-53 rounds to -1.0000000000000004, half an ulp off beside
    # the pole -1 of Gamma(c-a), which gave -1.0666660386213007; the pole step
    # of b holds the exact c-a+1.  Value from mpmath.hyp2f1 at 40 digits.
    key = _Triple(2.0, -1.0000005000000003, 0.9999999999999997)
    assert key.route == "near_balanced"
    r = _eval_pair(key, 0.9, 0.1)
    assert abs(r.value - -0.7999995289659752795489409931383437666371) <= r.abs_err_est <= 1e-8


# (a, b, c, z, F(a-1, b; c; z)) for b = c + 1 exactly and a tiny: the contiguous
# triple (a-1, b, c) of M lies in the near-balanced band with c-b = -1, a pole
# of Gamma(c-b).  Values from mpmath.hyp2f1 at 40 digits.
TERMINATING = (
    (1e-8, 7.3, 6.3, 0.8, 0.07301587546085941526745826435522461480946),
    (1e-8, 7.3, 6.3, 0.9, -0.04285714241539361728761456708865584669635),
    (1e-8, 7.3, 6.3, 1 - 1e-6, -0.1587290203419231223976845898591336386438),
    (1e-8, 3.5, 2.5, 0.8, -0.119999998731325514758355404743630904392),
    (1e-8, 3.5, 2.5, 0.9, -0.2600000023867212708950758922517663264412),
    (1e-8, 3.5, 2.5, 1 - 1e-6, -0.3999986512618562966483767716132990344516),
    (1e-9, 1.7, 0.7, 0.8, -0.9428571432317559151508957440252019867436),
    (1e-9, 1.7, 0.7, 0.9, -1.185714287158779562229478569403034109796),
    (1e-9, 1.7, 0.7, 1 - 1e-6, -1.428569018307839721851343020442745847203),
    # c-b = -1 decides before the rule for a pole crossed between a-1 and
    # a-1+(c-a-b), which would send these to a series of over 400,000 terms
    (1e-9, 7.3, 6.3, 0.9, -0.04285714281296796334790939386856420321542),
    (1e-9, 7.3, 6.3, 1 - 1e-6, -0.1587290020341921019304135271998558312214),
    (1e-7, 7.3, 6.3, 1 - 1e-6, -0.1587292034193469515311718278210386252161),
)


@pytest.mark.parametrize("a, b, c, z, want", TERMINATING)
def test_band_beside_a_gamma_pole_takes_the_terminating_form(a, b, c, z, want):
    # Gamma(c-b) meets its pole in the near-balanced prefactor, but F is
    # (1-z)^(c-a-b) times the polynomial F(c-a, -1; c; z)
    key = _Triple(a - 1.0, b, c)
    assert key.route == "terminating"
    r = _eval_pair(key, z, 1.0 - z)
    assert abs(r.value - want) <= r.abs_err_est <= 1e-14


def test_a_polynomial_stops_at_its_first_zero_term_even_at_one():
    # F(10, -9; 11; 1) = 9! 10!/19! (Chu-Vandermonde); at z = 1 the ratio
    # test never passes, so only the zero term ends the sum
    r = _eval_pair(_Triple(10.0, -9.0, 11.0), 1.0, 0.0)
    want = math.factorial(9) * math.factorial(10) / math.factorial(19)
    assert abs(r.value - want) <= r.abs_err_est <= 1e-12


def test_a_series_that_never_settles_raises_at_the_term_cap():
    # c < a+b: the terms fall only like k^-0.1 (1-1e-9)^k, so every chunk is
    # summed, the last one of 6,848 terms too, and none passes the stop test
    with pytest.raises(ConvergenceError, match="more than 400000 terms"):
        _direct_series(0.5, 0.5, 0.1, 1 - 1e-9, _first_ratios(0.5, 0.5, 0.1))


def test_series_terms_stay_in_range_up_to_z_safe_and_warn_nothing_past_it():
    # up to the head's z_safe no numpy step may overflow: numpy raises if one does
    rng = random.Random("z-safe")
    for _ in range(300):
        a, b = (rng.choice((-1.0, 1.0)) * rng.uniform(0.0, 62.9) for _ in range(2))
        c = rng.choice((rng.uniform(1e-3, 62.9), 10.0 ** rng.uniform(-6.0, 0.0),
                        -rng.uniform(0.0, 62.9), 1e-12 - rng.randrange(63)))
        head = _first_ratios(a, b, c)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            try:
                _direct_series(a, b, c, head[4], head)
            except ConvergenceError:
                pass
    # z Q = 5.5e4 keeps the first chunk in range, but the terms still grow
    # past it: past z_safe the overflow raises a package error, and no warning
    with pytest.raises(ConvergenceError, match="overflowed"):
        _direct_series(62.0, 62.0, 0.07, 0.999, _first_ratios(62.0, 62.0, 0.07))


# --------------------------------------------------------------------------
# the tabled kernels against frozen copies of the untabled loops

def _untabled_series(a, b, c, z, max_terms=400_000):
    """The Maclaurin series kernel before it read its first chunk's ratio
    factors from the coefficient table."""
    total, comp, abs_total, term, k = 1.0, 0.0, 1.0, 1.0, 0
    min_k = max(64, int(max(abs(a), abs(b), abs(c))) + 2)
    chunk = 64
    while k < max_terms:
        m = min(chunk, max_terms - k)
        ks = np.arange(k, k + m, dtype=np.float64)
        ratios = (a + ks) * (b + ks) / ((c + ks) * (1.0 + ks)) * z
        terms = term * ratios.cumprod()
        abs_terms = np.abs(terms)
        y = float(terms.sum()) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += float(abs_terms.sum())
        term = float(terms[-1])
        k += m
        bound = 1e-15 * abs(total)
        if m >= 3 and k >= min_k and (abs_terms[-3:] <= bound).all():
            q = max(abs(float(ratios[-1])), z)
            if q < 1.0:
                tail = abs(term) * q / (1.0 - q)
                if tail <= bound:
                    return total, 4e-16 * abs_total + tail + 1e-15 * abs(total), k + 1
        chunk = min(2 * chunk, 8192)
    raise AssertionError("reference series did not converge")


def _untabled_zero_balanced(a, b, u, h, pref):
    """The zero-balanced loop before it read its step factors and h_n from
    the coefficient table; also returns the number of terms."""
    lnu = math.log(u)
    g, total, abs_total, quiet = 1.0, 0.0, 0.0, 0
    for n in range(1000):
        t = g * (h - lnu)
        total += t
        abs_total += abs(t)
        g *= (a + n) * (b + n) / ((n + 1.0) * (n + 1.0)) * u
        h += 2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n)
        if abs(t) <= 1e-15 * abs(total):
            quiet += 1
            if quiet >= 3 and 2.0 * abs(t) * u / (1.0 - u) <= 1e-15 * abs(total):
                break
        else:
            quiet = 0
    value = pref * total
    return (value, abs(pref) * (4e-16 * abs_total) + 3e-15 * abs(value)), n + 1


def _seeded_triples(seed, n=12):
    rng = random.Random(seed)
    out = [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0), rng.uniform(0.1, 6.0))
           for _ in range(n)]
    return out + [(-2.5, 0.7, 1.3), (30.0, 25.0, 0.5), (45.0, 40.0, 48.3)]


def test_tabled_series_is_bit_identical_to_untabled():
    terms = []
    for a, b, c in _seeded_triples(7):
        key = _Triple(a, b, c)
        for z in (0.05, 0.4, 0.74):
            got = _direct_series(a, b, c, z, key.series_head)
            assert got == _untabled_series(a, b, c, z), (a, b, c, z)
            terms.append(got[2])
        d = c - a - b
        _, _, h1, h2 = key.connection
        for u in (1e-4, 0.01, 0.24):
            for args, head in (((a, b, 1.0 - d), h1), ((c - a, c - b, 1.0 + d), h2)):
                got = _direct_series(*args, u, head)
                assert got == _untabled_series(*args, u), (args, u)
    assert max(terms) > 128  # chunks beyond the tabled first one


def _summing_series(a, b, c, z, q0, max_terms=400_000):
    """The Maclaurin series kernel before its exact exit for chunks that
    round to 1, its single reduce for chunks of one sign and its series
    head: every chunk in one loop, with the first chunk's ratios q0."""
    if z == 0.0:
        return 1.0, 0.0, 1
    total, comp, abs_total, term, k = 1.0, 0.0, 1.0, 1.0, 0
    min_k = max(64, int(max(abs(a), abs(b), abs(c))) + 2)
    chunk = 64
    while k < max_terms:
        m = min(chunk, max_terms - k)
        if k == 0:
            ratios = q0 * z
        else:
            ks = np.arange(k, k + m, dtype=np.float64)
            ratios = (a + ks) * (b + ks) / ((c + ks) * (1.0 + ks)) * z
        terms = np.multiply.accumulate(ratios)
        if term != 1.0:
            terms *= term
        abs_terms = np.abs(terms)
        y = float(np.add.reduce(terms)) - comp
        t = total + y
        comp = (t - total) - y
        total = t
        abs_total += float(np.add.reduce(abs_terms))
        term = float(terms[-1])
        k += m
        bound = 1e-15 * abs(total)
        if m >= 3 and k >= min_k:
            t1, t2, t3 = abs_terms[-3:].tolist()
            if t1 <= bound and t2 <= bound and t3 <= bound:
                q = max(abs(float(ratios[-1])), z)
                if q < 1.0:
                    tail = abs(term) * q / (1.0 - q)
                    if tail <= bound:
                        return total, 4e-16 * abs_total + tail + 1e-15 * abs(total), k + 1
        chunk = min(2 * chunk, 8192)
    raise AssertionError("reference series did not converge")


def _exit_edges(a, b, c):
    """z at 2^-j/Q for j = 53..56, and one ulp either side: the exit's bound
    2^-56/Q, and the z where 1 + sum could first round away from 1."""
    q = max(abs(a), 1.0) * max(abs(b) / abs(c), 1.0)
    return [f(2.0 ** -j / q, x) for j in (53, 54, 55, 56)
            for f, x in ((math.nextafter, 0.0), (lambda z, _: z, None), (math.nextafter, 1.0))]


def _series_cases(seed):
    """(a, b, c, z) covering both shortcuts of _direct_series and
    the paths around them."""
    rng = random.Random(seed)
    triples = [(rng.uniform(-1.0, 0.0), rng.uniform(0.05, 4.0), rng.uniform(0.1, 6.0))
               for _ in range(6)]  # a in (-1, 0): a first chunk of one sign
    triples += [(rng.uniform(-3.0, -1.0), rng.uniform(0.05, 4.0), rng.uniform(0.1, 2.0))
                for _ in range(4)]  # a in (-3, -1): a first chunk of mixed signs
    triples += [(rng.uniform(0.05, 4.0), rng.uniform(0.05, 4.0), rng.uniform(0.1, 6.0))
                for _ in range(6)]
    for top in (61.0, 61.9, 62.0, 62.5, 63.0, 63.5):  # min_k is 64 below 63
        triples += [(top, 0.7, 1.3), (0.4, top, 2.0), (0.5, 0.6, top)]
    for a, b, c in [(0.3, 0.4, 2.5), (2.0, 2.0, 5.05), (0.2, 0.1, 3.7),
                    (1.2, 0.9, 0.5), (3.0, 3.0, 4.95), (2.0, 1.7, 1.1)]:
        d = c - a - b  # d > 1 gives 1-d < 0, d < -1 gives 1+d < 0
        triples += [(a, b, 1.0 - d), (c - a, c - b, 1.0 + d)]
    # both a and b negative: the first chunk's ratios change sign twice
    triples += [(-2.5, -0.5, 0.7), (-1.3, -4.6, 2.2)]
    triples += [(80.0, 0.5, 1.5), (0.3, 70.5, 71.0)]  # min_k > 64
    cases = []
    for a, b, c in triples:
        zs = [rng.uniform(0.0, 0.99) for _ in range(2)] + [0.99, 1e-3, 1e-12, 1e-17, 1e-30]
        for z in zs + _exit_edges(a, b, c):
            cases.append((a, b, c, z))
    # many chunks at z >= 0.9, up to more than 8192 terms
    cases += [(0.5, 0.5, 1.0, 0.9), (0.5, 0.5, 1.0, 0.995),
              (1.5, 2.5, 3.5, 0.999), (-0.5, 1.5, 0.25, 0.97)]
    return cases


def test_series_shortcuts_are_bit_identical_to_summing():
    exits = same_sign = mixed = long_head = many_chunks = 0
    for a, b, c, z in _series_cases(13):
        head = _first_ratios(a, b, c)
        got = _direct_series(a, b, c, z, head)
        assert got == _summing_series(a, b, c, z, head[0]), (a, b, c, z)
        exits += got == (1.0, 4e-16 + 1e-15, 65)
        same_sign += min(a, b, c) > 0.0 and got[2] > 65
        mixed += bool((head[0] < 0.0).any() and (head[0] > 0.0).any())
        long_head += head[1] > 64
        many_chunks += z >= 0.9 and got[2] > 64 + 128 + 256
    assert exits > 50 and same_sign > 50 and mixed > 20 and long_head > 20 and many_chunks > 20


def test_series_that_rounds_to_one_sums_nothing(monkeypatch):
    class NoMultiply:
        def accumulate(self, *args, **kwargs):
            raise AssertionError("the chunk was summed")

    a, b, c = 0.5, 0.5, 1.0
    head = _first_ratios(a, b, c)
    z = 2.0 ** -60
    want = _summing_series(a, b, c, z, head[0])
    monkeypatch.setattr(np, "multiply", NoMultiply())
    assert _direct_series(a, b, c, z, head) == want == (1.0, 4e-16 + 1e-15, 65)


def test_tabled_zero_balanced_is_bit_identical_to_untabled():
    terms = []
    triples = [(a, b) for a, b, _ in _seeded_triples(11)[:12]] + [(-0.4, 1.9), (40.3, 44.7)]
    for a, b in triples:
        key = _Triple(a, b, a + b)
        h, pref, _, _ = key.zero_balanced
        for u in (1e-4, 0.01, 0.24, 0.24):  # the last call reads every step from the table
            want, n = _untabled_zero_balanced(a, b, u, h, pref)
            assert _zero_balanced(key, u) == want, (a, b, u)
            terms.append(n)
    assert max(terms) > 64  # steps beyond the table


# One cold triple of each kind that fills its table on first use, and the
# points each is evaluated at: u = 0.1 fills more zero-balanced steps than
# u = 1e-3 and 1e-6, which then read slots that any thread may have filled.
_THREADED = [((0.3, 0.7, 1.0), (0.9, 0.999, 0.999999, 0.5)),  # zero-balanced
             ((1.2, 0.9, 0.5), (0.9, 0.999, 0.3)),  # connection
             ((0.5, 0.25, 2.75), (0.95, 0.99999)),  # integer-d
             ((0.5, 0.5, 1.0 + 1e-9), (0.2, 0.6, 0.74)),  # near-balanced; series below 0.75
             ((-1.5, 0.7, 1.3), (0.5, 0.9))]  # series


def _fresh_params():
    """A new EllipticParams and ModulusParams of each triple of _THREADED that
    admits one, its half_beta not yet read."""
    out = []
    for abc, _ in _THREADED:
        for cls in (EllipticParams, ModulusParams):
            try:
                out.append(cls(*abc))
            except ParameterError:
                pass
    return out


def _threaded_pass(barrier=None, params=None):
    """The half_beta of each of `params` (by default this caller's own fresh
    ones), then every (triple, z) of _THREADED through the uncached engine,
    and B(a,b)/2 of each triple with a, b > 0, on triples shared by every
    caller."""
    params = _fresh_params() if params is None else params
    keys = [_Triple(*abc) for abc, _ in _THREADED]
    if barrier is not None:
        barrier.wait()
    out = [p.half_beta for p in params]
    for key, (_, zs) in zip(keys, _THREADED):
        for z in zs:
            out.append(_eval_pair.__wrapped__(key, z, 1.0 - z))
        if min(key.abc) > 0.0:
            out.append(key.half_beta)
    return out


def test_cold_tables_filled_by_racing_threads_give_single_threaded_results():
    import gc
    import sys
    import threading

    from genellip import hypergeom

    def cold():
        _eval_pair.cache_clear()
        gc.collect()
        assert not any(abc in hypergeom._LIVE for abc, _ in _THREADED)

    cold()
    want = _threaded_pass()
    assert [type(p) for p in _fresh_params()] == [EllipticParams, ModulusParams, ModulusParams]
    n = 8
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads inside the first reads
    try:
        for _ in range(10):
            cold()
            barrier = threading.Barrier(n)
            got = [None] * n
            params = _fresh_params()  # shared, so their first reads race too

            def work(i, barrier=barrier, got=got, params=params):
                got[i] = _threaded_pass(barrier, params)
            threads = [threading.Thread(target=work, args=(i,), daemon=True) for i in range(n)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
            assert got == [want] * n
            assert all("half_beta" in vars(p) for p in params)
    finally:
        sys.setswitchinterval(interval)


def test_every_parameter_type_reads_the_one_lock_free_half_beta():
    assert HypParams.half_beta is EllipticParams.half_beta is ModulusParams.half_beta


def test_equal_triples_are_one_object_until_the_cache_clears():
    import gc

    from genellip import hypergeom
    key = _Triple(0.3, 0.7, 1.0)
    assert _Triple(0.3, 0.7, 1.0) is key and _Triple(0.3, 0.7, 1.1) is not key
    assert key.abc == (0.3, 0.7, 1.0) and key.route == "zero_balanced"
    _eval_pair(key, 0.9, 0.1)
    key_id = id(key)
    del key
    # the cache entry keeps the triple, so a new call finds it and hits
    before = _eval_pair.cache_info()
    assert id(_Triple(0.3, 0.7, 1.0)) == key_id
    _eval_pair(_Triple(0.3, 0.7, 1.0), 0.9, 0.1)
    assert _eval_pair.cache_info().hits == before.hits + 1
    _eval_pair.cache_clear()
    gc.collect()
    assert not hypergeom._LIVE


# --------------------------------------------------------------------------
# the route attribute against a frozen copy of the dispatch it replaced

def _frozen_dispatch(key, z, zc):
    """_eval_pair as it chose its kernel from (a, b, c) at every call, before
    the choice became the triple's route; it calls today's kernels."""
    a, b, c = key.abc
    if z == 0.0:
        return EvalResult(1.0, 0.0, Method.SERIES)
    if a == c or b == c:
        expo = b if a == c else a
        value = zc ** (-expo)
        return EvalResult(value, abs(value) * (abs(expo * math.log(zc)) + 1.0) * 2e-16,
                          Method.CLOSED_FORM)
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        value, err, _ = _direct_series(a, b, c, z, key.series_head)
        return EvalResult(value, err, Method.SERIES)
    if z < 0.75:
        value, err, _ = _direct_series(a, b, c, z, key.series_head)
        return EvalResult(value, err, Method.SERIES)
    d = c - a - b
    m = round(d)
    if abs(d) <= 1e-12:
        value, err = _zero_balanced(key, zc)
        err += abs(d) * (abs(math.log(zc)) + 5.0) * abs(value)
        return EvalResult(value, err, Method.TRANSFORM_NEAR_ONE)
    if m == 0 and abs(d) < 1e-6:
        value, err = _near_zero_balanced(key, zc)
        return EvalResult(value, err, Method.TRANSFORM_NEAR_ONE)
    if m != 0 and abs(d - m) <= 1e-8:
        value, err = _integer_d(key, zc)
        err += abs(d - m) * (abs(math.log(zc)) + 5.0) * abs(value)
        return EvalResult(value, err, Method.TRANSFORM_NEAR_ONE)
    value, err = _connection(key, zc)
    return EvalResult(value, err, Method.TRANSFORM_NEAR_ONE)


def _straddle(a, b, d, inside):
    """Triples (a, b, c) with c within three ulps of a+b+d, whose c-a-b
    falls on both sides of the boundary that `inside` tests."""
    cs = [a + b + d]
    for _ in range(3):
        cs = [math.nextafter(cs[0], -math.inf)] + cs + [math.nextafter(cs[-1], math.inf)]
    assert {inside(c - a - b) for c in cs} == {True, False}, (a, b, d)
    return [(a, b, c) for c in cs]


def _route_triples():
    out = []
    for sign in (-1.0, 1.0):
        out += _straddle(0.5, 0.25, sign * 1e-12, lambda d: abs(d) <= 1e-12)
        out += _straddle(0.5, 0.25, sign * 1e-6, lambda d: abs(d) < 1e-6)
        for m in (-2, -1, 1, 2):
            a, b = (1.5, 1.25) if m < 0 else (0.5, 0.25)
            out += _straddle(a, b, m + sign * 1e-8, lambda d, m=m: abs(d - m) <= 1e-8)
    return out + [(0.7, 0.3, 0.7), (0.3, 0.7, 0.7),  # a = c, b = c
                  (-2.0, 0.5, 1.5), (0.5, -1.0, 0.7), (-3.0, 0.25, 0.25),  # a or b in -N
                  (0.3, 0.5, 1.3), (1.2, 0.9, 1.5)]  # the connection route


def _outcome(f, key, z, zc):
    try:
        r = f(key, z, zc)
    except Exception as exc:  # both sides must fail alike
        return type(exc), str(exc)
    return r.value, r.abs_err_est, r.method


def test_route_dispatch_is_bit_identical_to_the_frozen_dispatch():
    zs = [0.0, 0.3, math.nextafter(0.75, 0.0), 0.75, math.nextafter(0.75, 1.0), 0.9]
    zcs = [math.nextafter(1e-4, 0.0), 1e-4, math.nextafter(1e-4, 1.0), 1e-7, 1e-12]
    pairs = [(z, 1.0 - z) for z in zs] + [(1.0 - zc, zc) for zc in zcs]
    routes = set()
    for abc in _route_triples():
        key = _Triple(*abc)
        assert key.d == abc[2] - abc[0] - abc[1]
        routes.add(key.route)
        for z, zc in pairs:
            want = _outcome(_frozen_dispatch, key, z, zc)
            assert _outcome(_eval_pair.__wrapped__, key, z, zc) == want, (abc, z, zc)
    assert routes == {"closed", "series", "zero_balanced", "near_balanced", "integer_d", "connection"}


def test_overflow_near_one_is_a_saturation_error():
    # the closed form (1-z)^-50 and the integer-d finite part u^-39 exceed
    # the float range, as the connection formula's u^d does
    z = 0.9999999999999999
    for p in (HypParams(1.0, 50.0, 1.0), HypParams(39.5, 39.5, 40.0)):
        with pytest.raises(SaturationError) as err:
            hyp2f1(p, z)
        assert err.value.endpoint == math.inf


def test_closed_form_bound_stays_finite_below_the_top_of_the_float_range():
    # (1-z)^-50 = 5.56e307 fits, but |F| (50 |log(1-z)| + 1) did not, and the
    # bound came out inf before its factor 2e-16 was applied
    r = hyp2f1(HypParams(10.0, 50.0, 10.0), 0.9999993)
    want = (1.0 - 0.9999993) ** -50.0
    assert r.value == want
    assert r.abs_err_est == pytest.approx(want * 2e-16 * (50.0 * -math.log(1.0 - 0.9999993) + 1.0))
