"""Generalized modulus, its inverse, and the modular function.

Frozen values and their oracles (tests/oracles.py):
  mu(0.5,1; r=0.5)          = 2.009459377005285172842269   (AGM loop)
  phi_2(0.5,1; r=0.5)       = 0.9428090415820633658677925  (bisection on the
                               AGM mu; agrees with the classical Landen form
                               2 sqrt(r)/(1+r) to 25 digits)
  solve mu(s)=3 mu(0.6) at (a,c)=(0.25,1):
                              s = 0.005052235666512477599151527
                               (bisection on the series mu)
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from genellip import (
    DegreeK,
    EllipticParams,
    Modulus,
    ModulusParams,
    beta,
    modulus_params_ac,
    mu,
    mu_deriv,
    mu_deriv_closed,
    mu_inv,
    mu_m,
    mu_inv_m,
    p_logit,
    phi_deriv,
    phi_deriv_closed,
    phi_k,
    phi_k_m,
    phi_logodds,
    q_modulus,
)
from genellip.errors import DomainError, ParameterError, SaturationError
from genellip.hypergeom import _eval_pair, _Triple
from genellip.modulus import _modulus_from_t

P_CLASSICAL = modulus_params_ac(0.5, 1.0)


def half_beta(p):
    return 0.5 * beta(p.a, p.b).value


# --------------------------------------------------------------------------
# mu

def test_mu_symmetry_point():
    for (a, c) in ((0.5, 1.0), (0.3, 0.8), (0.7, 0.9)):
        p = modulus_params_ac(a, c)
        assert mu(p, math.sqrt(0.5)).value == pytest.approx(
            half_beta(p), rel=1e-12)


def test_mu_classical_frozen():
    r = mu(P_CLASSICAL, 0.5)
    assert r.value == pytest.approx(2.009459377005285172842269, rel=1e-13)
    assert abs(r.value - 2.009459377005285172842269) <= \
        10.0 * r.abs_err_est + 1e-13


def test_mu_complement_product():
    p = modulus_params_ac(0.3, 0.8)
    r = 0.3
    rc = math.sqrt(1.0 - r * r)
    prod = mu(p, r).value * mu(p, rc).value
    assert prod == pytest.approx(half_beta(p) ** 2, rel=1e-12)


def test_mu_params_general():
    ModulusParams(0.3, 0.4, 0.6)          # a+b >= c is enough
    with pytest.raises(ParameterError):
        ModulusParams(0.2, 0.3, 0.6)      # a+b < c


# --------------------------------------------------------------------------
# mu_inv

def test_mu_inv_symmetry_point():
    p = modulus_params_ac(0.3, 0.8)
    assert mu_inv(p, half_beta(p)) == pytest.approx(math.sqrt(0.5),
                                                    rel=1e-12)


def test_mu_inv_classical_pi_over_2():
    assert mu_inv(P_CLASSICAL, math.pi / 2.0) == pytest.approx(
        math.sqrt(0.5), rel=1e-12)


@pytest.mark.parametrize("r", [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9])
def test_mu_round_trip(r):
    p = modulus_params_ac(0.4, 0.9)
    assert mu_inv(p, mu(p, r).value) == pytest.approx(r, abs=1e-10)


def test_mu_inv_m_pair():
    p = modulus_params_ac(0.5, 1.0)
    m = mu_inv_m(p, 40.0)  # deep in the small-r tail
    assert isinstance(m, Modulus)
    assert mu_m(p, m).value == pytest.approx(40.0, rel=1e-11)
    assert 0.0 < m.r < 1e-5


# --------------------------------------------------------------------------
# phi_k

def test_phi_identity_degree():
    p = modulus_params_ac(0.3, 0.8)
    for r in (0.1, 0.5, 0.9):
        assert phi_k(p, 1.0, r) == pytest.approx(r, rel=1e-12)
    # past [1e-3, 1e3] the degree saturates phi_K to the endpoint it tends to
    for K, endpoint in ((1e3 * 1.01, 1.0), (1e-3 / 1.01, 0.0)):
        with pytest.raises(SaturationError) as exc:
            phi_k_m(p, K, Modulus.from_r(0.5))
        assert exc.value.endpoint == endpoint


@pytest.mark.parametrize("K", [2.0, 0.5])
@pytest.mark.parametrize("abc, r, endpoint", [
    ((49.0, 50.0, 50.0), 0.9999995, 1.0),  # mu underflows to 0
    ((30.0, 30.0, 10.0), 0.9999999, 1.0),  # F(r^2) overflows, so mu -> 0
    ((30.0, 30.0, 10.0), 1e-10, 0.0),  # F(r'^2) overflows, so mu -> inf
])
def test_phi_saturates_where_mu_does_to_its_own_end(abc, r, endpoint, K):
    # phi_K tends to 1 as r -> 1 and to 0 as r -> 0, whatever the degree
    with pytest.raises(SaturationError) as exc:
        phi_k(ModulusParams(*abc), K, r)
    assert exc.value.endpoint == endpoint


# On (30, 30, 10), mu ~ C r'^40 underflows by r = 0.999999 and F(r^2) ~ u^-50
# overflows by r = 0.9999999.  Those are the ends of mu and of F, not of mu' or
# phi_K' (phi_K' tends to K^(-1/(a+b-c)) = 0.98623 as r -> 1), so neither
# derivative names one: each raises a DomainError without an endpoint.
_PAST_THE_RANGE = ModulusParams(30.0, 30.0, 10.0)


def test_derivatives_keep_their_values_short_of_the_float_range():
    assert phi_deriv(_PAST_THE_RANGE, 2.0, 0.999995).value == 0.986233169704612
    assert mu_deriv(_PAST_THE_RANGE, 0.999995).value == -9.99109872187782e-269


@pytest.mark.parametrize("call, p, r", [
    (lambda p, r: phi_deriv(p, 2.0, r), _PAST_THE_RANGE, 0.999999),  # mu(r) underflows
    (lambda p, r: phi_deriv(p, 2.0, r), _PAST_THE_RANGE, 0.9999999),  # F(r^2) overflows
    (mu_deriv, _PAST_THE_RANGE, 0.9999999),
    # the closed forms, on a triple with a+b+1 = 2c
    (lambda p, r: phi_deriv_closed(p, 2.0, r), ModulusParams(49.5, 49.5, 50.0), 0.9999999),
    (mu_deriv_closed, ModulusParams(49.5, 49.5, 50.0), 0.9999999),
], ids=["phi_deriv-mu-underflows", "phi_deriv-F-overflows", "mu_deriv-F-overflows",
        "phi_deriv_closed-F-overflows", "mu_deriv_closed-F-overflows"])
def test_a_derivative_names_no_end_of_mu_or_f(call, p, r):
    with pytest.raises(DomainError) as exc:
        call(p, r)
    assert not isinstance(exc.value, SaturationError)


def test_mu_names_its_own_end_where_f_overflows():
    with pytest.raises(SaturationError) as exc:
        mu(_PAST_THE_RANGE, 0.9999999)
    assert exc.value.endpoint == 0.0  # mu -> 0 as r -> 1, while F(r^2) -> inf


def test_phi_inverse_pair():
    # scalar round trip where s stays well away from 1...
    p = modulus_params_ac(0.4, 0.9)
    for K in (1.5, 2.0):
        for r in (0.2, 0.6):
            s = phi_k(p, K, r)
            back = phi_k(p, 1.0 / K, s)
            assert back == pytest.approx(r, abs=1e-9)
    # ...and through the pair interface where s' drops below float
    # resolution of 1-s (K=5 from r=0.95 already needs it)
    for K in (5.0, 10.0):
        for r in (0.2, 0.95):
            s = phi_k_m(p, DegreeK(K), Modulus.from_r(r))
            back = phi_k_m(p, DegreeK(1.0 / K), s)
            assert back.r == pytest.approx(r, abs=1e-10)


def test_phi_classical_frozen():
    got = phi_k(P_CLASSICAL, 2.0, 0.5)
    assert got == pytest.approx(0.9428090415820633658677925, rel=1e-11)
    # the classical degree-2 Landen form, as an anchor for the oracle
    assert got == pytest.approx(2.0 * math.sqrt(0.5) / 1.5, rel=1e-11)


def test_phi_functional_equation():
    # composed through the pair API: mu of a bare float s cannot see s'
    # once it falls under the spacing of doubles near 1 (K=10 already
    # pushes s' to 5e-7 from r=0.37)
    p = modulus_params_ac(0.3, 0.8)
    m = Modulus.from_r(0.37)
    for K in (1.25, 2.0, 10.0):
        s = phi_k_m(p, DegreeK(K), m)
        assert mu_m(p, s).value == pytest.approx(
            mu_m(p, m).value / K, rel=1e-10)


def test_phi_monotone_in_r():
    p = modulus_params_ac(0.5, 1.0)
    vals = [phi_k(p, 2.0, r) for r in (0.1, 0.3, 0.5, 0.7, 0.9)]
    assert all(x < y for x, y in zip(vals, vals[1:]))


# --------------------------------------------------------------------------
# the modular equation mu(s) = p mu(r) of degree p, solved as s = phi_{1/p}(r)

def test_solve_degree_one():
    p = modulus_params_ac(0.3, 0.8)
    assert phi_k(p, 1.0, 0.44) == pytest.approx(0.44, rel=1e-12)


def test_solve_inverse_degrees():
    p = modulus_params_ac(0.4, 0.9)
    s = phi_k(p, 1.0 / 2.0, 0.7)
    assert phi_k(p, 1.0 / 0.5, s) == pytest.approx(0.7, abs=1e-10)


def test_solve_degree_three_frozen():
    p = modulus_params_ac(0.25, 1.0)
    s = phi_k(p, 1.0 / 3.0, 0.6)
    assert s == pytest.approx(0.005052235666512477599151527, rel=1e-9)


# --------------------------------------------------------------------------
# derivatives

def test_mu_deriv_classical_recipe():
    # -B^3 M / (4 r r'^2 K(r)^2) with M = 1/pi at the symmetry point
    from genellip import EllipticParams, ell_k
    r = math.sqrt(0.5)
    B = beta(0.5, 0.5).value
    K = ell_k(EllipticParams(0.5, 0.5, 1.0), Modulus.from_r(r)).value
    want = -B ** 3 * (1.0 / math.pi) / (4.0 * r * 0.5 * K * K)
    assert mu_deriv(P_CLASSICAL, r).value == pytest.approx(want, rel=1e-11)


def test_mu_deriv_negative():
    for (a, c) in ((0.5, 1.0), (0.3, 0.6)):
        p = modulus_params_ac(a, c)
        for r in (0.05, 0.5, 0.95):
            assert mu_deriv(p, r).value < 0.0


def test_mu_deriv_matches_central_difference():
    p = ModulusParams(0.3, 0.4, 0.6)
    r, h = 0.45, 1e-5
    num = (mu(p, r + h).value - mu(p, r - h).value) / (2.0 * h)
    assert mu_deriv(p, r).value == pytest.approx(num, rel=1e-7)


def test_phi_deriv_identity_degree():
    p = modulus_params_ac(0.3, 0.8)
    assert phi_deriv(p, 1.0, 0.5).value == pytest.approx(1.0, rel=1e-10)


def test_phi_deriv_matches_central_difference():
    p = P_CLASSICAL
    r, h = 0.5, 1e-6
    num = (phi_k(p, 2.0, r + h) - phi_k(p, 2.0, r - h)) / (2.0 * h)
    assert phi_deriv(p, 2.0, r).value == pytest.approx(num, rel=1e-7)


def test_closed_derivative_forms_power_case():
    # a+b+1 = 2c holds for the classical (0.5, 0.5, 1)
    p = P_CLASSICAL
    r = 0.37
    assert mu_deriv_closed(p, r).value == pytest.approx(
        mu_deriv(p, r).value, rel=1e-9)
    assert phi_deriv_closed(p, 2.0, r).value == pytest.approx(
        phi_deriv(p, 2.0, r).value, rel=1e-9)
    with pytest.raises(ParameterError):
        mu_deriv_closed(ModulusParams(0.3, 0.4, 0.6), r)
    # K = 100 puts s = phi_K(0.5) at s'^2 ~ 4e-106, so s^2 rounds to 1
    for deriv in (phi_deriv, phi_deriv_closed):
        with pytest.raises(DomainError, match="saturated"):
            deriv(p, 100.0, 0.5)


# (mu_deriv_near_one_points, mu_deriv_general): 20 seeded points with r = 1 - 10^U,
# U in (-12, -2), and a+b > c, where M and F blow up; then two points at the top of
# the parameter range where F(r^2) ~ 1.8e279 and F(r^2)^2 overflows
MU_DERIV_NEAR_ONE = [
    (0.9720623728455826, 1.1385017849650212, 1.698787681448006, 0.9973423190846624, -4.811529998311021162459332),
    (1.135858004635903, 1.3912549953315838, 0.17039896663418597, 0.9999999546866111, -5.112915141247166981798691e-11),
    (1.4206994037976393, 1.0085643743916939, 2.1984348831876837, 0.9999999999864463, -4416046.266312993993546152),
    (0.7566966668950291, 0.4452019656677624, 0.6991693472332402, 0.9999994512028096, -1287.913409719892715349221),
    (0.11835986542446308, 0.4034217206493874, 0.21788051561583854, 0.998543019571101, -225.1516530209892373194866),
    (1.1720156322807984, 0.3234458973012535, 1.2123879599643195, 0.999999999975584, -17771690.32541100085933652),
    (0.9644335286525633, 0.2773789255703776, 0.10202655976738362, 0.9994823366157337, -0.6103918775993309766830556),
    (0.393238935493165, 0.4016736369146251, 0.7826967799219372, 0.9994702418407502, -149.4645888370460486625848),
    (0.5050272348456971, 1.446069184530117, 1.0981546324701634, 0.9999939978786385, -10.53012321511958027173552),
    (0.3866913203473099, 1.4173664015231986, 1.276893732790864, 0.9953693375636491, -13.18268989119461927213943),
    (1.3512383486070698, 0.5183044569954148, 0.7391410504440259, 0.9999999999543374, -0.1162774327437499573847537),
    (0.3039826733569555, 0.19119559872594677, 0.21909056871853338, 0.9999989257633282, -28929.48491223236607324313),
    (0.10473636712409946, 1.0491079493667677, 0.4560906871866266, 0.9999999987422935, -9176.109269726066134051875),
    (1.2459253045058991, 0.7730432612820545, 0.7059970434118741, 0.9999999351090904, -0.009289130435644951545384981),
    (1.086536787797273, 0.1798013013501059, 1.2372957612060913, 0.999999999998307, -9405505383.554602082790007),
    (1.1497130312077826, 1.2828332451433815, 0.14214336237003336, 0.9999245979697312, -0.0000019576163341124436649279),
    (0.6126582661786047, 0.9099263606796243, 0.11291477352613354, 0.9999999999970672, -0.00001285833397307040790890486),
    (0.35328728313146696, 1.437251859427633, 0.43222757636334275, 0.9999639118911093, -0.1311794576644449496678201),
    (1.4015174474365295, 1.418861361198779, 1.0368489863088204, 0.9999999964687208, -0.000000292233722222503626947476),
    (0.8345825489703679, 1.1858442205785935, 0.307507622278674, 0.9999695224140396, -0.0006834044516358311132224723),
    (49.5, 49.5, 50.0, 0.999999, -1.093659551748193541775503e-302),
    (49.0, 50.0, 50.0, 0.999999, -1.104876256318474046465764e-302),
]


@pytest.mark.parametrize("a, b, c, r, want", MU_DERIV_NEAR_ONE)
def test_mu_deriv_near_one_is_within_its_estimate(a, b, c, r, want):
    # M is read at the pair (r^2, r'^2) that mu' holds, not at r^2 and 1 - r^2
    res = mu_deriv(ModulusParams(a, b, c), r)
    assert abs(res.value - want) <= res.abs_err_est


def test_mu_deriv_where_f_squared_overflows_agrees_with_the_closed_form():
    # a+b+1 = 2c; the quotient -B M/(r r'^2 F^2) is taken in logs
    p = ModulusParams(49.5, 49.5, 50.0)
    res, closed = mu_deriv(p, 0.999999), mu_deriv_closed(p, 0.999999)
    assert abs(res.value - closed.value) <= res.abs_err_est + closed.abs_err_est
    assert 0.0 < phi_deriv(ModulusParams(49.0, 50.0, 50.0), 2.0, 0.999999).value < math.inf


def test_phi_deriv_where_mu_prime_underflows_is_a_domain_error():
    # mu' is about -4.1e-310 at r = 0.9999993 on both triples, below the normal
    # floats, where abs(value) * rel no longer bounds its error; each form of mu'
    # raises, so phi_K' does too (mu_deriv_closed returned -8.65e-322 +- 0.0
    # at r = 0.9999996)
    for abc, mu_prime, phi_prime in (((49.0, 50.0, 50.0), mu_deriv, phi_deriv),
                                     ((49.5, 49.5, 50.0), mu_deriv_closed, phi_deriv_closed)):
        p = ModulusParams(*abc)
        with pytest.raises(DomainError, match="mu' underflows"):
            mu_prime(p, 0.9999993)
        with pytest.raises(DomainError, match="mu' underflows"):
            phi_prime(p, 2.0, 0.9999993)


# --------------------------------------------------------------------------
# log-odds coordinates

def test_logit_round_trip():
    for x in (-30.0, -2.0, 0.0, 1.7, 40.0):
        assert p_logit(q_modulus(x)) == pytest.approx(x, abs=1e-12)


def test_q_modulus_symmetry():
    m = q_modulus(0.0)
    assert m.r == pytest.approx(math.sqrt(0.5), rel=1e-15)


def test_phi_logodds_identity_degree():
    p = modulus_params_ac(0.3, 0.8)
    for x in (-5.0, 0.0, 7.0):
        assert phi_logodds(p, DegreeK(1.0), x) == pytest.approx(x, abs=1e-9)


def test_degree_validation():
    with pytest.raises(ParameterError):
        DegreeK(0.0)
    with pytest.raises(ParameterError):
        DegreeK(math.inf)


def test_mu_domain_errors():
    p = modulus_params_ac(0.5, 1.0)
    with pytest.raises(DomainError):
        mu(p, 0.0)
    with pytest.raises(DomainError):
        mu(p, 1.0)
    with pytest.raises(DomainError):
        mu_inv(p, -1.0)


@pytest.mark.parametrize("abc", [(0.5, 0.5, 1.0), (1.2, 0.9, 0.5)])
def test_mu_where_r_squared_underflows_is_a_domain_error(abc):
    # r = 1e-200 is a valid float, but r^2 rounds to 0; F at 1-z = 0 is
    # the log or power singularity of the zero-balanced or connection route
    with pytest.raises(DomainError, match="underflows"):
        mu(ModulusParams(*abc), 1e-200)
    with pytest.raises(DomainError, match="underflows"):
        mu_m(ModulusParams(*abc), Modulus(1.0, 1e-200))


def test_connection_overflow_is_a_saturation_error():
    # c-a-b = -1.6: F(1-u) ~ C2 u^-1.6 exceeds the float range at u ~ 1e-223,
    # which the bracket of this solve reaches at t = -512.  The solver takes
    # that overflow as mu = +inf, a valid bracket end, and finds the root
    # near t = -288 within its stopping rule.
    p, y = ModulusParams(1.2, 0.9, 0.5), 1e200
    m = mu_inv_m(p, y)
    assert math.log(m.z / m.z_comp) == pytest.approx(-288.0, abs=0.5)
    assert abs(math.log(mu_m(p, m).value) - math.log(y)) <= 1e-13 * (1.0 + math.log(y))
    # Past the largest mu computable (about 8e307 here) the bracket closes
    # on the overflow edge instead of a root; the mirror case closes on the
    # edge where F(r^2) overflows.
    with pytest.raises(SaturationError) as past_top:
        mu_inv_m(p, 1e308)
    assert past_top.value.endpoint == 0.0
    with pytest.raises(SaturationError) as past_bottom:
        mu_inv_m(p, 5e-324)
    assert past_bottom.value.endpoint == 1.0
    with pytest.raises(SaturationError):
        _eval_pair(_Triple(1.2, 0.9, 0.5), 1.0 - 1e-250, 1e-250)
    # u^d itself is finite here, but C2 u^d overflows; mu then saturates too
    with pytest.raises(SaturationError) as product:
        _eval_pair(_Triple(1.2, 0.9, 0.5), 1.0 - 2.956e-193, 2.956e-193)
    assert product.value.endpoint == math.inf
    with pytest.raises(SaturationError):
        mu_m(p, _modulus_from_t(-443.31496366617966))


# --------------------------------------------------------------------------
# properties

@given(st.floats(min_value=0.02, max_value=0.9))
@settings(max_examples=100, deadline=None)
def test_mu_strictly_decreasing(r):
    p = modulus_params_ac(0.3, 0.8)
    assert mu(p, r).value > mu(p, r + 0.02).value


@given(st.floats(min_value=0.05, max_value=0.95),
       st.floats(min_value=0.15, max_value=0.85))
@settings(max_examples=100, deadline=None)
def test_mu_product_identity(r, a):
    c = min(1.0, a + 0.4)
    if a >= c:
        return
    p = modulus_params_ac(a, c)
    rc = math.sqrt((1.0 - r) * (1.0 + r))
    lhs = mu(p, r).value * mu(p, rc).value
    assert lhs == pytest.approx(half_beta(p) ** 2, rel=1e-10)


@given(st.floats(min_value=0.1, max_value=0.9),
       st.floats(min_value=1.01, max_value=20.0))
@settings(max_examples=100, deadline=None)
def test_phi_round_trip_property(r, K):
    p = modulus_params_ac(0.5, 1.0)
    s = phi_k_m(p, DegreeK(K), Modulus.from_r(r))
    assert r ** (1.0 / K) < s.r <= 1.0  # lower bound of the sandwich
    assert phi_k_m(p, DegreeK(1.0 / K), s).r == pytest.approx(r, abs=1e-9)


# --------------------------------------------------------------------------
# per-triple constants of the 2F1 kernel

def _cold():
    from genellip import hypergeom, modulus
    hypergeom._eval_pair.cache_clear()
    modulus._solve_log_mu.cache_clear()


def _count_calls(monkeypatch, targets) -> dict:
    """Count the calls of each (module, name) in targets while the test runs."""
    calls = {}
    for mod, name in targets:
        f = getattr(mod, name)
        calls[name] = 0

        def wrapper(*args, _f=f, _name=name):
            calls[_name] += 1
            return _f(*args)
        monkeypatch.setattr(mod, name, wrapper)
    return calls


def test_cold_phi_k_computes_the_triple_constants_once_per_key(monkeypatch):
    # mu_m(r) and the solve share the coefficient table of the zero-balanced
    # triple: R(a,b) (two psi values), Gamma(a+b)/(Gamma(a)Gamma(b)) and
    # B(a,b)/2 are computed once per triple, not per key or per evaluation,
    # and the last two share ln Gamma at a, b and a+b (here a+b = c)
    from genellip import hypergeom, modulus, scalar_special
    calls = _count_calls(monkeypatch, (
        (hypergeom, "_gamma_ratio"), (hypergeom, "_digamma"),
        (modulus, "_eval_pair"), (modulus, "_kernel")))
    lngammas = {}

    def counted(x, _f=scalar_special._lngamma_raw):
        lngammas[x] = lngammas.get(x, 0) + 1
        return _f(x)
    monkeypatch.setattr(scalar_special, "_lngamma_raw", counted)
    _cold()
    phi_k(ModulusParams(0.3, 0.7, 1.0), 3.0, 0.6)
    assert calls["_eval_pair"] == 2  # mu_m(r); the solve reads the uncached kernel
    assert calls["_kernel"] >= 10  # five or more log-mu evaluations
    assert calls["_gamma_ratio"] == 1
    assert calls["_digamma"] == 2
    assert lngammas == {0.3: 1, 0.7: 1, 1.0: 1}


def test_equal_triples_share_one_table_until_the_caches_clear(monkeypatch):
    import gc

    from genellip import hypergeom
    calls = _count_calls(monkeypatch, ((hypergeom, "_first_ratios"), (hypergeom, "_digamma")))
    _cold()
    P = ModulusParams(0.3, 0.7, 1.0)
    mu(P, 0.95)  # r'^2 by the series, r^2 = 0.9025 by the zero-balanced route
    mu(P, 0.97)
    assert calls == {"_first_ratios": 1, "_digamma": 2}
    refs = list(hypergeom._LIVE.values())
    assert refs and all(ref() is not None for ref in refs)
    _cold()
    gc.collect()
    assert not hypergeom._LIVE
    assert all(ref() is None for ref in refs)


def test_triple_keys_hit_across_callers_and_die_with_the_cache():
    import gc

    from genellip import hypergeom
    from genellip.hypergeom import _Triple
    P = ModulusParams(0.3, 0.6, 0.7)
    m = Modulus.from_r(0.6)
    _cold()
    phi_k_m(P, 3.0, m)
    # a freshly built triple equals the one mu_m(r) cached its pair under
    before = hypergeom._eval_pair.cache_info()
    hypergeom._eval_pair(_Triple(P.a, P.b, P.c), m.z, m.z_comp)
    after = hypergeom._eval_pair.cache_info()
    assert (after.hits, after.misses) == (before.hits + 1, before.misses)
    phi_deriv(P, 3.0, 0.6)
    assert hypergeom._eval_pair.cache_info().hits > after.hits
    hypergeom._eval_pair.cache_clear()
    gc.collect()
    assert not [o for o in gc.get_objects() if isinstance(o, _Triple)]


def test_half_beta_is_computed_once_per_params(monkeypatch):
    # on these routes only B(a,b)/2 reads ln Gamma at a+b
    from genellip import scalar_special
    calls = []

    def counted(x, _f=scalar_special._lngamma_raw):
        calls.append(x)
        return _f(x)
    monkeypatch.setattr(scalar_special, "_lngamma_raw", counted)
    _cold()
    P = ModulusParams(0.3, 0.6, 0.7)
    for r in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9):
        mu_deriv(P, r)
    assert calls.count(P.a + P.b) == 1


def _draw_abc(rng):
    """A seeded (a, b, c): a and b log-uniform down to 1e-300 or uniform up
    to 49; c up to a+b, or, half the time, a <= min(b, 0.99) and c in
    (b, a+b], which is mostly the domain of EllipticParams."""
    def draw():
        if rng.random() < 0.5:
            return 10.0 ** rng.uniform(-300.0, math.log10(49.0))
        return rng.uniform(1e-3, 49.0)
    a, b = draw(), draw()
    if rng.random() < 0.5:
        return a, b, min((a + b) * rng.random(), 50.0)
    a = min(a, b, 0.99)
    return a, b, b + a * rng.random()


def _half_beta_readers(a, b, c):
    """Every way to read B(a,b)/2 that the domain of (a, b, c) admits; the
    last is the verify registry's _half_b."""
    readers = [lambda: ModulusParams(a, b, c).half_beta,
               lambda: _Triple(a, b, c).half_beta,
               lambda: 0.5 * beta(a, b).value]
    try:
        E = EllipticParams(a, b, c)
    except ParameterError:
        return readers
    return [lambda: E.half_beta, *readers]


def test_half_beta_is_one_value_wherever_it_is_read():
    import random
    rng = random.Random(16)
    both = 0
    for _ in range(3000):
        a, b, c = _draw_abc(rng)
        readers = _half_beta_readers(a, b, c)
        both += len(readers) == 4
        values = [read() for read in readers]
        assert values == [values[0]] * len(values), (a, b, c)
    assert both > 500


@pytest.mark.parametrize("a, b, c", [(1e-310, 1e-310, 1.5e-310),
                                     (1e-309, 3e-309, 3.5e-309),
                                     (5e-309, 49.0, 49.0)])
def test_half_beta_past_the_float_range_raises_one_error(a, b, c):
    errors = []
    for read in _half_beta_readers(a, b, c):
        with pytest.raises(SaturationError) as info:
            read()
        errors.append((str(info.value), info.value.endpoint))
    assert errors == [errors[0]] * len(errors)


# --------------------------------------------------------------------------
# the solver's ladder search

def _walk_only(a, b, c, log_target):
    """The solver as it was before it searched from a guess: the bracket is
    found by doubling from (-2, 2).  Frozen here to check that the ladder
    search changes no bracket, iterate, result or error."""
    from genellip.errors import ConvergenceError, SaturationError
    from genellip.hypergeom import _eval_pair, _Triple
    from genellip import modulus
    from genellip.modulus import _T_MAX, _sigmoid

    key = _Triple(a, b, c)
    log_half_beta = math.log(key.half_beta)

    def g(t):
        z, zc = _sigmoid(t), _sigmoid(-t)
        num = _eval_pair(key, zc, z)
        den = _eval_pair(key, z, zc)
        return log_half_beta + math.log(num.value) - math.log(den.value) - log_target

    budget = modulus._MAX_EVALS
    evals = 0
    lo, hi = -2.0, 2.0
    glo = g(lo)
    ghi = g(hi)
    evals += 2
    while glo < 0.0:
        if lo <= -_T_MAX:
            raise SaturationError(
                f"target mu={math.exp(log_target)!r} exceeds the value "
                f"attainable at the smallest representable modulus", endpoint=0.0)
        hi, ghi = lo, glo
        lo = max(2.0 * lo, -_T_MAX)
        glo = g(lo)
        evals += 1
    while ghi > 0.0:
        if hi >= _T_MAX:
            raise SaturationError(
                f"target mu={math.exp(log_target)!r} is below the value "
                f"attainable at the largest representable modulus", endpoint=1.0)
        lo, glo = hi, ghi
        hi = min(2.0 * hi, _T_MAX)
        ghi = g(hi)
        evals += 1
    if glo == 0.0:
        return lo
    if ghi == 0.0:
        return hi
    t0, g0 = lo, glo
    t1, g1 = hi, ghi
    while evals < budget:
        if g0 != g1:
            t2 = t1 - g1 * (t1 - t0) / (g1 - g0)
        else:
            t2 = 0.5 * (lo + hi)
        if not lo < t2 < hi:
            t2 = 0.5 * (lo + hi)
        g2 = g(t2)
        evals += 1
        if g2 == 0.0:
            return t2
        if g2 > 0.0:
            lo, glo = t2, g2
        else:
            hi, ghi = t2, g2
        t0, g0 = t1, g1
        t1, g1 = t2, g2
        if abs(g2) <= 1e-13 * (1.0 + abs(log_target)) or hi - lo <= 4e-16 * max(1.0, abs(t2)):
            return t2
    if abs(g1) <= 1e-12:
        return t1
    raise ConvergenceError(
        f"mu inversion did not reach tolerance within {budget} evaluations "
        f"(residual {g1!r} in log mu)")


def _outcome(solve, abc, log_target):
    """The returned t, or the type, message and endpoint of the error."""
    from genellip.errors import GenellipError
    try:
        return solve(*abc, log_target)
    except (GenellipError, ArithmeticError) as exc:
        return type(exc), str(exc), getattr(exc, "endpoint", None)


def _log_mu_at(abc, t):
    """log mu at t = log(r^2/r'^2), computed as the solver computes it."""
    from genellip.hypergeom import _eval_pair, _Triple
    from genellip.modulus import _sigmoid
    key = _Triple(*abc)
    z, zc = _sigmoid(t), _sigmoid(-t)
    return (math.log(key.half_beta) + math.log(_eval_pair(key, zc, z).value)
            - math.log(_eval_pair(key, z, zc).value))


# the reduced family, then c < a+b with a+b-c = 1e-13 (zero-balanced route),
# 1e-9 (Euler band), 0.2 (connection), 1.0 (integer c-a-b) and 0.6 (connection)
_JUMP_TRIPLES = ((0.5, 0.5, 1.0), (0.3, 0.7, 1.0), (0.05, 0.9, 0.95),
                 (0.6, 0.7, 1.3 - 1e-13), (0.6, 0.7, 1.3 - 1e-9),
                 (0.6, 0.7, 1.1), (0.6, 0.7, 0.3), (1.2, 0.9, 1.5))
_LADDER = (2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0, 512.0, 700.0)


def _jump_targets(abc, rng) -> list:
    """Seeded log-mu targets, targets at every rung and one ulp either
    side, saturating targets at both ends, and log y = +-708."""
    from genellip.errors import GenellipError
    out = [rng.uniform(-40.0, 40.0) for _ in range(6)]
    for t in _LADDER:
        for side in (-t, t):
            try:
                y = _log_mu_at(abc, side)
            except (GenellipError, ArithmeticError):  # beyond float range on this route
                continue
            out += [y, math.nextafter(y, -math.inf), math.nextafter(y, math.inf)]
            if t == 700.0:
                out.append(y + 1.0 if side < 0 else y - 1.0)
    return out + [708.0, -708.0]


def _assert_search_matches_walk():
    import random

    from genellip.modulus import _solve_log_mu
    rng = random.Random("rung-jump")
    n = 0
    for abc in _JUMP_TRIPLES:
        for lt in _jump_targets(abc, rng):
            got = _outcome(_solve_log_mu.__wrapped__, abc, lt)
            want = _outcome(_walk_only, abc, lt)
            assert got == want, (abc, lt)
            n += 1
    assert n > 400


def test_ladder_search_keeps_the_walk_bracket_result_and_errors():
    _assert_search_matches_walk()


@pytest.mark.parametrize("factor", [0.25, 0.5, 2.0, 4.0])
def test_ladder_search_gives_the_walk_on_a_wrong_guess(monkeypatch, factor):
    # a guess one or two rungs too shallow or too deep still gives the walk's
    # result: too shallow, the search goes on outward; too deep, g at its
    # first rung has the other sign and the search steps back inward
    from genellip import modulus
    guess = modulus._guess_t
    monkeypatch.setattr(modulus, "_guess_t",
                        lambda key, lhb, lt: factor * guess(key, lhb, lt))
    _assert_search_matches_walk()


def test_ladder_search_cuts_the_evaluations_of_a_solve(monkeypatch):
    from genellip import modulus
    from genellip.errors import SaturationError
    calls = _count_calls(monkeypatch, ((modulus, "_kernel"),))
    _cold()
    mu_inv_m(ModulusParams(1.2, 0.9, 1.5), math.exp(25.0))
    assert calls["_kernel"] <= 8  # 16 walking from (-2, 2)
    calls["_kernel"] = 0
    _cold()
    with pytest.raises(SaturationError):
        mu_inv_m(ModulusParams(0.3, 0.7, 1.0), math.exp(20.0))
    assert calls["_kernel"] <= 4  # 20 walking from (-2, 2)


@pytest.mark.parametrize("abc", [(0.3, 0.7, 1.0), (1.2, 0.9, 1.5)])
def test_a_solve_leaves_the_2f1_cache_untouched(abc):
    # the solver reads F from the uncached kernel: a cold mu_inv fills no
    # entry of _eval_pair's cache, phi_K only the two of mu(r), and both
    # return the frozen solver's result, which reads F through the cache
    from genellip import hypergeom
    from genellip.modulus import _modulus_from_t
    P = ModulusParams(*abc)
    _cold()
    before = hypergeom._eval_pair.cache_info()
    s = mu_inv_m(P, math.exp(1.5))
    assert hypergeom._eval_pair.cache_info() == before
    assert s == _modulus_from_t(_walk_only(*abc, math.log(math.exp(1.5))))
    _cold()
    r = Modulus.from_r(0.6)
    s = phi_k_m(P, 3.0, r)
    info = hypergeom._eval_pair.cache_info()
    assert (info.hits, info.misses) == (0, 2)
    log_target = math.log(mu_m(P, r).value) - math.log(3.0)
    assert s == _modulus_from_t(_walk_only(*abc, log_target))


def test_ladder_search_from_any_rung_gives_the_walk(monkeypatch):
    # g is monotone along the ladder, so a search started anywhere on it
    # (or past either end) ends on the pair of rungs the walk brackets
    import random

    from genellip import modulus
    rungs = modulus._LADDER
    starts = [*rungs, *(0.5 * (s + t) for s, t in zip(rungs, rungs[1:])), 0.0, -1e3, 1e3]
    rng = random.Random("ladder-search")
    # zero-balanced, connection, and integer c-a-b (no guess)
    for abc in (_JUMP_TRIPLES[0], _JUMP_TRIPLES[5], _JUMP_TRIPLES[6]):
        targets = _jump_targets(abc, rng)
        want = [_outcome(_walk_only, abc, lt) for lt in targets]
        for start in starts:
            monkeypatch.setattr(modulus, "_guess_t", lambda key, lhb, lt: start)
            got = [_outcome(modulus._solve_log_mu.__wrapped__, abc, lt) for lt in targets]
            assert got == want, (abc, start)


@pytest.mark.parametrize("dx", [0.01, -0.01])
def test_no_guess_where_the_connection_asymptote_has_no_root(dx):
    # C1 = 1.46 > e^s at s = |log target - log(B/2)| = 0.01, so C1 + C2 u^(c-a-b)
    # = e^s has no small root u: _guess_t gives no guess, and the solve
    # starts its walk at -2 and ends where the frozen walk does
    from genellip import modulus
    abc = (0.08884557508687871, 2.520533792184557, 0.7137853130901232)
    key = _Triple(*abc)
    assert key.route == "connection"
    assert key.connection[0] == pytest.approx(1.46, abs=1e-3)
    log_hb = math.log(key.half_beta)
    log_target = log_hb + dx
    assert modulus._guess_t(key, log_hb, log_target) == 0.0
    y = math.exp(log_target)
    assert mu_inv_m(ModulusParams(*abc), y) == _modulus_from_t(_walk_only(*abc, math.log(y)))


# --------------------------------------------------------------------------
# the solver's exits short of its residual tolerance (see mu_inv_m)

def _stepped_solve(monkeypatch, step, budget=None):
    """y = mu(r) at t = log(r^2/r'^2) = 3, the solver's root t* for it, and
    _solve_log_mu with g(t) = log mu - log y stepped to g + step sign(t* - t),
    so that |g| never falls below `step`, under an evaluation budget.  On
    t > 0, F(r'^2), the numerator of mu, is the kernel call with z < 1/2."""
    from genellip import modulus
    p = ModulusParams(0.5, 0.5, 1.0)
    log_y = math.log(mu_m(p, _modulus_from_t(3.0)).value)
    solve = modulus._solve_log_mu.__wrapped__
    t_root = solve(p.a, p.b, p.c, log_y)
    kernel = modulus._kernel

    def stepped(key, z, zc):
        value, err, method = kernel(key, z, zc)
        if z < 0.5:
            value *= math.exp(math.copysign(step, t_root - math.log(zc / z)))
        return value, err, method
    monkeypatch.setattr(modulus, "_kernel", stepped)
    if budget is not None:
        monkeypatch.setattr(modulus, "_MAX_EVALS", budget)
    return p, log_y, t_root, lambda: solve(p.a, p.b, p.c, log_y)


def test_a_bracket_that_closes_first_returns_its_root(monkeypatch):
    _, _, t_root, solve = _stepped_solve(monkeypatch, 1e-10)
    t = solve()
    assert abs(t - t_root) <= 4e-16 * max(1.0, abs(t))  # a bracket a few ulps wide


def test_a_spent_budget_returns_a_residual_of_at_most_1e_12(monkeypatch):
    from genellip.errors import ConvergenceError
    p, log_y, _, solve = _stepped_solve(monkeypatch, 5e-13, budget=8)
    t = solve()
    assert abs(math.log(mu_m(p, _modulus_from_t(t)).value) - log_y) <= 1e-12
    monkeypatch.undo()
    _, _, _, solve = _stepped_solve(monkeypatch, 2e-12, budget=8)
    with pytest.raises(ConvergenceError, match="within 8 evaluations"):
        solve()
