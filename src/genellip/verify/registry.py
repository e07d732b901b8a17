"""The built-in catalog of verification checks.

Each entry is a CheckSpec whose `claim` field states the mathematical
property in full, including the parameter ranges it is tested on and any
endpoint-rate relaxations.  Throughout, K = K_{a,b,c}(r) and E = E_{a,b,c}(r)
are the generalized complete elliptic integrals, r' = sqrt(1-r^2),
B = B(a,b) is the beta function, mu = mu_{a,c} is the generalized modulus of
the Gruetzsch-type ring, phi_K = phi_K^{a,c} is the modular function, M is
the Legendre-type M function, and R(a,b) = -psi(a) - psi(b) - 2*gamma.

Conventions:

* Monotone/convexity claims are judged on discrete differences with
  error-aware slack (see engine module docstring).
* "onto (A, B)" claims additionally verify containment on the grid and
  endpoint attainment at boundary probes.  Endpoints approached at a
  1/log rate carry a relaxed attainment tolerance (stated per check) and
  fall back to the gap-contraction rule: the probe must shrink the gap to
  the limit by the check's decay factor relative to the grid edge.
* Checks on the modular function use the log-odds coordinate
  x = log(r^2/(1-r^2)); r -> x is strictly increasing, so monotonicity
  claims transfer verbatim, and boundary probes stay representable where
  floating-point r saturates.
* Checks whose id starts with "conj-" (and the printed-form erratum
  record) are non-gating: they are reported but never fail a run.

How a check is declared: each builder below is one family of checks, and
binds what its checks share once, as a `functools.partial` of CheckSpec:
the kind, the parameter grid with its parameter map, the argument grid,
and any probe or limit common to the family.  A check then states only its
id, its claim, its evaluators and the fields that differ from the CheckSpec
defaults: tolerance 1e-9, attainment 1e-3 at either end, decay factor 0.5.
A primed check (K'(s)/K'(r), s'/r', ...) is its unprimed evaluator at the
complements r' and s' (`_primed`), as K'(r) = K(r').  Evaluators and limits
read a combo's EllipticParams and ModulusParams through `_ep` and `_mp`, one
object per combo, and M and F at an (a, b, c) tuple through the pair
functions (`_m_pair`, `_eval_pair`), which build none; only the
c-dependence checks of K, E and the modulus, whose argument is c, build
theirs per point.  The evaluators call the package's functions through
this module's own names, so each call can be traced by name.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from ..elliptic import EllipticParams, Modulus, arth, ell_e, ell_e_minus_rc2k, ell_k, \
    ell_k_minus_e
from ..hypergeom import HypParams, _eval_pair, _Triple, hyp2f1_pair
from ..legendre_m import _m_deriv_pair, _m_pair, _m_scaled_pair, m_scaled_limit
from ..modulus import DegreeK, ModulusParams, modulus_params_ac, mu, mu_deriv, \
    mu_deriv_closed, mu_inv_m, mu_m, p_logit, phi_deriv_closed, phi_k, phi_k_m, \
    phi_logodds, q_modulus
from ..result import EvalResult
from ..scalar_special import beta, digamma, gamma_ln, ramanujan_r
from .engine import CheckSpec, GridDim, GridSpec, pab

INF = math.inf


# ---------------------------------------------------------------------------
# small helpers

def _rel(e: EvalResult) -> float:
    return e.abs_err_est / abs(e.value) if e.value != 0.0 else e.abs_err_est


def _q(num: EvalResult, den: EvalResult, scale: float = 1.0):
    """scale * num/den with first-order relative error propagation."""
    v = scale * num.value / den.value
    return v, abs(v) * (_rel(num) + _rel(den) + 1e-15)


def _pair(e: EvalResult):
    """An EvalResult as the (value, error) pair an evaluator returns."""
    return e.value, e.abs_err_est


def _times(w: float, e: EvalResult):
    """w * e as (value, error), for a weight w >= 0."""
    return w * e.value, w * e.abs_err_est


def _per_combo(cls):
    """The `cls` object of a combo's (a, b, c), b = c - a where it names only a
    and c; the engine runs a combo's points in a row, so they share one object."""
    build = functools.lru_cache(maxsize=1)(cls)
    return lambda d: build(d["a"], d["b"] if "b" in d else d["c"] - d["a"], d["c"])


_ep = _per_combo(EllipticParams)
_mp = _per_combo(ModulusParams)


def _at_r(expr):
    """The evaluator fn(d, r) = expr(p, m, d), with p the combo's
    EllipticParams and m the modulus r."""
    return lambda d, r: expr(_ep(d), Modulus.from_r(r), d)


def _at_rc(expr):
    """As _at_r, but the argument is the complement r' of the modulus."""
    return lambda d, rc: expr(_ep(d), Modulus.from_r_comp(rc), d)


def _half_b(d) -> float:
    """B(a,b)/2 of a combo, from the 2F1 table of its (a, b, c)."""
    return _ep(d).half_beta


def _dim(name, *vals):
    return GridDim(name, 0.0, 1.0, 3, values=tuple(float(v) for v in vals))


def _cases(cases, keys, *dims):
    """The `param_grid` and `param_map` of a CheckSpec over explicit tuples,
    as a dict to splat into it.  The grid is a "case" index over `cases`
    followed by `dims`; the map replaces the index by the tuple's entries,
    named by `keys`, after the values of `dims`."""
    def param_map(d):
        out = dict(d)
        out.update(zip(keys, cases[int(round(out.pop("case")))]))
        return out
    return {"param_grid": GridSpec((_dim("case", *range(len(cases))),) + dims),
            "param_map": param_map}


@functools.lru_cache(maxsize=64)
def _seeded_pairs(seed: int, n: int, lo: float, hi: float, min_gap: float):
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < n:
        u, t = rng.uniform(lo, hi, size=2)
        if abs(u - t) > min_gap:
            pairs.append((float(u), float(t)))
    return tuple(pairs)


# grids shared across checks
R33 = GridSpec((GridDim("r", 0.001, 0.999, 33, "logit"),))
RC33 = GridSpec((GridDim("rc", 0.001, 0.999, 33, "logit"),))
Z33 = GridSpec((GridDim("z", 0.001, 0.999, 33, "logit"),))
X17 = GridSpec((GridDim("x", -13.8, 13.8, 17, "linear"),))
# narrower log-odds grid: past |x|=8 the phi-ratio families go flat to
# within double precision at the extreme K values, so consecutive deltas
# there say nothing; the endpoint probes still certify the limits.
X17K = GridSpec((GridDim("x", -8.0, 8.0, 17, "linear"),))
# the index of a seeded (u, t) pair
I80 = GridSpec((GridDim("i", 0.0, 79.0, 80, "linear"),))

_FRAC = _dim("frac", 0.1, 0.25, 0.5, 0.75, 0.9)
_FRAC_SMALL = _dim("frac", 0.25, 0.5, 0.75)
_CVALS = _dim("c", 0.3, 0.5, 0.7, 0.9, 1.0)
_CVALS_SMALL = _dim("c", 0.5, 0.9, 1.0)
_KDIM = _dim("K", 1.25, 2.0, 5.0, 10.0)
_KDIM3 = _dim("K", 2.0, 5.0, 10.0)

PG_AC = GridSpec((_FRAC, _CVALS))


def _map_reduced(d):
    """(frac, c) -> reduced triple a = frac*c, b = c - a."""
    a = d["frac"] * d["c"]
    out = dict(d)
    out.update(a=a, b=d["c"] - a)
    return out


def _map_shifted(d):
    """(frac, c, s) -> a = frac*c, b = c - a + s, subject to validity."""
    a = d["frac"] * d["c"]
    b = d["c"] - a + d["s"]
    if not (0.0 < b < min(d["c"], 1.0) and a < min(d["c"], 1.0)):
        return None
    out = dict(d)
    out.update(a=a, b=b)
    return out


def _pg_shifted(*shifts):
    return GridSpec((_FRAC, _CVALS, _dim("s", *shifts)))


# monotone in r over the reduced triples, the grid most families share
_REDUCED = functools.partial(CheckSpec, kind="monotone", param_grid=PG_AC,
                             param_map=_map_reduced, arg_grid=R33)


def _k(d):
    """The degree K of a combo, for phi_K."""
    return d["K"]


def _inv_k(d):
    """The inverse degree 1/K of a combo, as a DegreeK, for phi_{1/K}."""
    return DegreeK(1.0 / d["K"])


def _phi_at(expr, degree=_k, at_r=False):
    """The evaluator fn(d, x) = expr(pe, m, s, d) over the combo's reduced
    triple (a, c-a, c): m is the modulus at the log-odds point x (at r = x
    where `at_r`), s = phi_K(m) at the degree `degree(d)`, and pe the
    triple's EllipticParams."""
    def fn(d, x):
        m = Modulus.from_r(x) if at_r else q_modulus(x)
        return expr(_ep(d), m, phi_k_m(_mp(d), degree(d), m), d)
    return fn


def _k_ratio(weight, den):
    """The evaluator weight(m) K(r) / den(m) at the modulus m = r."""
    @_at_r
    def fn(p, m, d):
        k = ell_k(p, m)
        v = weight(m) * k.value / den(m)
        return v, abs(v) * (_rel(k) + 1e-13)
    return fn


def _primed(expr):
    """The primed form of a `_phi_at` expression: expr at the complements
    r' and s', as K'(r) = K(r'); every other argument passes unchanged."""
    return lambda pe, m, s, *rest: expr(pe, m.complement, s.complement, *rest)


# ---------------------------------------------------------------------------
# section: generalized elliptic integral monotonicity (reduced and shifted)

def _ekmonot():
    # Three of these families approach their r -> 1 endpoint at a 1/log(1/r')
    # rate, far too slow for any probe expressible as a float r.  They are
    # checked in the complement coordinate instead (argument r', direction
    # reversed), where r' = 1e-50 is a legal probe: the gap then contracts
    # by (R + 6.2)/(R + 230) and lands inside honest attainment bounds.
    RC_DEEP = 1e-50

    def rc_probe_r_small(d):
        # complement of r = 1e-6, exactly representable via the pair
        return math.sqrt(1.0 - 1e-12)

    shifted = functools.partial(CheckSpec, kind="monotone", arg_grid=R33,
                                param_grid=_pg_shifted(0.0, 0.05, 0.1),
                                param_map=_map_shifted)
    in_r = functools.partial(shifted, lo_probe=lambda d: 1e-6,
                             hi_probe=lambda d: 1.0 - 1e-9)
    in_rc = functools.partial(shifted, arg_grid=RC33, lo_probe=lambda d: RC_DEEP,
                              hi_probe=rc_probe_r_small)

    yield in_rc(
        id="ekmonot-1", direction=-1,
        claim="For 0<a,b<min(c,1) and c<=a+b, (K-E)/(r^2 K) is strictly "
              "increasing on (0,1) onto (b/c, 1); checked in the complement "
              "coordinate (decreasing in r') so the 1/log upper endpoint can "
              "be probed at r'=1e-50.",
        fn=_at_rc(lambda p, m, d: _q(ell_k_minus_e(p, m), ell_k(p, m), 1.0 / m.z)),
        lo_limit=lambda d: 1.0, hi_limit=lambda d: d["b"] / d["c"], lo_attain=0.05)

    @_at_r
    def emk_over_z(p, m, d):
        e = ell_e_minus_rc2k(p, m)
        return e.value / m.z, e.abs_err_est / m.z + 1e-16 * abs(e.value) / m.z

    yield in_r(
        id="ekmonot-2", direction=1,
        claim="For 0<a,b<min(c,1) and c<=a+b, (E-r'^2 K)/r^2 is strictly "
              "increasing on (0,1) onto (B(a,b)(c-b)/(2c), "
              "B(a,b)B(c,c+1-a-b)/(2 B(c+1-a,c-b))).",
        fn=emk_over_z,
        lo_limit=lambda d: 2.0 * _half_b(d) * (d["c"] - d["b"]) / (2.0 * d["c"]),
        hi_limit=lambda d: ell_e(_ep(d), Modulus.from_r(1.0)).value, hi_attain=2e-3)

    @_at_r
    def e_over_zc(p, m, d):
        e = ell_e(p, m)
        return e.value / m.z_comp, abs(e.value / m.z_comp) * (_rel(e) + 1e-15)

    yield in_r(
        id="ekmonot-3", direction=1,
        claim="For 0<a,b<min(c,1) and c<=a+b, E/r'^2 is strictly increasing "
              "on [0,1) onto [B(a,b)/2, infinity).",
        fn=e_over_zc, lo_limit=_half_b, hi_limit=lambda d: INF)

    yield in_r(
        id="ekmonot-4", direction=-1,
        claim="For 0<a,b<min(c,1) and c<=a+b, r'^2 K is strictly decreasing "
              "on [0,1) onto (0, B(a,b)/2].",
        fn=_at_r(lambda p, m, d: _times(m.z_comp, ell_k(p, m))),
        lo_limit=_half_b, hi_limit=lambda d: 0.0)

    @_at_r
    def log_k(p, m, d):
        k = ell_k(p, m)
        return math.log(k.value), _rel(k) + 1e-16

    yield shifted(
        id="ekmonot-5", kind="convex_concave", direction=1,
        claim="For 0<a,b<min(c,1) and c<=a+b, K has positive Maclaurin "
              "coefficients and is log-convex in r on [0,1); checked as "
              "convexity of log K via second differences (ranges of K are "
              "covered by the companion r'^2 K and E/r'^2 checks).",
        fn=log_k)

    yield in_rc(
        id="ekmonot-6", direction=1,
        claim="For 0<a,b<min(c,1) and c<=a+b, (E-r'^2 K)/(r^2 K) is strictly "
              "decreasing on (0,1) onto (0, 1-b/c); checked in the "
              "complement coordinate with the 1/log-slow r->1 end (value -> "
              "0) probed at r'=1e-50.",
        fn=_at_rc(lambda p, m, d: _q(ell_e_minus_rc2k(p, m), ell_k(p, m), 1.0 / m.z)),
        lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0 - d["b"] / d["c"], lo_attain=0.05)

    yield in_rc(
        id="ekmonot-7", direction=-1,
        claim="For 0<a,b<min(c,1) and c<=a+b, (K-E)/(E-r'^2 K) is strictly "
              "increasing on (0,1) onto (b/(c-b), infinity); checked in the "
              "complement coordinate so the log-rate divergence shows the "
              "required growth at the r'=1e-50 probe.",
        fn=_at_rc(lambda p, m, d: _q(ell_k_minus_e(p, m), ell_e_minus_rc2k(p, m))),
        lo_limit=lambda d: INF, hi_limit=lambda d: d["b"] / (d["c"] - d["b"]))

    yield _REDUCED(
        id="ekmonot2-1", direction=-1,
        claim="For 0<a<c<=1 and b=c-a (so a,b in (0,1)), r^2 K / log(1/r') "
              "is strictly decreasing on (0,1) onto (1, B(a,b)). Both "
              "endpoints approach at 1/log rates; attainment relaxed to 0.1 "
              "with gap decay.",
        fn=_k_ratio(lambda m: m.z, lambda m: -0.5 * m.log_z_comp),
        lo_limit=lambda d: 2.0 * _half_b(d), hi_limit=lambda d: 1.0,
        lo_probe=lambda d: 1e-4, hi_probe=lambda d: 1.0 - 1e-13,
        lo_attain=0.1, hi_attain=0.1)

    yield in_r(
        id="ekmonot2-2", direction=-1,
        claim="For 0<a,b<c with 2ab<c<=a+b<c+1/2, r' K is strictly "
              "decreasing on [0,1) onto (0, B(a,b)/2].",
        param_map=lambda d: (lambda out: out if out is not None and
                             2.0 * out["a"] * out["b"] < out["c"] else None)(_map_shifted(d)),
        fn=_at_r(lambda p, m, d: _times(m.r_comp, ell_k(p, m))),
        lo_limit=_half_b, hi_limit=lambda d: 0.0)


def _hyper():
    yield _REDUCED(
        id="hyper-1", direction=-1,
        claim="For c in (0,1], a in (0,c), b=c-a: r K / arth(r) is strictly "
              "decreasing on (0,1) onto (1, B(a,b)/2). The r->1 endpoint is "
              "1/log-slow; attainment relaxed to 0.06 with gap decay.",
        fn=_k_ratio(lambda m: m.r, lambda m: arth(m.r, m.r_comp)),
        lo_limit=_half_b, hi_limit=lambda d: 1.0,
        lo_probe=lambda d: 1e-6, hi_probe=lambda d: 1.0 - 1e-13, hi_attain=0.06)

    @_at_r
    def quad_ratio(p, m, d):
        k = ell_k(p, m)
        den = ell_e_minus_rc2k(p, m)
        hb = p.half_beta
        num = hb * hb - m.z_comp * k.value * k.value
        num_err = 2.0 * m.z_comp * abs(k.value) * k.abs_err_est + 2e-15 * hb * hb
        v = num / den.value
        return v, abs(v) * (abs(num_err / num) if num != 0.0 else num_err) \
            + abs(v) * (_rel(den) + 1e-15)

    def quad_lo(d):
        a, b, c = d["a"], d["b"], d["c"]
        return 2.0 * _half_b(d) * (c - 2.0 * a * c + 2.0 * a * a) / (2.0 * a)

    yield _REDUCED(
        id="hyper-2", direction=1,
        claim="For c in (0,1], a in (0,c), b=c-a: ((B/2)^2 - (r'K)^2)/(E-r'^2 K) "
              "is strictly increasing on (0,1) onto (B(c-2ac+2a^2)/(2a), "
              "B^2 (c-a)/2), B=B(a,b).",
        fn=quad_ratio, lo_limit=quad_lo,
        hi_limit=lambda d: (2.0 * _half_b(d)) ** 2 * (d["c"] - d["a"]) / 2.0,
        lo_probe=lambda d: 1e-6, hi_probe=lambda d: 1.0 - 1e-9, hi_attain=2e-3)

    yield _REDUCED(
        id="hyper-3", direction=-1,
        claim="For c in (0,1], a in (0,c), b=c-a: r'^2 (K-E)/(r^2 E) is "
              "strictly decreasing on (0,1) onto (0, (c-a)/c).",
        fn=_at_r(lambda p, m, d: _q(ell_k_minus_e(p, m), ell_e(p, m), m.z_comp / m.z)),
        lo_limit=lambda d: (d["c"] - d["a"]) / d["c"], hi_limit=lambda d: 0.0,
        lo_probe=lambda d: 1e-6, hi_probe=lambda d: 1.0 - 1e-9)


def _sqrtk():
    fracs = ((0.25, 0.9), (0.25, 1.0), (0.5, 0.9), (0.5, 1.0), (0.75, 1.0))
    near0 = functools.partial(
        CheckSpec, kind="monotone",
        **_cases(tuple((f * c, c - f * c, c) for f, c in fracs), ("a", "b", "c")),
        arg_grid=GridSpec((GridDim("r", 0.02, 0.3, 17, "linear"),)))

    def rc_power(exponent, of_e=False):
        """r'^exponent(d) times K (or E, `of_e`)."""
        @_at_r
        def fn(p, m, d):
            e = (ell_e if of_e else ell_k)(p, m)
            w = m.z_comp ** (0.5 * exponent(d))
            return w * e.value, w * e.abs_err_est + 1e-15 * w * abs(e.value)
        return fn

    def p_star(d):
        return 2.0 * (d["a"] / d["c"]) * (d["c"] - d["a"])

    yield near0(
        id="sqrtk-1", direction=-1,
        claim="For 0<a<c<=1, b=c-a: r'^p K is decreasing on (0,1) exactly "
              "when p >= p* = 2(a/c)(c-a); at p=p* it maps onto (0, B(a,b)/2). "
              "Checked at the threshold exponent.",
        arg_grid=R33, fn=rc_power(p_star), lo_limit=_half_b, hi_limit=lambda d: 0.0,
        lo_probe=lambda d: 1e-6, hi_probe=lambda d: 1.0 - 1e-12, decay_factor=0.55)

    yield near0(
        id="sqrtk-1-sharp", direction=1,
        claim="Sharpness of the r'^p K threshold: for p = p* - 0.3 the "
              "function r'^p K is strictly increasing near 0 (its log-slope "
              "at 0 equals ab/c - p/2 = +0.15), checked on r in (0.02, 0.3).",
        fn=rc_power(lambda d: p_star(d) - 0.3))

    def q_star(d):
        return -(2.0 / d["c"]) * (1.0 - d["a"]) * (d["c"] - d["a"])

    yield _REDUCED(
        id="sqrtk-2", direction=1,
        claim="For 0<a<c<=1, b=c-a: r'^q E is increasing on (0,1) exactly "
              "when q <= q* = -(2/c)(1-a)(c-a); at q=q* it maps onto "
              "(B(a,b)/2, infinity). Checked at the threshold exponent. No "
              "divergence probe: |q*| is as small as 0.02 on this grid, so "
              "r'^q* grows too slowly to certify within double precision; "
              "the blow-up is carried entirely by that explicit factor "
              "against E -> E(1) > 0.",
        fn=rc_power(q_star, of_e=True), lo_limit=_half_b, hi_limit=lambda d: INF,
        lo_probe=lambda d: 1e-6)

    yield near0(
        id="sqrtk-2-sharp", direction=-1,
        claim="Sharpness of the r'^q E threshold: for q = q* + 0.3 the "
              "function r'^q E is strictly decreasing near 0 (log-slope at 0 "
              "is (a-1)b/c - q/2 = -0.15), checked on r in (0.02, 0.3).",
        fn=rc_power(lambda d: q_star(d) + 0.3, of_e=True))


def _logconvexke():
    def map_lck(d):
        out = _map_shifted(d)
        if out is None or not d["s"] < out["a"] - 0.02:
            return None
        return out

    log_convex = functools.partial(
        CheckSpec, kind="convex_concave", direction=1, param_grid=_pg_shifted(0.1, 0.2, 0.3),
        param_map=map_lck, arg_grid=R33, lo_limit=lambda d: math.log(_half_b(d)),
        lo_probe=lambda d: 1e-5)

    def log_pow(of_e):
        """log(r'^(2s) K) with s = a+b-c, or with `of_e` log(r'^(2s) E) with
        s = a+b-c-1."""
        @_at_r
        def fn(p, m, d):
            f = (ell_e if of_e else ell_k)(p, m)
            s = d["a"] + d["b"] - d["c"] - float(of_e)
            return s * math.log(m.z_comp) + math.log(f.value), _rel(f) + 1e-14
        return fn

    yield log_convex(
        id="logconvexke-1",
        claim="For 0<a,b<min(c,1) with a+b>=c: r'^(2(a+b-c)) K has positive "
              "Maclaurin coefficients, is log-convex in r on [0,1), and maps "
              "onto (B(a,b)/2, B(c,a+b-c)/2). Checked as convexity of the "
              "log on r with range endpoints on the log scale; the r->1 rate "
              "is r'^(2(a+b-c)), relaxed attainment 0.1 with gap decay.",
        fn=log_pow(False),
        hi_limit=lambda d: math.log(0.5 * beta(d["c"], d["a"] + d["b"] - d["c"]).value),
        hi_probe=lambda d: 1.0 - 1e-13, hi_attain=0.1)

    yield log_convex(
        id="logconvexke-2",
        claim="For 0<a,b<min(c,1) with a+b>=c: r'^(2(a+b-c-1)) E has positive "
              "Maclaurin coefficients, is log-convex in r on [0,1), and maps "
              "onto (B(a,b)/2, infinity). Checked as convexity of the log "
              "with range endpoints on the log scale.",
        fn=log_pow(True), hi_limit=lambda d: INF, hi_probe=lambda d: 1.0 - 1e-9)


# ---------------------------------------------------------------------------
# section: generalized modulus

def _mutheorem():
    def mu_plus_logr(d, r):
        m = Modulus.from_r(r)
        v = mu_m(_mp(d), m)
        return v.value + 0.5 * m.log_z, v.abs_err_est + 1e-15

    yield _REDUCED(
        id="mutheorem-1", direction=-1,
        claim="For 0<a<c<=1: mu(r) + log r is strictly decreasing on (0,1] "
              "onto [0, R(a,c-a)/2).",
        fn=mu_plus_logr,
        lo_limit=lambda d: 0.5 * ramanujan_r(d["a"], d["c"] - d["a"]).value,
        hi_limit=lambda d: 0.0,
        lo_probe=lambda d: 1e-7, hi_probe=lambda d: 1.0 - 1e-13,
        hi_attain=0.2, decay_factor=0.75)

    def mu_times(weight, rel):
        """w mu(r) for the weight w = weight(m) at the modulus m = r, with
        error |w| err(mu) + rel |w mu|."""
        def fn(d, r):
            m = Modulus.from_r(r)
            v = mu_m(_mp(d), m)
            w = weight(m)
            return w * v.value, abs(w) * v.abs_err_est + rel * abs(w * v.value)
        return fn

    # (B(a,c-a)/2)^2, the upper limit of mutheorem-3, -5 and -6 (mutheorem-2: twice it)
    quarter_b2 = lambda d: _mp(d).half_beta ** 2

    yield _REDUCED(
        id="mutheorem-2", direction=1,
        claim="For 0<a<c<=1: (r'^2 log r')/(r^2 log r) * mu(r) is strictly "
              "increasing on (0,1) onto (1/2, B(a,c-a)^2/2). Both endpoints "
              "are 1/log-slow; attainment 0.15 with decay factor 0.75.",
        fn=mu_times(lambda m: (m.z_comp * m.log_z_comp) / (m.z * m.log_z), 1e-14),
        lo_limit=lambda d: 0.5, hi_limit=lambda d: 2.0 * quarter_b2(d),
        lo_probe=lambda d: 1e-13, hi_probe=lambda d: 1.0 - 1e-13,
        lo_attain=0.15, hi_attain=0.15, decay_factor=0.75)

    yield _REDUCED(
        id="mutheorem-3", direction=1,
        claim="For 0<a<c<=1: (r' arth r)/(r arth r') * mu(r) is strictly "
              "increasing on (0,1) onto (1, (B(a,c-a)/2)^2]. 1/log endpoints; "
              "attainment 0.15 with decay factor 0.75.",
        fn=mu_times(lambda m: (m.r_comp * arth(m.r, m.r_comp)) / (m.r * arth(m.r_comp, m.r)),
                    1e-14),
        lo_limit=lambda d: 1.0, hi_limit=quarter_b2,
        lo_probe=lambda d: 1e-13, hi_probe=lambda d: 1.0 - 1e-13,
        lo_attain=0.15, hi_attain=0.15, decay_factor=0.75)

    yield _REDUCED(
        id="mutheorem-4", direction=1,
        claim="For 0<a<c<=1: r' mu(r)/log(1/r) is strictly increasing on "
              "(0,1) onto (1, infinity); the same holds without the r' "
              "factor. 1/log lower endpoint, attainment 0.15 with decay 0.75.",
        fn=mu_times(lambda m: m.r_comp / (-0.5 * m.log_z), 1e-13),
        lo_limit=lambda d: 1.0, hi_limit=lambda d: INF,
        lo_probe=lambda d: 1e-13, hi_probe=lambda d: 1.0 - 1e-9,
        lo_attain=0.15, decay_factor=0.75)

    yield _REDUCED(
        id="mutheorem-5", direction=1,
        claim="For 0<a<c<=1: mu(r) arth(r) is strictly increasing on (0,1) "
              "onto (0, (B(a,c-a)/2)^2). Upper endpoint 1/log-slow; "
              "attainment 0.15 with decay 0.75.",
        fn=mu_times(lambda m: arth(m.r, m.r_comp), 1e-14),
        lo_limit=lambda d: 0.0, hi_limit=quarter_b2,
        lo_probe=lambda d: 1e-9, hi_probe=lambda d: 1.0 - 1e-13,
        hi_attain=0.15, decay_factor=0.75)

    def mu_log_ratio(d, r):
        m = Modulus.from_r(r)
        v = mu_m(_mp(d), m)
        w = 0.5 * (math.log(m.z) - math.log(m.z_comp))
        return w * v.value, abs(w) * v.abs_err_est + 1e-14 * (1.0 + abs(w * v.value))

    yield _REDUCED(
        id="mutheorem-6", direction=1,
        claim="For 0<a<c<=1: mu(r) log(r/r') is strictly increasing on "
              "[1/sqrt(2), 1) onto [0, (B(a,c-a)/2)^2). Upper endpoint "
              "1/log-slow; attainment 0.15 with decay 0.75.",
        arg_grid=GridSpec((GridDim("r", 0.7071067811865476, 0.999, 17, "linear"),)),
        fn=mu_log_ratio, lo_limit=lambda d: 0.0, hi_limit=quarter_b2,
        lo_probe=lambda d: 0.7071067811865476, hi_probe=lambda d: 1.0 - 1e-13,
        lo_attain=1e-9, hi_attain=0.15, decay_factor=0.75)


# ---------------------------------------------------------------------------
# section: hypergeometric quotients with shifted parameters

def _hyp_quotients():
    # F(num; z)/F(a,b;c; z) increasing from 1 at z = 0
    from_one = functools.partial(
        CheckSpec, kind="monotone", direction=1, arg_grid=Z33,
        lo_limit=lambda d: 1.0, lo_probe=lambda d: 1e-12, lo_attain=1e-6, hi_attain=2e-3)

    def abc(d):
        return d["a"], d["b"], d["c"]

    def f_ratio(num, den=abc):
        """F(num(d); z)/F(den(d); z)."""
        def fn(d, z):
            zc = 1.0 - z
            return _q(_eval_pair(_Triple(*num(d)), z, zc), _eval_pair(_Triple(*den(d)), z, zc))
        return fn

    def limit_at_one(num, den=abc):
        """F(num(d); 1)/F(den(d); 1), the quotient of the two triples' Gauss sums,
        or infinity where F(num(d); z) diverges at z = 1."""
        def limit(d):
            p, q = _Triple(*num(d)), _Triple(*den(d))
            return INF if p.d <= 0.0 else p.gauss_sum / q.gauss_sum
        return limit

    def shifted(da, db, dc):
        return lambda d: (d["a"] + da, d["b"] + db, d["c"] + dc)

    dp_cases = (
        (0.1, 0.15, 1.0, 0.15, 0.2, 0.9),
        (0.2, 0.3, 1.2, 0.25, 0.35, 1.0),
        (0.5, 0.5, 1.0, 0.7, 0.8, 0.9),
        (0.3, 0.4, 0.9, 0.3, 0.6, 0.8),
    )
    keys = ("a", "b", "c", "a2", "b2", "c2")

    def bumped(d):
        return d["a2"], d["b2"], d["c2"]

    yield from_one(
        id="differentparams1",
        claim="For a2>=a, b2>=b, c2<=c (at least one strict) with "
              "max(a2,b2)<c2: F(a2,b2;c2;z)/F(a,b;c;z) is strictly increasing "
              "on [0,1) from 1 onto [1, L), with L = B(c2,c2-a2-b2) B(c-a,c-b) "
              "/ (B(c,c-a-b) B(c2-a2,c2-b2)) when a2+b2<c2 and L=infinity "
              "otherwise. Four representative parameter bumps are exercised.",
        **_cases(dp_cases, keys), fn=f_ratio(bumped), hi_limit=limit_at_one(bumped),
        hi_probe=lambda d: 1.0 - 1e-12)

    f_cases = ((0.3, 0.4, 2.2), (0.5, 0.5, 1.0), (0.2, 0.9, 1.5))
    g_cases = ((0.3, 0.4, 2.2), (0.5, 0.5, 1.0), (0.7, 0.2, 1.1))
    h_cases = ((0.3, 0.4, 1.4), (0.5, 0.5, 1.0), (0.6, 0.7, 1.2))

    yield from_one(
        id="diffparamscor-f",
        claim="F(a+1,b;c;z)/F(a,b;c;z) is increasing on [0,1) from 1, with "
              "limit (c-a-1)/(c-a-b-1) at 1 when a+b+1<c and infinity "
              "otherwise.",
        **_cases(f_cases, ("a", "b", "c")), fn=f_ratio(shifted(1.0, 0.0, 0.0)),
        hi_limit=limit_at_one(shifted(1.0, 0.0, 0.0)), hi_probe=lambda d: 1.0 - 1e-10)

    yield from_one(
        id="diffparamscor-g",
        claim="F(a,b+1;c;z)/F(a,b;c;z) is increasing on [0,1) from 1, with "
              "limit (c-b-1)/(c-a-b-1) at 1 when a+b+1<c and infinity "
              "otherwise.",
        **_cases(g_cases, ("a", "b", "c")), fn=f_ratio(shifted(0.0, 1.0, 0.0)),
        hi_limit=limit_at_one(shifted(0.0, 1.0, 0.0)), hi_probe=lambda d: 1.0 - 1e-10)

    yield from_one(
        id="diffparamscor-h",
        claim="F(a,b;c;z)/F(a,b;c+1;z) is increasing on [0,1) from 1, with "
              "limit (c-a)(c-b)/(c(c-a-b)) at 1 when a+b<c and infinity "
              "otherwise (log-rate divergence when a+b=c).",
        **_cases(h_cases, ("a", "b", "c")),
        fn=f_ratio(abc, shifted(0.0, 0.0, 1.0)),
        hi_limit=limit_at_one(abc, shifted(0.0, 0.0, 1.0)), hi_probe=lambda d: 1.0 - 1e-12)

    def quotf(d, c):
        a, x, y = d["a"], d["x"], d["y"]
        p = _Triple(a, c - a, c)
        v, e = _q(_eval_pair(p, x, 1.0 - x), _eval_pair(p, y, 1.0 - y), 2.0 * p.half_beta)
        return v, e + 1e-15 * abs(v)

    q_cases = ((0.3, 0.2, 0.7), (0.6, 0.2, 0.7), (0.3, 0.1, 0.5), (0.6, 0.4, 0.9))
    yield CheckSpec(
        id="quotfdepc", kind="monotone", direction=-1,
        claim="For a>0 and fixed 0<x<y<1 (here orderings both ways): "
              "c -> B(a,c-a) F(a,c-a;c;x)/F(a,c-a;c;y) is strictly "
              "decreasing on (a, infinity) onto (0, infinity). The c->inf "
              "decay is c^(-a); the far probe at c=45 (parameter cap) uses "
              "decay factor 0.75; the c->a+ divergence is probed at a+1e-5.",
        **_cases(q_cases, ("a", "x", "y")),
        arg_grid=GridSpec((GridDim("c", 0.7, 10.0, 33, "log"),)), fn=quotf,
        lo_limit=lambda d: INF, hi_limit=lambda d: 0.0,
        lo_probe=lambda d: d["a"] + 1e-5, hi_probe=lambda d: 45.0, decay_factor=0.75)


# ---------------------------------------------------------------------------
# section: the M function

def _m_of(d, z, scaled=False):
    """M(a,b,c; z) of a combo, or with `scaled` (z(1-z))^(a+b-c) M, as
    (value, error)."""
    return _pair((_m_scaled_pair if scaled else _m_pair)(d["a"], d["b"], d["c"], z, 1.0 - z))


def _mprop():
    abc = ("a", "b", "c")
    sym_cases = ((0.5, 0.5, 1.0), (0.4, 0.7, 1.0), (0.3, 0.6, 0.9),
                 (0.8, 1.2, 1.5), (2.0, 3.0, 4.0))
    yield CheckSpec(
        id="mprop-1", kind="identity",
        claim="M(z) = M(1-z) > 0 for all positive a,b,c and z in (0,1).",
        **_cases(sym_cases, abc), arg_grid=Z33, tolerance=1e-11,
        fn=_m_of, rhs=lambda d, z: _m_of(d, 1.0 - z))

    yield CheckSpec(
        id="mprop-2", kind="identity",
        claim="When a+b=c=1, M is the constant sin(pi a)/pi.",
        param_grid=GridSpec((GridDim("a", 0.1, 0.9, 9, "linear"),)),
        param_map=lambda d: {"a": d["a"], "b": 1.0 - d["a"], "c": 1.0},
        arg_grid=Z33, fn=_m_of, rhs=lambda d, z: (math.sin(math.pi * d["a"]) / math.pi, 0.0))

    div_cases = ((0.4, 0.7, 1.0), (0.6, 0.6, 1.1), (0.5, 0.9, 1.2))
    yield CheckSpec(
        id="mprop-3", kind="range_endpoints",
        claim="When a+b>c, M(0+) = M(1-) = infinity; divergence probed at "
              "z=1e-9 and z=1-1e-9 against the grid edges.",
        **_cases(div_cases, abc),
        arg_grid=GridSpec((GridDim("z", 0.001, 0.999, 9, "logit"),)), fn=_m_of,
        lo_limit=lambda d: INF, hi_limit=lambda d: INF,
        lo_probe=lambda d: 1e-9, hi_probe=lambda d: 1.0 - 1e-9)

    cvx_cases = ((0.8, 0.7, 1.0), (1.2, 0.9, 1.3), (0.6, 0.8, 1.1))
    yield CheckSpec(
        id="mprop-4", kind="convex_concave", direction=1,
        claim="If (a+b-1)(c-b)>0, a+b>=c>=a and ab/(a+b+1)<c, then M is "
              "strictly convex on (0,1) (hence decreasing then increasing "
              "about 1/2 by symmetry).",
        **_cases(cvx_cases, abc), arg_grid=Z33, fn=_m_of)

    ccv_cases = ((0.3, 0.5, 0.9), (0.4, 0.5, 1.0), (0.2, 0.6, 0.8))
    yield CheckSpec(
        id="mprop-5", kind="convex_concave", direction=-1,
        claim="If (a+b-1)(c-b)<0, a+b<=c and ab/(a+b+1)<c, then M is "
              "strictly concave on (0,1) (increasing then decreasing about "
              "1/2 by symmetry).",
        **_cases(ccv_cases, abc), arg_grid=Z33, fn=_m_of)

    low_cases = ((0.5, 0.5, 1.0), (0.4, 0.7, 1.0), (0.3, 0.6, 0.9), (0.8, 1.2, 1.5))

    def m_minus_floor(d, z):
        v, err = _m_of(d, z)
        return v - d["a"] * d["b"] / d["c"], err

    yield CheckSpec(
        id="mprop-6", kind="inequality",
        claim="If a+b>=c then M(z) > ab/c on (0,1).",
        **_cases(low_cases, abc), arg_grid=Z33, fn=m_minus_floor)


def _mextra():
    abc = ("a", "b", "c")
    f_scaled = functools.partial(_m_of, scaled=True)

    lim_cases = ((0.6, 0.7, 1.0), (0.9, 0.6, 1.0), (0.8, 1.2, 1.5))
    yield CheckSpec(
        id="mextra-1", kind="limit",
        claim="For a,b<=c<a+b, (z(1-z))^(a+b-c) M(z) is bounded with limit "
              "(a+b-c) B(c,a+b-c)/B(a,b) at both ends; probed at "
              "z in {1e-13, 1e-12, 1e-11} where the z^(a+b-c) correction is "
              "below 5e-3.",
        **_cases(lim_cases, abc), arg_grid=GridSpec((_dim("z", 1e-13, 1e-12, 1e-11),)),
        tolerance=5e-3, fn=f_scaled,
        rhs=lambda d, z: (m_scaled_limit(d["a"], d["b"], d["c"]), 0.0))

    eq_cases = ((1.0, 0.4, 1.0), (0.7, 0.3, 0.7), (0.5, 1.0, 1.0), (0.4, 0.9, 0.9))

    def scaled_const(d, z):
        if abs(d["a"] - d["c"]) <= 1e-12:
            return d["b"], 0.0
        return d["a"], 0.0

    yield CheckSpec(
        id="mextra-2", kind="identity",
        claim="If a=c then (z(1-z))^b M(z) is identically b; if b=c it is "
              "identically a.",
        **_cases(eq_cases, abc), arg_grid=Z33, tolerance=1e-10, fn=f_scaled,
        rhs=scaled_const)

    pw_cases = ((0.5, 0.5, 1.0), (0.3, 0.9, 1.1), (0.7, 0.9, 1.3), (0.25, 0.75, 1.0))

    def power_const(d, z):
        lg = 2.0 * gamma_ln(d["c"]).value - gamma_ln(d["a"]).value - gamma_ln(d["b"]).value
        return math.exp(lg), 0.0

    yield CheckSpec(
        id="mextra-3", kind="identity",
        claim="If a+b+1=2c then M(z) = d (z(1-z))^(1-c) with "
              "d = Gamma(c)^2/(Gamma(a)Gamma(b)); equivalently the scaled "
              "function is the constant d. In particular M itself is "
              "constant within this family exactly when c=1.",
        **_cases(pw_cases, abc), arg_grid=Z33, tolerance=1e-8, fn=f_scaled,
        rhs=power_const)


def _mcorollary():
    cases = ((0.5, 0.5, 1.0), (0.3, 0.9, 1.1), (0.25, 0.75, 1.0))
    corollary = functools.partial(
        CheckSpec, kind="derivative_match", **_cases(cases, ("a", "b", "c")),
        arg_grid=GridSpec((GridDim("r", 0.08, 0.92, 9, "linear"),)), tolerance=1e-6)

    yield corollary(
        id="mcorollary-mu",
        claim="In the a+b+1=2c family the modulus derivative has the closed "
              "form d(mu)/dr = -(1/4) D / (r^(2c-1) r'^(2c) K(r)^2) with "
              "D = exp(2(lnG(a)+lnG(b)+lnG(c)) - 3 lnG(a+b)) * ... ; checked "
              "against Richardson central differences at 1e-6 relative.",
        fn=lambda d, r: _pair(mu(_mp(d), r)),
        rhs=lambda d, r: _pair(mu_deriv_closed(_mp(d), r)))

    yield corollary(
        id="mcorollary-phi",
        claim="In the a+b+1=2c family the modular function derivative has "
              "the closed form phi_K'(r) = (s/r)^(2c-1) (s'/r')^(2c) "
              "F(s^2)^2/(K F(r^2)^2); checked for K=2 against Richardson "
              "differences at 1e-6 relative.",
        fn=lambda d, r: (phi_k(_mp(d), 2.0, r), 5e-13),
        fd_h=1e-4,
        rhs=lambda d, r: _pair(phi_deriv_closed(_mp(d), 2.0, r)))


def _mfunctions():
    def slope_margin(d, r):
        a, b, c, z = d["a"], d["b"], d["c"], r * r
        mv = _m_pair(a, b, c, z, 1.0 - z)
        md = _m_deriv_pair(a, b, c, z, 1.0 - z)
        v = mv.value - 2.0 * z * md.value - (c - a) * a
        return v, mv.abs_err_est + 2.0 * z * md.abs_err_est

    yield _REDUCED(
        id="mfunctions-1", kind="inequality", strict=False,
        claim="For 0<a<c<=1, b=c-a: M(r^2) - 2 r^2 M'(r^2) >= (c-a)a on "
              "[0,1].",
        fn=slope_margin)

    def f_inv(d, r):
        m = Modulus.from_r(r)
        mv = _m_pair(d["a"], d["b"], d["c"], m.z, m.z_comp)
        v = r / mv.value - d["a"] * (d["c"] - d["a"]) * r
        return v, abs(r / mv.value) * (_rel(mv) + 1e-15)

    yield _REDUCED(
        id="mfunctions-2", direction=1,
        claim="For 0<a<c<=1, b=c-a: r/M(r^2) - a(c-a) r is increasing on "
              "[0,1] onto [0, B(a,b) - a(c-a)]. The r->1 deviation scales as "
              "(1-r^2)^c; attainment 0.05 with gap decay.",
        fn=f_inv, lo_limit=lambda d: 0.0,
        hi_limit=lambda d: 2.0 * _half_b(d) - d["a"] * (d["c"] - d["a"]),
        lo_probe=lambda d: 1e-9, hi_probe=lambda d: 1.0 - 1e-7, hi_attain=0.05)


# ---------------------------------------------------------------------------
# section: modular function families

def _ktheo():
    """Twelve monotone families for s = phi_K(r), t = phi_{1/K}(r).

    Argument is x = log(r^2/r'^2), restricted to |x| <= 8: beyond that the
    slow-end tails (r'^(K-1) and r^(K-1) rates) drop under double-precision
    resolution for the extreme K values and consecutive deltas carry no
    information.  Probes sit at x = +/-55 where the mu-asymptotics are exact
    to far below the attainment tolerances but the solver stays clear of
    saturation for K up to 10.
    """
    ktheo = functools.partial(
        CheckSpec, kind="monotone", param_grid=GridSpec((_FRAC_SMALL, _CVALS_SMALL, _KDIM)),
        param_map=_map_reduced, arg_grid=X17K,
        lo_probe=lambda d: -55.0, hi_probe=lambda d: 55.0)
    # the slow ends of ktheo-2/5/7/12 deviate like e^(R(1-1/K)) r^(2/K),
    # ~1e-3 only once x = K log(r^2) reaches -160; the solver tolerates
    # that easily (the solution modulus sits at moderate logit there).
    lo160 = lambda d: -160.0
    hi160 = lambda d: 160.0

    def ratio_r(pe, m, s, d):
        v = s.r / m.r
        return v, abs(v) * 1e-11

    yield ktheo(
        id="ktheo-1", direction=-1,
        claim="For 0<a<c<=1, K>1, s=phi_K(r): s/r is strictly decreasing in "
              "r on (0,1) onto (1, infinity). Argument is x=log(r^2/r'^2).",
        fn=_phi_at(ratio_r), lo_limit=lambda d: INF, hi_limit=lambda d: 1.0,
        hi_attain=2e-3)

    yield ktheo(
        id="ktheo-2", direction=-1,
        claim="s'/r' is strictly decreasing on (0,1) onto (0,1); the r->1 "
              "end decays like r'^(K-1) and is judged by gap decay, while "
              "the r->0 deviation ~ e^(R(1-1/K)) r^(2/K) needs the probe at "
              "x=-160.",
        fn=_phi_at(_primed(ratio_r)), lo_limit=lambda d: 1.0, hi_limit=lambda d: 0.0,
        lo_probe=lo160, lo_attain=2e-3)

    def ratio_k(pe, m, s, d):
        return _q(ell_k(pe, s), ell_k(pe, m))

    yield ktheo(
        id="ktheo-3", direction=1,
        claim="K(s)/K(r) is strictly increasing on (0,1) onto (1, K); the "
              "K endpoint is 1/log-slow on float grids but exact in the "
              "deep-asymptotic probe at x=55 (attainment 0.02).",
        fn=_phi_at(ratio_k), lo_limit=lambda d: 1.0, hi_limit=lambda d: d["K"],
        lo_attain=2e-3, hi_attain=0.02)

    yield ktheo(
        id="ktheo-4", direction=1,
        claim="K'(s)/K'(r) is strictly increasing on (0,1) onto (1/K, 1).",
        fn=_phi_at(_primed(ratio_k)), lo_limit=lambda d: 1.0 / d["K"], hi_limit=lambda d: 1.0,
        lo_attain=0.02, hi_attain=2e-3)

    def weighted_k2(pe, m, s, d):
        ks, km = ell_k(pe, s), ell_k(pe, m)
        v = (s.r_comp * ks.value ** 2) / (m.r_comp * km.value ** 2)
        return v, abs(v) * (2.0 * _rel(ks) + 2.0 * _rel(km) + 1e-11)

    yield ktheo(
        id="ktheo-5", direction=-1,
        claim="s' K(s)^2 / (r' K(r)^2) is strictly decreasing on (0,1) onto "
              "(0,1); r->0 probed at x=-160 (deviation ~ r^(2/K)).",
        fn=_phi_at(weighted_k2), lo_limit=lambda d: 1.0, hi_limit=lambda d: 0.0,
        lo_probe=lo160, lo_attain=2e-3)

    yield ktheo(
        id="ktheo-6", direction=-1,
        claim="s K'(s)^2 / (r K'(r)^2) is strictly decreasing on (0,1) onto "
              "(1, infinity).",
        fn=_phi_at(_primed(weighted_k2)), lo_limit=lambda d: INF, hi_limit=lambda d: 1.0,
        hi_attain=2e-3)

    yield ktheo(
        id="ktheo-7", direction=1,
        claim="For t=phi_{1/K}(r): t/r is strictly increasing on (0,1) onto "
              "(0,1); the r->0 end decays like r^(K-1), judged by gap decay, "
              "and the r->1 deviation ~ r'^(2/K) needs the probe at x=160.",
        fn=_phi_at(ratio_r, _inv_k), lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
        hi_probe=hi160, hi_attain=2e-3)

    yield ktheo(
        id="ktheo-8", direction=1,
        claim="t'/r' is strictly increasing on (0,1) onto (1, infinity).",
        fn=_phi_at(_primed(ratio_r), _inv_k), lo_limit=lambda d: 1.0, hi_limit=lambda d: INF,
        lo_attain=2e-3)

    yield ktheo(
        id="ktheo-9", direction=-1,
        claim="K(t)/K(r) is strictly decreasing on (0,1) onto (1/K, 1).",
        fn=_phi_at(ratio_k, _inv_k), lo_limit=lambda d: 1.0, hi_limit=lambda d: 1.0 / d["K"],
        lo_attain=2e-3, hi_attain=0.02)

    yield ktheo(
        id="ktheo-10", direction=-1,
        claim="K'(t)/K'(r) is strictly decreasing on (0,1) onto (1, K).",
        fn=_phi_at(_primed(ratio_k), _inv_k), lo_limit=lambda d: d["K"], hi_limit=lambda d: 1.0,
        lo_attain=0.02, hi_attain=2e-3)

    yield ktheo(
        id="ktheo-11", direction=1,
        claim="t' K(t)^2 / (r' K(r)^2) is strictly increasing on (0,1) onto "
              "(1, infinity).",
        fn=_phi_at(weighted_k2, _inv_k), lo_limit=lambda d: 1.0, hi_limit=lambda d: INF,
        lo_attain=2e-3)

    yield ktheo(
        id="ktheo-12", direction=1,
        claim="t K'(t)^2 / (r K'(r)^2) is strictly increasing on (0,1) onto "
              "(0,1); the r->0 end is judged by gap decay, the r->1 end "
              "probed at x=160 (deviation ~ r'^(2/K)).",
        fn=_phi_at(_primed(weighted_k2), _inv_k), lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
        hi_probe=hi160, hi_attain=2e-3)


def _mufunc():
    yield _REDUCED(
        id="mufunc-1", direction=1,
        claim="For 0<a<c<=1: (1-r) mu'(r) is increasing on (0,1).",
        fn=lambda d, r: _times(1.0 - r, mu_deriv(_mp(d), r)))

    yield _REDUCED(
        id="mufunc-2", direction=-1,
        claim="For 0<a<c<=1: r mu'(r) is decreasing on (0,1).",
        fn=lambda d, r: _times(r, mu_deriv(_mp(d), r)))

    mid_cases = ((0.3, 0.8), (0.5, 1.0), (0.2, 0.4))

    def midpoint_margin(d, i):
        u, t = _seeded_pairs(7, 200, 0.02, 0.98, 1e-3)[int(round(i))]
        p = _mp(d)
        mu_u = mu(p, u).value
        mu_t = mu(p, t).value
        mean = 0.5 * (mu_u + mu_t)
        left = mu(p, 1.0 - math.sqrt((1.0 - u) * (1.0 - t))).value
        right = mu(p, math.sqrt(u * t)).value
        margin = min(mean - left, right - mean)
        return margin, 1e-12 * (1.0 + abs(mean))

    yield CheckSpec(
        id="mufunc-3", kind="inequality",
        claim="For 0<a<c<=1 and u,t in (0,1): mu(1-sqrt((1-u)(1-t))) <= "
              "(mu(u)+mu(t))/2 <= mu(sqrt(ut)), strictly unless u=t; checked "
              "at 200 seeded pairs with |u-t| > 1e-3.",
        **_cases(mid_cases, ("a", "c")),
        arg_grid=GridSpec((GridDim("i", 0.0, 199.0, 200, "linear"),)), fn=midpoint_margin)


def _phiperr():
    ac_cases = ((0.3, 0.8), (0.5, 1.0), (0.7, 0.9))
    power_ratio = functools.partial(
        CheckSpec, kind="monotone", **_cases(ac_cases, ("a", "c"), _KDIM), arg_grid=X17,
        hi_limit=lambda d: 1.0, lo_attain=0.05)

    def over_power(inverse):
        """phi_K(r)/r^(1/K), or with `inverse` phi_{1/K}(r)/r^K, at r = q(x)."""
        def fn(d, x):
            m = q_modulus(x)
            k = d["K"]
            s = phi_k_m(_mp(d), _inv_k(d) if inverse else k, m)
            log_r = 0.5 * m.log_z
            v = math.exp(0.5 * s.log_z - (k * log_r if inverse else log_r / k))
            return v, abs(v) * 1e-10
        return fn

    yield power_ratio(
        id="phiperr-1", direction=-1,
        claim="For 0<a<c<=1, K>1: phi_K(r)/r^(1/K) is strictly decreasing on "
              "(0,1] onto [1, exp((1-1/K) R(a,c-a)/2)); hence r^(1/K) < "
              "phi_K(r) < e^((1-1/K)R/2) r^(1/K). Argument x=log(r^2/r'^2); "
              "the r->0 limit is probed at x=-200 (corrections O(r^(2/K))).",
        fn=over_power(False),
        lo_limit=lambda d: math.exp((1.0 - 1.0 / d["K"]) * 0.5
                                    * ramanujan_r(d["a"], d["c"] - d["a"]).value),
        lo_probe=lambda d: -200.0, hi_probe=lambda d: 58.0)

    yield power_ratio(
        id="phiperr-2", direction=1,
        claim="For 0<a<c<=1, K>1: phi_{1/K}(r)/r^K is strictly increasing on "
              "(0,1] onto (exp((1-K) R(a,c-a)/2), 1]. The r->0 probe sits at "
              "x=-58 (solver saturation bound for K=10); corrections there "
              "are O(exp(-29 K)).",
        fn=over_power(True),
        lo_limit=lambda d: math.exp((1.0 - d["K"]) * 0.5
                                    * ramanujan_r(d["a"], d["c"] - d["a"]).value),
        lo_probe=lambda d: -58.0, hi_probe=lambda d: 200.0)


def _funcineq():
    ac_cases = ((0.3, 0.8), (0.5, 1.0), (0.7, 0.9))
    on_ac_k = functools.partial(CheckSpec, **_cases(ac_cases, ("a", "c"), _KDIM3))
    on_r = functools.partial(on_ac_k, arg_grid=GridSpec((GridDim("r", 0.05, 0.95, 21, "linear"),)))
    on_x = functools.partial(on_ac_k, arg_grid=GridSpec((GridDim("x", 0.01, 20.0, 25, "log"),)))
    on_pairs = functools.partial(on_ac_k, kind="inequality", arg_grid=I80)

    def log_phi(d, m):
        return 0.5 * phi_k_m(_mp(d), d["K"], m).log_z

    # log phi_K spans ~50 orders of magnitude over these grids (it collapses
    # toward 0 like r'^(2K) as r -> 1), so error estimates must be relative:
    # the solver's logit-space tolerance bounds |dt| ~ 1e-13 (1+|t|), and
    # d(log z)/dt = z', which makes the induced error in log r proportional
    # to |log r| at both ends.
    _LOGPHI_REL = 1e-9

    def log_phi_at(modulus):
        """log phi_K at the modulus `modulus(x)`, with its error."""
        def fn(d, x):
            v = log_phi(d, modulus(x))
            return v, abs(v) * _LOGPHI_REL + 1e-300
        return fn

    def gap(d, mid, u, t):
        """The log-concavity gap 2 log phi_K(mid) - log phi_K(u) - log phi_K(t)
        at three moduli, with its error."""
        la, lb, lc = log_phi(d, mid), log_phi(d, u), log_phi(d, t)
        return 2.0 * la - lb - lc, _LOGPHI_REL * (2.0 * abs(la) + abs(lb) + abs(lc)) + 1e-300

    def smaller(g1, g2):
        return g1 if g1[0] <= g2[0] else g2

    f1 = log_phi_at(Modulus.from_r_comp)

    yield on_r(
        id="funcineq1-1-mono", kind="monotone", direction=-1,
        claim="For 0<a<c<=1, K>1: f1(r)=log phi_K(r') is decreasing on (0,1).",
        fn=f1)

    yield on_r(
        id="funcineq1-1-concave", kind="convex_concave", direction=-1,
        claim="f1(r)=log phi_K(r') is concave on (0,1).",
        fn=f1)

    def f1_products(d, i):
        u, t = _seeded_pairs(11, 80, 0.05, 0.95, 1e-3)[int(round(i))]
        # display 1: phi_K(u')phi_K(t') <= phi_K(sqrt(1-((u+t)/2)^2))^2
        g1 = gap(d, Modulus.from_r_comp(0.5 * (u + t)),
                 Modulus.from_r_comp(u), Modulus.from_r_comp(t))
        # display 2: phi_K(u)phi_K(t) <= phi_K(sqrt(1-sqrt((1-u^2)(1-t^2))))^2
        g = math.sqrt((1.0 - u * u) * (1.0 - t * t))
        g2 = gap(d, Modulus(math.sqrt(1.0 - g), math.sqrt(g)),
                 Modulus.from_r(u), Modulus.from_r(t))
        return smaller(g1, g2)

    yield on_pairs(
        id="funcineq1-1-products",
        claim="Consequences of the concavity of log phi_K(r'): "
              "phi_K(u')phi_K(t') <= phi_K(sqrt(1-((u+t)/2)^2))^2 and "
              "phi_K(u)phi_K(t) <= phi_K(sqrt(1-sqrt((1-u^2)(1-t^2))))^2, "
              "with equality iff u=t; 80 seeded pairs, margins in log scale.",
        fn=f1_products)

    f2 = log_phi_at(lambda r: Modulus.from_r(1.0 - r * r))

    yield on_r(
        id="funcineq1-2-mono", kind="monotone", direction=-1,
        claim="f2(r)=log phi_K(r'^2) is decreasing on (0,1) (argument here "
              "is the modulus value 1-r^2 itself, not its square root).",
        fn=f2)

    yield on_r(
        id="funcineq1-2-concave", kind="convex_concave", direction=-1,
        claim="f2(r)=log phi_K(r'^2) is concave on (0,1).",
        fn=f2)

    def f2_product(d, i):
        u, t = _seeded_pairs(13, 80, 0.05, 0.95, 1e-3)[int(round(i))]
        mean = 0.5 * (u + t)
        return gap(d, Modulus.from_r(1.0 - mean * mean),
                   Modulus.from_r(1.0 - u * u), Modulus.from_r(1.0 - t * t))

    yield on_pairs(
        id="funcineq1-2-product-first",
        claim="Consequence of the concavity of log phi_K(r'^2): "
              "phi_K(u'^2)phi_K(t'^2) <= phi_K(1-((u+t)/2)^2)^2, equality "
              "iff u=t; 80 seeded pairs, log-scale margins.",
        fn=f2_product)

    def f2_printed(d, i):
        u, t = _seeded_pairs(13, 80, 0.05, 0.95, 1e-3)[int(round(i))]
        g = math.sqrt((1.0 - u * u) * (1.0 - t * t))
        return gap(d, Modulus.from_r(1.0 - g), Modulus.from_r(u), Modulus.from_r(t))

    yield on_pairs(
        id="funcineq1-2-printed", gating=False,
        claim="Erratum record (non-gating, expected to fail): the companion "
              "display phi_K(u)phi_K(t) <= phi_K(1-sqrt((1-u^2)(1-t^2)))^2 "
              "is false as printed; e.g. u=0.3, t=0.35 in the classical "
              "case K=2 violates it. The true consequence of the concavity "
              "of log phi_K(r'^2) is the 'product-first' form checked "
              "separately.",
        fn=f2_printed)

    f3 = log_phi_at(lambda x: Modulus.from_r(-math.expm1(-x)))

    yield on_x(
        id="funcineq1-3-mono", kind="monotone", direction=1,
        claim="f3(x)=log phi_K(1-e^(-x)) is increasing on (0, infinity).",
        fn=f3)

    yield on_x(
        id="funcineq1-3-concave", kind="convex_concave", direction=-1,
        claim="f3(x)=log phi_K(1-e^(-x)) is concave on (0, infinity).",
        fn=f3)

    def f3_products(d, i):
        u, t = _seeded_pairs(17, 80, 0.05, 0.95, 1e-3)[int(round(i))]
        g1 = gap(d, Modulus.from_r(1.0 - math.sqrt(u * t)),
                 Modulus.from_r(1.0 - u), Modulus.from_r(1.0 - t))
        g2 = gap(d, Modulus.from_r(1.0 - math.sqrt((1.0 - u) * (1.0 - t))),
                 Modulus.from_r(u), Modulus.from_r(t))
        return smaller(g1, g2)

    yield on_pairs(
        id="funcineq1-3-products",
        claim="Consequences of the concavity of log phi_K(1-e^(-x)): "
              "phi_K(1-u)phi_K(1-t) <= phi_K(1-sqrt(ut))^2 and "
              "phi_K(u)phi_K(t) <= phi_K(1-sqrt((1-u)(1-t)))^2, equality iff "
              "u=t; 80 seeded pairs, log-scale margins.",
        fn=f3_products)


def _linconj():
    ac_cases = ((0.3, 0.8), (0.5, 1.0), (0.7, 0.9))
    linear_bound = functools.partial(
        CheckSpec, kind="inequality", **_cases(ac_cases, ("a", "c"), _KDIM3),
        arg_grid=GridSpec((GridDim("x", -20.0, 20.0, 41, "linear"),)))

    def margin(inverse):
        """g(x) - (Kx for x >= 0, x/K below), or with `inverse`
        (x/K for x >= 0, Kx below) - h(x)."""
        def fn(d, x):
            k = d["K"]
            val = phi_logodds(_mp(d), _inv_k(d) if inverse else k, x)
            bound = k * x if (x >= 0.0) != inverse else x / k
            return (-1.0 if inverse else 1.0) * (val - bound), 1e-9
        return fn

    yield linear_bound(
        id="linconj-g",
        claim="With p(x)=2 log(x/x'), q(x)=sqrt(e^x/(e^x+1)): the map "
              "g(x)=p(phi_K(q(x))) satisfies g(x) >= Kx for x >= 0 and "
              "g(x) >= x/K for x < 0.",
        fn=margin(False))

    yield linear_bound(
        id="linconj-h",
        claim="The map h(x)=p(phi_{1/K}(q(x))) satisfies h(x) <= x/K for "
              "x >= 0 and h(x) <= Kx for x < 0.",
        fn=margin(True))


# ---------------------------------------------------------------------------
# section: dependence on the c parameter

def _cdependence():
    ab_cases = ((0.3, 0.8), (0.5, 1.0), (0.2, 0.4), (0.7, 2.5), (1.5, 4.0))

    def b_of_t(d, t):
        p = pab(d["a"], d["c"], t)
        return p.B_t, 4e-15 * (1.0 + abs(p.P))

    yield CheckSpec(
        id="ambm-1", kind="monotone", direction=1,
        claim="For 0<a<c: B(t) = P(a,c,t) - P(a,c,0) with "
              "P = psi(c-a+t) - psi(c+t) is strictly increasing in t >= 0, "
              "zero exactly at t=0, with limit psi(c)-psi(c-a) as t->inf "
              "(probed at t=1e5).",
        **_cases(ab_cases, ("a", "c")),
        arg_grid=GridSpec((GridDim("t", 0.0, 6.0, 25, "linear"),)), fn=b_of_t,
        lo_limit=lambda d: 0.0,
        hi_limit=lambda d: digamma(d["c"]).value - digamma(d["c"] - d["a"]).value,
        lo_probe=lambda d: 0.0, hi_probe=lambda d: 1e5, lo_attain=1e-12)

    at_cases = ((0.3, 0.5), (0.3, 2.0), (0.5, 1.0), (0.5, 10.0), (0.8, 4.0))
    yield CheckSpec(
        id="ambm-2", kind="derivative_match",
        claim="For the Pochhammer ratio A(c) = (c-a,t)/(c,t): "
              "dA/dc = A(c) B(t), checked against Richardson differences at "
              "1e-6 relative.",
        **_cases(at_cases, ("a", "t")),
        arg_grid=GridSpec((GridDim("c", 1.0, 5.0, 9, "log"),)), tolerance=1e-6,
        fn=lambda d, c: (pab(d["a"], c, d["t"]).A, 1e-13),
        rhs=lambda d, c: (lambda p: (p.A * p.B_t, 0.0))(pab(d["a"], c, d["t"])))

    # c -> F(c) over c in (a, infinity)
    in_c = functools.partial(CheckSpec, kind="monotone",
                             arg_grid=GridSpec((GridDim("c", 0.7, 10.0, 33, "log"),)))
    mu_cases = ((0.3, 0.2), (0.3, 0.5), (0.3, 0.8), (0.6, 0.2), (0.6, 0.5), (0.6, 0.8))
    yield in_c(
        id="mudepc", direction=-1,
        claim="For a>0 and r in (0,1): c -> mu_{a,c}(r) is strictly "
              "decreasing on (a, infinity) onto (0, infinity). The c->inf "
              "decay is c^(-a) (slow); far probe at the c=45 parameter cap "
              "with decay factor 0.75; c->a+ divergence probed at a+1e-5.",
        **_cases(mu_cases, ("a", "r")),
        fn=lambda d, c: _pair(mu(modulus_params_ac(d["a"], c), d["r"])),
        lo_limit=lambda d: INF, hi_limit=lambda d: 0.0,
        lo_probe=lambda d: d["a"] + 1e-5, hi_probe=lambda d: 45.0, decay_factor=0.75)

    inv_cases = ((0.3, 0.5), (0.3, 2.0), (0.6, 0.5), (0.6, 2.0))
    yield in_c(
        id="imudpec", direction=-1,
        claim="For a,y>0: c -> inverse modulus mu_{a,c}^{-1}(y) is strictly "
              "decreasing on (a, infinity) onto (0,1); checked in log-odds "
              "of the squared modulus. The c->a+ end (value -> 1) is probed "
              "at c=a+0.05, the closest point clear of solver saturation. "
              "The c->inf end (value -> 0) diverges only like -log(c)/a in "
              "log-odds and cannot be certified below the c<=50 parameter "
              "cap; monotonicity on the grid still covers it.",
        **_cases(inv_cases, ("a", "y")),
        fn=lambda d, c: (p_logit(mu_inv_m(modulus_params_ac(d["a"], c), d["y"])), 1e-9),
        lo_limit=lambda d: INF, lo_probe=lambda d: d["a"] + 0.05)

    ph_cases = ((0.3, 0.3), (0.3, 0.7), (0.5, 0.5))
    # K capped at 5 here: the c -> a+ probe needs log(1/phi) ~ K (B/2)^2
    # worth of logit range and K=10 would push the solver past saturation
    # at the probe's b = 0.01.
    phidepc = functools.partial(
        CheckSpec, kind="monotone", **_cases(ph_cases, ("a", "r"), _dim("K", 2.0, 5.0)),
        arg_grid=GridSpec((GridDim("c", 0.52, 1.0, 17, "linear"),)),
        lo_probe=lambda d: d["a"] + 0.01)

    def phi_logit_c(degree):
        def fn(d, c):
            m = Modulus.from_r(d["r"])
            return p_logit(phi_k_m(modulus_params_ac(d["a"], c), degree(d), m)), 1e-9
        return fn

    yield phidepc(
        id="phidepc-k", direction=-1,
        claim="For a,r in (0,1), K>1: c -> phi_K^{a,c}(r) is strictly "
              "decreasing on (a,1] onto [phi_K^{a,1}(r), 1); checked in "
              "log-odds for K in {2,5}. The c->a+ divergence is probed at "
              "c=a+0.01 (K=10 would saturate the solver there); the closed "
              "end c=1 lies on the grid.",
        fn=phi_logit_c(_k), lo_limit=lambda d: INF)

    yield phidepc(
        id="phidepc-invk", direction=1,
        claim="For a,r in (0,1), K>1: c -> phi_{1/K}^{a,c}(r) is strictly "
              "increasing on (a,1] onto (0, phi_{1/K}^{a,1}(r)]; checked in "
              "log-odds for K in {2,5} with the c->a+ end (value -> 0) "
              "probed at c=a+0.01.",
        fn=phi_logit_c(_inv_k), lo_limit=lambda d: -INF)

    keb_cases = ((0.3, 0.4), (0.5, 0.7), (0.7, 0.2))
    thkeb = functools.partial(
        in_c, direction=-1, **_cases(keb_cases, ("a", "r")),
        arg_grid=GridSpec((GridDim("c", 0.75, 10.0, 33, "log"),)), hi_limit=lambda d: 0.0,
        lo_probe=lambda d: d["a"] + 1e-4, hi_probe=lambda d: 45.0, decay_factor=0.75)

    def keb(of_e):
        """c -> K - B/2, or with `of_e` B/2 - E, of (a, c-a, c) at the combo's r."""
        def fn(d, c):
            a = d["a"]
            p = EllipticParams(a, c - a, c)
            f = (ell_e if of_e else ell_k)(p, Modulus.from_r(d["r"]))
            hb = p.half_beta
            return (-1.0 if of_e else 1.0) * (f.value - hb), f.abs_err_est + 1e-14 * hb
        return fn

    yield thkeb(
        id="thkeb-f",
        claim="For a, r in (0,1): c -> K_{a,c-a,c}(r) - B(a,c-a)/2 is "
              "strictly decreasing on (a, infinity), with limit log(1/r') "
              "as c->a+ (probed at c=a+1e-4, tolerance 1e-3) and 0 as "
              "c->inf (c^(-a) rate; far probe at c=45 with decay 0.75).",
        fn=keb(False), lo_limit=lambda d: -math.log(math.sqrt(1.0 - d["r"] * d["r"])))

    def keb_g_limit(d):
        """(1/2) sum_{n>=1} z^n/(a+n-1) + log r' = (z/(2a)) F(1,a;a+1;z) + log r', z = r^2."""
        a, m = d["a"], Modulus.from_r(d["r"])
        f = hyp2f1_pair(HypParams(1.0, a, a + 1.0), m.z, m.z_comp).value
        return 0.5 * m.z / a * f + math.log(m.r_comp)

    yield thkeb(
        id="thkeb-g",
        claim="For a, r in (0,1): c -> B(a,c-a)/2 - E_{a,c-a,c}(r) is "
              "strictly decreasing on (a, infinity), with limit "
              "(1/2) sum_{n>=1} r^(2n)/(a+n-1) - log(1/r') = "
              "(r^2/(2a)) F(1,a;a+1;r^2) - log(1/r') as c->a+ "
              "(F summed by the 2F1 engine) and 0 as c->inf.",
        fn=keb(True), lo_limit=keb_g_limit)


# ---------------------------------------------------------------------------
# section: conjectures (non-gating)

def _conjectures():
    ac_cases = ((0.3, 0.8), (0.5, 0.9), (0.7, 0.95))
    conj = functools.partial(CheckSpec, kind="monotone", gating=False, arg_grid=R33,
                             lo_probe=lambda d: 1e-9)
    conj1 = functools.partial(
        conj, **_cases(tuple((a, c, c - a) for a, c in ac_cases), ("a", "c", "b")),
        hi_probe=lambda d: 1.0 - 1e-7)

    def over_m(root):
        """root(m)/M(r^2) at the modulus m = r."""
        def fn(d, r):
            m = Modulus.from_r(r)
            mv = _m_pair(d["a"], d["b"], d["c"], m.z, m.z_comp)
            v = root(m) / mv.value
            return v, abs(v) * (_rel(mv) + 1e-15)
        return fn

    yield conj1(
        id="conj-1a", direction=1,
        claim="Conjecture: for 0<a<c<1, b=c-a, sqrt(r)/M(r^2) is strictly "
              "increasing on (0,1) onto (0, B(a,b)).",
        fn=over_m(lambda m: math.exp(0.25 * m.log_z)),
        lo_limit=lambda d: 0.0, hi_limit=lambda d: 2.0 * _mp(d).half_beta,
        hi_attain=5e-3)

    yield conj1(
        id="conj-1b", direction=-1,
        claim="Conjecture: for 0<a<c<1, b=c-a, sqrt(r')/M(r^2) is strictly "
              "decreasing on (0,1) onto (0, B(a,b)).",
        fn=over_m(lambda m: math.exp(0.25 * math.log(m.z_comp))),
        lo_limit=lambda d: 2.0 * _mp(d).half_beta, hi_limit=lambda d: 0.0,
        lo_attain=5e-3)

    conj2 = functools.partial(conj, direction=-1, **_cases(ac_cases, ("a", "c"), _KDIM3),
                              hi_probe=lambda d: 1.0 - 1e-9)

    def with_m(expr):
        """expr(pe, m, s, M(r^2), M(s^2)) with s = phi_K(r)."""
        def of_phi(pe, m, s, d):
            b = d["c"] - d["a"]
            return expr(pe, m, s, *(_m_pair(d["a"], b, d["c"], x.z, x.z_comp) for x in (m, s)))
        return _phi_at(of_phi, at_r=True)

    def c2i(pe, m, s, mv_r, mv_s):
        v = (s.r * mv_r.value) / (m.r * mv_s.value)
        return v, abs(v) * (_rel(mv_r) + _rel(mv_s) + 1e-10)

    yield conj2(
        id="conj-2-i",
        claim="Conjecture: s M(r^2)/(r M(s^2)) with s=phi_K(r) is strictly "
              "decreasing on (0,1) onto (1, infinity).",
        fn=with_m(c2i), lo_limit=lambda d: INF, hi_limit=lambda d: 1.0, hi_attain=5e-3)

    yield conj2(
        id="conj-2-ii",
        claim="Conjecture: s' M(r^2)/(r' M(s^2)) is strictly decreasing on "
              "(0,1) onto (0,1); the r->1 end decays like r'^(K-1), judged "
              "by gap decay.",
        fn=with_m(_primed(c2i)), lo_limit=lambda d: 1.0, hi_limit=lambda d: 0.0, lo_attain=5e-3)

    def c2iii(pe, m, s, mv_r, mv_s):
        kr, ks = ell_k(pe, m), ell_k(pe, s)
        v = (kr.value * mv_r.value) / (ks.value * mv_s.value)
        return v, abs(v) * (_rel(kr) + _rel(ks) + _rel(mv_r) + _rel(mv_s) + 1e-10)

    yield conj2(
        id="conj-2-iii",
        claim="Conjecture: K(r) M(r^2)/(K(s) M(s^2)) is strictly decreasing "
              "on (0,1) onto (1/K, 1); 1/log upper endpoint, attainment "
              "0.05 with decay 0.6.",
        fn=with_m(c2iii), lo_limit=lambda d: 1.0, hi_limit=lambda d: 1.0 / d["K"],
        lo_attain=5e-3, hi_attain=0.05, decay_factor=0.6)

    yield conj2(
        id="conj-2-iv",
        claim="Conjecture: K'(r) M(r^2)/(K'(s) M(s^2)) is strictly "
              "decreasing on (0,1) onto (1, K); 1/log lower endpoint, "
              "attainment 0.12 with decay 0.6.",
        fn=with_m(_primed(c2iii)), lo_limit=lambda d: d["K"], hi_limit=lambda d: 1.0,
        lo_attain=0.12, hi_attain=5e-3, decay_factor=0.6)


# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=1)
def registry() -> dict:
    """Ordered mapping check id -> CheckSpec."""
    out = {}
    for builder in (_ekmonot, _hyper, _sqrtk, _logconvexke, _mutheorem,
                    _hyp_quotients, _mprop, _mextra, _mcorollary, _mfunctions,
                    _ktheo, _mufunc, _phiperr, _funcineq, _linconj,
                    _cdependence, _conjectures):
        for spec in builder():
            if spec.id in out:
                raise ValueError(f"duplicate check id {spec.id!r}")
            out[spec.id] = spec
    return out


def select(which) -> list:
    """Resolve a selector: 'all', 'conjectures', or an iterable of ids."""
    reg = registry()
    if isinstance(which, str):
        if which == "all":
            return list(reg.values())
        if which == "conjectures":
            return [s for s in reg.values() if not s.gating]
        which = [which]
    out = []
    for cid in which:
        if cid not in reg:
            raise KeyError(cid)
        out.append(reg[cid])
    return out
