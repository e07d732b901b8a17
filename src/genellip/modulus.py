"""Generalized modulus, its inverse, and the modular function.

    mu(r) = (B(a,b)/2) F(a,b;c;r'^2) / F(a,b;c;r^2),

a strictly decreasing homeomorphism of (0,1) onto (0,infinity); the modular
function phi_K(r) = mu^{-1}(mu(r)/K) solves the modular equation
mu(s) = p mu(r) of degree p = 1/K.  For (a,b,c) = (1/2,1/2,1), mu is the
Groetzsch ring modulus (pi/2) K'(r)/K(r), and phi_K is the Hersch-Pfluger
distortion function.

The inverse is found by a bracketed secant/bisection hybrid driven in the
variables t = log(r^2/r'^2) (so that both endpoints stretch to infinity)
and log(mu) (uniform conditioning across decades).  The bracket is a pair
of neighbouring rungs of the ladder t = +-2, 4, 8, ..., 512, 700, found by
walking it from the rung next to where the asymptotes of mu at r -> 0 and
r -> 1 place the root.  Computed log mu is monotone along the ladder, so
every start gives the same bracket, iterates and result.  Each step reads
its two F values from the uncached 2F1 kernel: a solve fills no cache
entry.  The solution is kept as the exact pair (r^2, r'^2): the float r
alone would round to 0 or 1 long before mu exhausts its range, so the
pair-returning variants are the precise API and the float-returning ones
are projections.
"""

from __future__ import annotations

import bisect
import functools
import math
import sys
from dataclasses import dataclass

from .elliptic import Modulus, _interior
from .errors import ConvergenceError, DomainError, ParameterError, SaturationError, checked
from .hypergeom import HypParams, _eval_pair, _kernel, _Triple
from .legendre_m import MPoint, _finite, m_value
from .result import EvalResult, Method
from .scalar_special import _exp

_T_MAX = 700.0
_T_RANGE = f"[{-_T_MAX:g}, {_T_MAX:g}]"
_K_LO, _K_HI = 1e-3, 1e3
_MAX_EVALS = 200  # log-mu evaluations per solve
# The rungs the solver brackets its root between: -700, -512, ..., -2, 2, ..., 512, 700.
_LADDER = tuple(sorted(s * min(2.0 ** k, _T_MAX) for s in (-1.0, 1.0) for k in range(1, 11)))


class ModulusParams(HypParams):
    """Parameters (a,b,c) in (0, 50] with a+b >= c (the mu domain)."""

    def _relate(self):
        if self.a + self.b < self.c:
            raise ParameterError(
                f"mu needs a+b >= c, got a+b={self.a + self.b!r}, c={self.c!r}")


def modulus_params_ac(a: float, c: float) -> ModulusParams:
    """The two-parameter family mu_{a,c} = mu_{a,c-a,c}; needs 0 < a < c."""
    a = checked("a", a, "(0, inf)", ParameterError)
    c = checked("c", c, "(0, inf)", ParameterError)
    if not a < c:
        raise ParameterError(f"need 0 < a < c, got a={a!r}, c={c!r}")
    return ModulusParams(a, c - a, c)


@dataclass(frozen=True)
class DegreeK:
    """Degree parameter of the modular equation; p = 1/K is the degree."""

    K: float

    def __post_init__(self):
        object.__setattr__(self, "K", checked("K", self.K, "(0, inf)", ParameterError))


def _as_degree(K) -> float:
    return K.K if isinstance(K, DegreeK) else checked("K", K, "(0, inf)", ParameterError)


def _sigmoid(t: float) -> float:
    if t >= 0.0:
        return 1.0 / (1.0 + math.exp(-t))
    e = math.exp(t)
    return e / (1.0 + e)


def _modulus_from_t(t: float) -> Modulus:
    """The modulus at t = log(r^2/r'^2), a valid pair by construction."""
    z = _sigmoid(t)
    zc = _sigmoid(-t)
    r = math.sqrt(z) if z > 0.0 else math.exp(0.5 * t)
    rc = math.sqrt(zc) if zc > 0.0 else math.exp(-0.5 * t)
    return Modulus._pair(r, rc)


def _guess_t(key: _Triple, log_hb: float, log_target: float) -> float:
    """Where g(t) = log mu(t) - log_target has its root, by the asymptotes
    of mu; 0.0 (no guess) where they are not used.

    mu = B/2 at t = 0 and mu(t) mu(-t) = (B/2)^2, so the root is -tau if
    the target exceeds B/2 and +tau if not, where mu(-tau) = (B/2) e^s,
    s = |log_target - log(B/2)|.  For tau large, F(r^2) -> 1, so
    F(a,b;c;1-u) = e^s with u = r^2 ~ e^-tau, and to leading order
        c = a+b:  F(1-u) ~ (R(a,b) - log u) / B(a,b)   (A&S 15.3.10),
        c < a+b:  F(1-u) ~ C1 + C2 u^(c-a-b)            (A&S 15.3.6).
    The constants are those _eval_pair reads on the same route, so the
    triple's table computes them once for the guess and the evaluations;
    where key.route is neither the zero-balanced nor the connection route
    (the Gamma factors have poles near an integer c-a-b), there is no
    guess.  Every exp is clamped, so the guess never raises.
    """
    a, b, c = key.abc
    x = log_target - log_hb
    s = abs(x)
    if key.route == "zero_balanced":
        tau = 2.0 * math.exp(min(log_hb + s, 700.0)) - key.zero_balanced[0]
    elif key.route == "connection":
        c1, c2, _, _ = key.connection
        w = c1 * math.exp(-s)
        if not w < 1.0:
            return 0.0
        tau = (s + math.log1p(-w) - math.log(c2)) / -(c - a - b)
    else:
        return 0.0
    return -tau if x > 0.0 else tau


@functools.lru_cache(maxsize=1 << 16)
def _solve_log_mu(a: float, b: float, c: float, log_target: float) -> float:
    """Return t = log(s^2/s'^2) with log mu(s) = log_target.

    g(t) = log mu - log_target is strictly decreasing; bracket it between
    two neighbouring rungs of _LADDER, walking from the rung next to
    _guess_t's value toward the root, then a secant/bisection hybrid.  The
    triple and log(B/2) are built once, so every evaluation shares them,
    and g reads F from _kernel, which neither caches nor wraps its values.
    """
    key = _Triple(a, b, c)
    log_hb = math.log(key.half_beta)

    def g(t: float) -> float:
        # F(r'^2) or F(r^2) past the float range puts mu at +inf or 0: an
        # infinite g is still a valid bracket end, and the secant step then
        # falls back to bisection.
        z, zc = _sigmoid(t), _sigmoid(-t)
        try:
            num = _kernel(key, zc, z)[0]
        except SaturationError:
            return math.inf
        try:
            den = _kernel(key, z, zc)[0]
        except SaturationError:
            return -math.inf
        return log_hb + math.log(num) - math.log(den) - log_target

    # Walk the ladder from the rung next to the guess on the side of t = 0
    # (-2 without a guess) toward the root until g changes sign; _MAX_EVALS
    # counts these evaluations too.
    guess = _guess_t(key, log_hb, log_target)
    mid = len(_LADDER) // 2
    i = (max(bisect.bisect_right(_LADDER, guess) - 1, mid) if guess > 0.0
         else min(bisect.bisect_left(_LADDER, guess), mid - 1))
    t1 = _LADDER[i]
    g1 = g(t1)
    evals = 1
    step = 1 if g1 > 0.0 else -1
    t0, g0 = t1, g1
    while g1 * step > 0.0:
        i += step
        if i < 0:
            raise SaturationError(
                f"target mu={math.exp(log_target)!r} exceeds the value "
                f"attainable at the smallest representable modulus", endpoint=0.0)
        if i == len(_LADDER):
            raise SaturationError(
                f"target mu={math.exp(log_target)!r} is below the value "
                f"attainable at the largest representable modulus", endpoint=1.0)
        t0, g0 = t1, g1
        t1 = _LADDER[i]
        g1 = g(t1)
        evals += 1
    if g1 == 0.0:  # g0 has the sign of step, so only the walk's last value can be 0
        return t1
    lo, glo, hi, ghi = (t0, g0, t1, g1) if step > 0 else (t1, g1, t0, g0)
    t0, g0 = lo, glo
    t1, g1 = hi, ghi
    while evals < _MAX_EVALS:
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
        if abs(g2) <= 1e-13 * (1.0 + abs(log_target)):
            return t2
        if hi - lo <= 4e-16 * max(1.0, abs(t2)):
            # A bracket that closes on an infinite g closed on the edge of
            # the float range, not on a root: the target lies past the mu
            # that F can still be computed for.
            if glo == math.inf:
                raise SaturationError(
                    f"target mu={math.exp(log_target)!r} exceeds the largest "
                    f"mu computable in floating point", endpoint=0.0)
            if ghi == -math.inf:
                raise SaturationError(
                    f"target mu={math.exp(log_target)!r} is below the smallest "
                    f"mu computable in floating point", endpoint=1.0)
            return t2
    if abs(g1) <= 1e-12:
        return t1
    raise ConvergenceError(
        f"mu inversion did not reach tolerance within {_MAX_EVALS} evaluations "
        f"(residual {g1!r} in log mu)")


def mu_m(p: ModulusParams, m: Modulus) -> EvalResult:
    """mu at a modulus carried as an exact (r, r') pair."""
    _interior(m, "mu")
    key = _Triple(p.a, p.b, p.c)
    hb = key.half_beta
    num = _eval_pair(key, m.z_comp, m.z)
    den = _eval_pair(key, m.z, m.z_comp)
    value = hb * num.value / den.value
    rel = (num.abs_err_est / abs(num.value) + den.abs_err_est / abs(den.value) + 4e-15)
    return _finite(value, abs(value) * rel, num.method, "mu", p.a, p.b, p.c)


def mu(p: ModulusParams, r: float) -> EvalResult:
    """The generalized modulus; strictly decreasing from (0,1) onto (0,oo)."""
    return mu_m(p, Modulus.from_r(r))


def mu_inv_m(p: ModulusParams, y: float) -> Modulus:
    """Inverse modulus as an exact pair.

    The solver stops at the first of: |log mu(result) - log y| <=
    1e-13 (1 + |log y|); a bracket in t = log(r^2/r'^2) a few ulps wide;
    or, once the evaluation budget is spent, a residual in log mu of at
    most 1e-12 (else ConvergenceError).  The relative error of mu(result)
    can therefore exceed 1e-13 when |log y| is large or the bracket closes
    first.  A bracket that closes where F leaves the float range, short of
    that residual, raises SaturationError: y lies past every computable mu.
    """
    t = _solve_log_mu(p.a, p.b, p.c, math.log(checked("y", y, "(0, inf)")))
    return _modulus_from_t(t)


def mu_inv(p: ModulusParams, y: float) -> float:
    """Inverse modulus as a float in (0,1); see mu_inv_m for the exact pair."""
    return mu_inv_m(p, y).r


def phi_k_m(p: ModulusParams, K, m: Modulus) -> Modulus:
    """phi_K at an exact pair, returned as an exact pair."""
    k = _as_degree(K)
    if not _K_LO <= k <= _K_HI:
        raise SaturationError(
            f"K={k!r} outside [{_K_LO}, {_K_HI}]: phi_K saturates numerically",
            endpoint=1.0 if k > 1.0 else 0.0)
    if k == 1.0:
        return _interior(m, "phi_K")
    log_target = math.log(mu_m(p, m).value) - math.log(k)
    return _modulus_from_t(_solve_log_mu(p.a, p.b, p.c, log_target))


def phi_k(p: ModulusParams, K, r: float) -> float:
    """phi_K(r) = mu^{-1}(mu(r)/K); K > 1 pushes toward 1, K < 1 toward 0."""
    return phi_k_m(p, K, Modulus.from_r(r)).r


def _m_divisor(p: ModulusParams, z: float, what: str) -> EvalResult:
    """M(a,b,c; z) for the derivative `what`, whose error is relative to it:
    DomainError if it cancels to 0."""
    M = m_value(MPoint(p.a, p.b, p.c, z))
    if M.value == 0.0:
        raise DomainError(f"{what} is not representable: M cancels to 0 at "
                          f"(a,b,c)=({p.a!r},{p.b!r},{p.c!r}), z={z!r}")
    return M


def mu_deriv(p: ModulusParams, r: float) -> EvalResult:
    """d mu/dr = -B(a,b) M(r^2) / (r r'^2 F(a,b;c;r^2)^2); negative throughout."""
    m = _interior(Modulus.from_r(r), "mu_deriv")
    key = _Triple(p.a, p.b, p.c)
    v = _eval_pair(key, m.z, m.z_comp)
    M = _m_divisor(p, m.z, "mu_deriv")
    B = 2.0 * key.half_beta
    value = -B * M.value / (m.r * m.z_comp * v.value * v.value)
    rel = (M.abs_err_est / abs(M.value) + 2.0 * v.abs_err_est / abs(v.value) + 5e-15)
    return _finite(value, abs(value) * rel, M.method, "d mu/dr", p.a, p.b, p.c)


def _phi_at(p: ModulusParams, K, r: float):
    """What both derivatives of phi_K start from: the degree k, the moduli
    r and s = phi_K(r) as exact pairs, and F(a,b;c;.) at r^2 and at s^2."""
    k = _as_degree(K)
    m = Modulus.from_r(r)
    s = phi_k_m(p, k, m)
    if not 0.0 < s.z < 1.0:
        raise DomainError(f"phi_K(r) saturated to {s.r!r}; derivative not representable")
    key = _Triple(p.a, p.b, p.c)
    return k, m, s, _eval_pair(key, m.z, m.z_comp), _eval_pair(key, s.z, s.z_comp)


def phi_deriv(p: ModulusParams, K, r: float) -> EvalResult:
    """ds/dr for s = phi_K(r):

    ds/dr = (1/K) (M(r^2)/M(s^2)) (s s'^2 F(s^2)^2) / (r r'^2 F(r^2)^2)
    """
    k, m, s, vr, vs = _phi_at(p, K, r)
    Mr = _m_divisor(p, m.z, "phi_deriv")
    Ms = _m_divisor(p, s.z, "phi_deriv")
    value = (Mr.value / Ms.value) * (s.r * s.z_comp * vs.value * vs.value) \
        / (k * m.r * m.z_comp * vr.value * vr.value)
    rel = (Mr.abs_err_est / abs(Mr.value) + Ms.abs_err_est / abs(Ms.value)
           + 2.0 * vs.abs_err_est / abs(vs.value) + 2.0 * vr.abs_err_est / abs(vr.value)
           + 1e-12)
    return _finite(value, abs(value) * rel, Mr.method, "d phi_K/dr", p.a, p.b, p.c)


def _require_power_case(p: ModulusParams) -> None:
    if abs(p.a + p.b + 1.0 - 2.0 * p.c) > 1e-12:
        raise ParameterError(
            f"closed form needs a+b+1 = 2c, got a+b+1-2c={p.a + p.b + 1 - 2 * p.c!r}")


def mu_deriv_closed(p: ModulusParams, r: float) -> EvalResult:
    """For a+b+1 = 2c:  d mu/dr = -D / (r^(2c-1) r'^(2c) K(r)^2)
    with D = (Gamma(a)Gamma(b)Gamma(c))^2 / (4 Gamma(a+b)^3)."""
    _require_power_case(p)
    m = _interior(Modulus.from_r(r), "mu_deriv_closed")
    key = _Triple(p.a, p.b, p.c)
    (la, _), (lb, _), (lc, _), (lab, _) = map(key.lngamma, (p.a, p.b, p.c, p.a + p.b))
    log_4d = 2.0 * (la + lb + lc) - 3.0 * lab
    try:
        D = math.exp(log_4d) / 4.0
    except OverflowError:
        raise DomainError(f"the closed form is not representable: D exceeds the float "
                          f"range at (a,b,c)=({p.a!r},{p.b!r},{p.c!r})") from None
    Kr = key.half_beta * _eval_pair(key, m.z, m.z_comp).value
    den = m.r ** (2.0 * p.c - 1.0) * m.z_comp ** p.c * Kr * Kr
    value = -D / den if den >= sys.float_info.min else _exp(  # den underflows: in logs
        log_4d - math.log(4.0 * Kr * Kr) - (2.0 * p.c - 1.0) * math.log(m.r)
        - p.c * math.log(m.z_comp), -1, "d mu/dr", p.a, p.b, p.c)
    return _finite(value, abs(value) * 1e-12, Method.CLOSED_FORM, "d mu/dr", p.a, p.b, p.c)


def phi_deriv_closed(p: ModulusParams, K, r: float) -> EvalResult:
    """For a+b+1 = 2c:  ds/dr = (1/K)(s/r)^(2c-1)(s'/r')^(2c)(K(s)/K(r))^2."""
    _require_power_case(p)
    k, m, s, Fr, Fs = _phi_at(p, K, r)
    value = (s.r / m.r) ** (2.0 * p.c - 1.0) * (s.z_comp / m.z_comp) ** p.c \
        * (Fs.value / Fr.value) ** 2 / k
    return _finite(value, abs(value) * 1e-12, Method.CLOSED_FORM, "d phi_K/dr", p.a, p.b, p.c)


def q_modulus(x: float) -> Modulus:
    """q(x) = sqrt(e^x/(e^x+1)) as an exact pair; inverse of p_logit."""
    return _modulus_from_t(checked("x", x, _T_RANGE))


def p_logit(m: Modulus) -> float:
    """p(r) = 2 log(r/r') = log(r^2) - log(r'^2), exact on extreme pairs."""
    _interior(m, "p")
    if m.z_comp < 0.5:
        return math.log1p(-m.z_comp) - math.log(m.z_comp)
    return math.log(m.z) - math.log1p(-m.z)


def phi_logodds(p: ModulusParams, K, x: float) -> float:
    """p(phi_K(q(x))): the modular function conjugated to log-odds coordinates."""
    return p_logit(phi_k_m(p, K, q_modulus(x)))
