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
from .legendre_m import _m_pair
from .result import EvalResult, Method, _finite, _part
from .scalar_special import _exp

_T_MAX = 700.0
_T_RANGE = f"[{-_T_MAX:g}, {_T_MAX:g}]"
_K_LO, _K_HI = 1e-3, 1e3
_MAX_EVALS = 200  # log-mu evaluations per solve
_LOG_MAX = math.log(sys.float_info.max)  # the largest x whose math.exp(x) is finite
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
    of mu; 0.0 (no guess) where the triple's table has none.

    mu = B/2 at t = 0 and mu(t) mu(-t) = (B/2)^2, so the root is -tau if
    the target exceeds B/2 and +tau if not, where mu(-tau) = (B/2) e^s,
    s = |log_target - log(B/2)|.  For tau large, F(r^2) -> 1, so tau is
    key.near_one_tau(s, log_hb): F(a,b;c;1-u) = e^s with u = r^2 ~ e^-tau.
    """
    x = log_target - log_hb
    tau = key.near_one_tau(abs(x), log_hb)
    if tau is None:
        return 0.0
    return -tau if x > 0.0 else tau


def _positive(key: _Triple, z: float, value: float) -> float:
    """value, a kernel's F(a,b;c;z) with a, b, c > 0, if positive (F >= 1 there);
    else a ConvergenceError: cancellation took every digit and the sign."""
    if not value > 0.0:
        raise ConvergenceError(f"F(a,b;c;z) lost its sign to cancellation at z={z!r} "
                               f"with (a,b,c)={key.abc!r}")
    return value


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
            num = _positive(key, zc, _kernel(key, zc, z)[0])
        except SaturationError:
            return math.inf
        try:
            den = _positive(key, z, _kernel(key, z, zc)[0])
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
    # F(r^2) overflows as r -> 1, where mu -> 0
    den = _part("mu", _eval_pair, key, m.z, m.z_comp, endpoint=0.0)
    value = hb * _positive(key, m.z_comp, num.value) / _positive(key, m.z, den.value)
    err = abs(value) * (num.abs_err_est / num.value + den.abs_err_est / den.value + 4e-15)
    if err == 0.0:  # mu -> 0 as r -> 1, and its bound has underflowed
        raise SaturationError(f"mu underflows at (a,b,c)=({p.a!r},{p.b!r},{p.c!r}), "
                              f"r={m.r!r}", endpoint=0.0)
    return _finite(value, err, num.method, "mu", p.a, p.b, p.c)


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
    # phi_K(r) tends to 1 as r -> 1 and to 0 as r -> 0
    mu_r = _part("phi_K", mu_m, p, m, endpoint=1.0 if m.z > m.z_comp else 0.0)
    log_target = math.log(mu_r.value) - math.log(k)
    return _modulus_from_t(_solve_log_mu(p.a, p.b, p.c, log_target))


def phi_k(p: ModulusParams, K, r: float) -> float:
    """phi_K(r) = mu^{-1}(mu(r)/K); K > 1 pushes toward 1, K < 1 toward 0."""
    return phi_k_m(p, K, Modulus.from_r(r)).r


def _mu_prime(p: ModulusParams, m: Modulus, what: str, value: float, rel: float,
              method: Method) -> EvalResult:
    """mu' = `value` < 0 at the pair m, as `what` computed it, with relative error `rel`;
    a DomainError below the normal floats, where a relative error says nothing."""
    if abs(value) < sys.float_info.min:
        raise DomainError(f"{what} is not representable: mu' underflows at "
                          f"(a,b,c)=({p.a!r},{p.b!r},{p.c!r}), r={m.r!r}")
    return _finite(value, abs(value) * rel, method, "d mu/dr", p.a, p.b, p.c)


def _mu_deriv_m(p: ModulusParams, m: Modulus) -> EvalResult:
    """d mu/dr at an exact interior pair m, M read at that pair; an M that
    cancels to 0, or an F, M or B past the float range, is a DomainError."""
    key = _Triple(p.a, p.b, p.c)
    v = _part("mu_deriv", _eval_pair, key, m.z, m.z_comp)
    M = _part("mu_deriv", _m_pair, p.a, p.b, p.c, m.z, m.z_comp)
    if M.value == 0.0:
        raise DomainError(f"mu_deriv is not representable: M cancels to 0 at "
                          f"(a,b,c)=({p.a!r},{p.b!r},{p.c!r}), z={m.z!r}")
    B = 2.0 * _part("mu_deriv", getattr, key, "half_beta")
    den = m.r * m.z_comp * v.value * v.value
    value = -B * M.value / den if den < math.inf else _exp(  # F^2 overflows: in logs
        math.log(B) + math.log(abs(M.value)) - math.log(m.r * m.z_comp)
        - 2.0 * math.log(v.value), -1, "d mu/dr", p.a, p.b, p.c)
    rel = (M.abs_err_est / abs(M.value) + 2.0 * v.abs_err_est / abs(v.value)
           + (5e-15 if den < math.inf else 1e-12))  # 1e-12: the four logs and their sum
    return _mu_prime(p, m, "mu_deriv", value, rel, M.method)


def mu_deriv(p: ModulusParams, r: float) -> EvalResult:
    """d mu/dr = -B(a,b) M(r^2) / (r r'^2 F(a,b;c;r^2)^2); negative throughout."""
    return _mu_deriv_m(p, _interior(Modulus.from_r(r), "mu_deriv"))


def _phi_deriv(p: ModulusParams, K, r: float, mu_deriv_m) -> EvalResult:
    """ds/dr for s = phi_K(r): the modular equation mu(s) = mu(r)/K gives
    ds/dr = mu'(r)/(K mu'(s)), with mu' = mu_deriv_m at the exact pairs r and
    s.  1e-12 relative is charged for the solver's error in s."""
    k = _as_degree(K)
    m = _interior(Modulus.from_r(r), "phi_deriv")
    dr = mu_deriv_m(p, m)  # before s: where mu(r) underflows, so does mu'(r)
    s = _part("phi_deriv", phi_k_m, p, k, m)  # phi_K's end, not phi_K''s
    if not 0.0 < s.z < 1.0:
        raise DomainError(f"phi_K(r) saturated to {s.r!r}; derivative not representable")
    ds = mu_deriv_m(p, s)
    value = dr.value / (k * ds.value)
    rel = dr.abs_err_est / abs(dr.value) + ds.abs_err_est / abs(ds.value) + 1e-12
    return _finite(value, abs(value) * rel, dr.method, "d phi_K/dr", p.a, p.b, p.c)


def phi_deriv(p: ModulusParams, K, r: float) -> EvalResult:
    """ds/dr for s = phi_K(r), mu'(r)/(K mu'(s)) by mu_deriv's form:

    ds/dr = (1/K) (M(r^2)/M(s^2)) (s s'^2 F(s^2)^2) / (r r'^2 F(r^2)^2)
    """
    return _phi_deriv(p, K, r, _mu_deriv_m)


def _require_power_case(p: ModulusParams) -> None:
    if abs(p.a + p.b + 1.0 - 2.0 * p.c) > 1e-12:
        raise ParameterError(
            f"closed form needs a+b+1 = 2c, got a+b+1-2c={p.a + p.b + 1 - 2 * p.c!r}")


def _mu_deriv_closed_m(p: ModulusParams, m: Modulus) -> EvalResult:
    """mu_deriv_closed at an exact interior pair m, in logs wherever 4D or the
    denominator leaves the normal floats; a B/2 or F past them is a DomainError."""
    key = _Triple(p.a, p.b, p.c)
    (la, _), (lb, _), (lc, _), (lab, _) = map(key.lngamma, (p.a, p.b, p.c, p.a + p.b))
    log_4d = 2.0 * (la + lb + lc) - 3.0 * lab
    Kr = _part("mu_deriv_closed", getattr, key, "half_beta") \
        * _part("mu_deriv_closed", _eval_pair, key, m.z, m.z_comp).value
    den = m.r ** (2.0 * p.c - 1.0) * m.z_comp ** p.c * Kr * Kr
    if log_4d <= _LOG_MAX and sys.float_info.min <= den < math.inf:
        value = -(math.exp(log_4d) / 4.0) / den
    else:  # in logs, where 4 K(r)^2 too overflows for K(r) past 6.7e153
        kk = 4.0 * Kr * Kr
        log_kk = math.log(kk) if kk < math.inf else 2.0 * math.log(2.0 * Kr)
        value = _exp(log_4d - log_kk - (2.0 * p.c - 1.0) * math.log(m.r)
                     - p.c * math.log(m.z_comp), -1, "d mu/dr", p.a, p.b, p.c)
    return _mu_prime(p, m, "mu_deriv_closed", value, 1e-12, Method.CLOSED_FORM)


def mu_deriv_closed(p: ModulusParams, r: float) -> EvalResult:
    """For a+b+1 = 2c:  d mu/dr = -D / (r^(2c-1) r'^(2c) K(r)^2)
    with D = (Gamma(a)Gamma(b)Gamma(c))^2 / (4 Gamma(a+b)^3)."""
    _require_power_case(p)
    return _mu_deriv_closed_m(p, _interior(Modulus.from_r(r), "mu_deriv_closed"))


def phi_deriv_closed(p: ModulusParams, K, r: float) -> EvalResult:
    """For a+b+1 = 2c, mu'(r)/(K mu'(s)) by mu_deriv_closed's form:
    ds/dr = (1/K)(s/r)^(2c-1)(s'/r')^(2c)(K(s)/K(r))^2."""
    _require_power_case(p)
    return _phi_deriv(p, K, r, _mu_deriv_closed_m)


def q_modulus(x: float) -> Modulus:
    """q(x) = sqrt(e^x/(e^x+1)) as an exact pair; inverse of p_logit."""
    return _modulus_from_t(checked("x", x, _T_RANGE))


def p_logit(m: Modulus) -> float:
    """p(r) = 2 log(r/r') = log(r^2) - log(r'^2), exact on extreme pairs."""
    return _interior(m, "p").log_z - m.log_z_comp


def phi_logodds(p: ModulusParams, K, x: float) -> float:
    """p(phi_K(q(x))): the modular function conjugated to log-odds coordinates."""
    return p_logit(phi_k_m(p, K, q_modulus(x)))
