"""The Legendre M-function

    M(a,b,c,z) = (c-a)(u v1 + u1 v) + (2(a-c)+b) v v1,

where v(z) = F(a,b;c;z), u(z) = F(a-1,b;c;z), and the subscript-1 forms
are evaluated at 1-z.  M generalizes the Legendre relation

    E K' + E' K - K K' = pi/2

(the case (1/2,1/2,1), where M is the constant 1/pi).  Provided here:
the contiguous-form value, the elliptic-product form, the derivative in z,
and the scaled combination (z(1-z))^(a+b-c) M(z) evaluated without
endpoint blow-up, with its endpoint limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import EllipticParams, Modulus, _interior, ell_e, ell_e_comp, ell_k, \
    ell_k_comp
from .errors import DomainError, ParameterError, SaturationError, _Params, checked
from .hypergeom import _eval_pair, _Triple
from .result import EvalResult, Method
from .scalar_special import _exp, beta

_CLOSED_TOL = 1e-12
_ENDPOINT_SWITCH = 0.05


@dataclass(frozen=True, init=False)
class MPoint(_Params):
    """Parameters (a,b,c) in (0, 50] and an argument z strictly inside (0,1)."""

    z: float

    def __init__(self, a: float, b: float, c: float, z: float):
        super().__init__(a, b, c)
        self.__dict__["z"] = checked("z", z, "(0, 1)")


def _finite(value: float, err: float, method: Method, what: str, a, b, c) -> EvalResult:
    """The result `what` at (a, b, c) of an M-family or modulus function:
    SaturationError if its value overflowed, DomainError if its value or
    its error bound is NaN or its bound is infinite."""
    if math.isinf(value):
        raise SaturationError(f"{what} exceeds the float range at (a,b,c)=({a!r},{b!r},{c!r})",
                              endpoint=value)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"{what} is not representable at (a,b,c)=({a!r},{b!r},{c!r})")
    return EvalResult(value, err, method)


def _four_f(a: float, b: float, c: float, z: float, zc: float):
    """u, v at z and at its complement; the complement is passed exactly."""
    kv, ku = _Triple(a, b, c), _Triple(a - 1.0, b, c)
    v = _eval_pair(kv, z, zc)
    u = _eval_pair(ku, z, zc)
    v1 = _eval_pair(kv, zc, z)
    u1 = _eval_pair(ku, zc, z)
    return u, v, u1, v1


def _m_from_parts(a, b, c, u, v, u1, v1) -> EvalResult:
    t1 = u.value * v1.value
    t2 = u1.value * v.value
    t3 = v.value * v1.value
    value = (c - a) * (t1 + t2) + (2.0 * (a - c) + b) * t3
    err = (abs(c - a) * (abs(t1) + abs(t2)) + abs(2.0 * (a - c) + b) * abs(t3)) * 3e-15
    err += abs(c - a) * (u.abs_err_est * abs(v1.value) + abs(u.value) * v1.abs_err_est
                         + u1.abs_err_est * abs(v.value) + abs(u1.value) * v.abs_err_est)
    err += abs(2.0 * (a - c) + b) * (v.abs_err_est * abs(v1.value)
                                     + abs(v.value) * v1.abs_err_est)
    method = Method.TRANSFORM_NEAR_ONE if Method.TRANSFORM_NEAR_ONE in (
        u.method, v.method, u1.method, v1.method) else Method.SERIES
    return _finite(value, err, method, "M", a, b, c)


def m_value(pt: MPoint) -> EvalResult:
    """M by the contiguous form; switches to the factored route when the
    argument is near an endpoint and a+b>c would make M blow up there."""
    a, b, c, z = pt.a, pt.b, pt.c, pt.z
    zc = 1.0 - z
    d = a + b - c
    if d > _CLOSED_TOL and min(z, zc) < _ENDPOINT_SWITCH:
        scaled = _m_scaled_pair(a, b, c, z, zc)
        w = _exp(-d * (math.log(z) + math.log(zc)), 1, "M", a, b, c, z)
        return _finite(w * scaled.value, w * scaled.abs_err_est, scaled.method, "M", a, b, c)
    u, v, u1, v1 = _four_f(a, b, c, z, zc)
    return _m_from_parts(a, b, c, u, v, u1, v1)


def m_value_elliptic(p: EllipticParams, m: Modulus) -> EvalResult:
    """M(r^2) recovered from elliptic-integral products:

    (B/2)^2 M(r^2) = (a+b-c) K K' + (c-a)(K E' + K' E - K K')
    """
    checked("r", m.r, "(0, 1)")
    _interior(m, "m_value_elliptic")
    a, b, c = p.a, p.b, p.c
    K = ell_k(p, m)
    Kp = ell_k_comp(p, m)
    E = ell_e(p, m)
    Ep = ell_e_comp(p, m)
    kk = K.value * Kp.value
    cross = K.value * Ep.value + Kp.value * E.value
    raw = (a + b - c) * kk + (c - a) * (cross - kk)
    hb = p.half_beta
    value = raw / (hb * hb)
    err = (abs(a + b - c) * abs(kk) + abs(c - a) * (abs(cross) + abs(kk))) * 4e-15 / (hb * hb)
    err += (abs(a + b - c) + abs(c - a)) * (
        K.abs_err_est * abs(Kp.value) + abs(K.value) * Kp.abs_err_est
        + K.abs_err_est * abs(Ep.value) + abs(Kp.value) * E.abs_err_est
        + abs(K.value) * Ep.abs_err_est + Kp.abs_err_est * abs(E.value)) / (hb * hb)
    return _finite(value, err, K.method, "M", a, b, c)


def _m_scaled_pair(a: float, b: float, c: float, z: float, zc: float) -> EvalResult:
    """(z(1-z))^(a+b-c) M(z), stable at both endpoints.

    Euler transformation pulls the endpoint power out of the complement-side
    factors: v(1-z) = z^(c-a-b) V(z), u(1-z) = z^(c-a-b+1) U(z) with
    V = F(c-a,c-b;c;1-z) and U = F(c-a+1,c-b;c;1-z), giving

    (z(1-z))^(a+b-c) M = (1-z)^(a+b-c) [ (c-a)(u V + z v U) + (2(a-c)+b) v V ].

    For z > 1/2 the symmetry M(z) = M(1-z) is applied first.
    """
    if zc < z:
        z, zc = zc, z
    v = _eval_pair(_Triple(a, b, c), z, zc)
    u = _eval_pair(_Triple(a - 1.0, b, c), z, zc)
    V = _eval_pair(_Triple(c - a, c - b, c), zc, z)
    U = _eval_pair(_Triple(c - a + 1.0, c - b, c), zc, z)
    t1 = u.value * V.value
    t2 = z * v.value * U.value
    t3 = v.value * V.value
    g = (c - a) * (t1 + t2) + (2.0 * (a - c) + b) * t3
    w = math.exp((a + b - c) * math.log(zc))
    value = w * g
    err = w * ((abs(c - a) * (abs(t1) + abs(t2)) + abs(2.0 * (a - c) + b) * abs(t3)) * 4e-15
               + abs(c - a) * (u.abs_err_est * abs(V.value) + abs(u.value) * V.abs_err_est
                               + z * (v.abs_err_est * abs(U.value)
                                      + abs(v.value) * U.abs_err_est))
               + abs(2.0 * (a - c) + b) * (v.abs_err_est * abs(V.value)
                                           + abs(v.value) * V.abs_err_est))
    return _finite(value, err, Method.TRANSFORM_NEAR_ONE, "(z(1-z))^(a+b-c) M", a, b, c)


def m_scaled(pt: MPoint) -> EvalResult:
    """(z(1-z))^(a+b-c) M(z); bounded on (0,1) whenever a+b >= c."""
    return _m_scaled_pair(pt.a, pt.b, pt.c, pt.z, 1.0 - pt.z)


def m_deriv(pt: MPoint) -> EvalResult:
    """dM/dz by the closed form

    M'(z) = (1/(z(1-z))) ( (c-a)[(1-c+(a+b-1)z) u v1
            + (c-a-b+(a+b-1)z) u1 v] + (1-2z)[(c-a)(a+2b-1)-b^2] v v1 ).
    """
    a, b, c, z = pt.a, pt.b, pt.c, pt.z
    zc = 1.0 - z
    u, v, u1, v1 = _four_f(a, b, c, z, zc)
    s = a + b - 1.0
    t1 = (1.0 - c + s * z) * u.value * v1.value
    t2 = (c - a - b + s * z) * u1.value * v.value
    t3 = (1.0 - 2.0 * z) * ((c - a) * (a + 2.0 * b - 1.0) - b * b) * v.value * v1.value
    value = ((c - a) * (t1 + t2) + t3) / (z * zc)
    err = ((abs(c - a) * (abs(t1) + abs(t2)) + abs(t3)) * 5e-15
           + abs(c - a) * (abs(1.0 - c + s * z) * (u.abs_err_est * abs(v1.value)
                                                   + abs(u.value) * v1.abs_err_est)
                           + abs(c - a - b + s * z) * (u1.abs_err_est * abs(v.value)
                                                       + abs(u1.value) * v.abs_err_est))
           ) / (z * zc)
    return _finite(value, err, Method.SERIES, "dM/dz", a, b, c)


def m_scaled_limit(a: float, b: float, c: float) -> float:
    """Endpoint limit of (z(1-z))^(a+b-c) M(z) as z -> 0 when a+b > c:

    (a+b-c) B(c, a+b-c) / B(a, b)
    """
    p = _Params(a, b, c)
    d = p.a + p.b - p.c
    if d <= 0.0:
        raise ParameterError(f"limit formula needs a+b > c, got {d!r}")
    return d * beta(p.c, d).value / (2.0 * _Triple(p.a, p.b, p.c).half_beta)
