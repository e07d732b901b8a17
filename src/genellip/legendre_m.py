"""The Legendre M-function

    M(a,b,c,z) = (c-a)(u v1 + u1 v) + (2(a-c)+b) v v1,

where v(z) = F(a,b;c;z), u(z) = F(a-1,b;c;z), and the subscript-1 forms
are evaluated at 1-z.  M generalizes the Legendre relation

    E K' + E' K - K K' = pi/2

(the case (1/2,1/2,1), where M is the constant 1/pi).  Provided here:
the contiguous-form value, the elliptic-product form, the derivative in z,
and the scaled combination (z(1-z))^(a+b-c) M(z) evaluated without
endpoint blow-up, with its endpoint limit.  M and dM/dz are one bilinear form
in u, v, u1, v1 (`_f_values`) with other coefficients, and the elliptic-product
form is M's with E, K, E', K' in their place; `_legendre_form` combines them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .elliptic import EllipticParams, Modulus, _interior, ell_e, ell_e_comp, ell_k, \
    ell_k_comp
from .errors import ParameterError, _Params, checked
from .hypergeom import _eval_pair, _Triple
from .result import EvalResult, Method, _finite, _part
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


def _f_values(a, b, c, z, zc):
    """v, u, v1, u1 of the M-family: F(a,b;c;.) and F(a-1,b;c;.) at z, then both at 1-z."""
    kv, ku = _Triple(a, b, c), _Triple(a - 1.0, b, c)
    return _eval_pair(kv, z, zc), _eval_pair(ku, z, zc), _eval_pair(kv, zc, z), \
        _eval_pair(ku, zc, z)


def _legendre_form(c_a, k1, k2, k3, rounding, v, u, v1, u1):
    """c_a (k1 u v1 + k2 u1 v) + k3 v v1 from four EvalResults: its value, its error
    (`rounding` per unit of |term|) and method (TRANSFORM_NEAR_ONE if any value has it)."""
    t1 = k1 * u.value * v1.value
    t2 = k2 * u1.value * v.value
    t3 = v.value * v1.value
    value = c_a * (t1 + t2) + k3 * t3
    c_a, k1, k2, k3 = abs(c_a), abs(k1), abs(k2), abs(k3)
    err = rounding * (c_a * (abs(t1) + abs(t2)) + k3 * abs(t3))
    err += c_a * (k1 * u.abs_err_est * abs(v1.value) + k1 * abs(u.value) * v1.abs_err_est
                  + k2 * u1.abs_err_est * abs(v.value) + k2 * abs(u1.value) * v.abs_err_est)
    err += k3 * (v.abs_err_est * abs(v1.value) + abs(v.value) * v1.abs_err_est)
    method = Method.TRANSFORM_NEAR_ONE if Method.TRANSFORM_NEAR_ONE in (
        u.method, v.method, u1.method, v1.method) else Method.SERIES
    return value, err, method


def m_value(pt: MPoint) -> EvalResult:
    """M by the contiguous form; switches to the factored route when the
    argument is near an endpoint and a+b>c would make M blow up there."""
    return _m_pair(pt.a, pt.b, pt.c, pt.z, 1.0 - pt.z)


def _m_pair(a: float, b: float, c: float, z: float, zc: float) -> EvalResult:
    """m_value at the exact pair (z, zc = 1-z), both in (0, 1)."""
    d = a + b - c
    if d > _CLOSED_TOL and min(z, zc) < _ENDPOINT_SWITCH:
        scaled = _m_scaled_pair(a, b, c, z, zc)
        w = _exp(-d * (math.log(z) + math.log(zc)), 1, "M", a, b, c, z)
        return _finite(w * scaled.value, w * scaled.abs_err_est, scaled.method, "M", a, b, c)
    value, err, method = _legendre_form(c - a, 1.0, 1.0, 2.0 * (a - c) + b, 3e-15,
                                        *_f_values(a, b, c, z, zc))
    return _finite(value, err, method, "M", a, b, c)


def m_value_elliptic(p: EllipticParams, m: Modulus) -> EvalResult:
    """M(r^2) from M's form with K, E, K', E' in place of v, u, v1, u1:

    (B/2)^2 M(r^2) = (a+b-c) K K' + (c-a)(K E' + K' E - K K')
    """
    _interior(m, "m_value_elliptic")
    a, b, c = p.a, p.b, p.c
    value, err, method = _legendre_form(c - a, 1.0, 1.0, 2.0 * (a - c) + b, 4e-15, ell_k(p, m),
                                        ell_e(p, m), ell_k_comp(p, m), ell_e_comp(p, m))
    hb2 = p.half_beta * p.half_beta
    return _finite(value / hb2, err / hb2, method, "M", a, b, c)


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
    return _m_deriv_pair(pt.a, pt.b, pt.c, pt.z, 1.0 - pt.z)


def _m_deriv_pair(a: float, b: float, c: float, z: float, zc: float) -> EvalResult:
    """m_deriv at the exact pair (z, zc = 1-z), both in (0, 1)."""
    s = a + b - 1.0
    value, err, method = _legendre_form(
        c - a, 1.0 - c + s * z, c - a - b + s * z,
        (1.0 - 2.0 * z) * ((c - a) * (a + 2.0 * b - 1.0) - b * b), 5e-15,
        *_part("m_deriv", _f_values, a, b, c, z, zc))  # an F's end is not dM/dz's
    return _finite(value / (z * zc), err / (z * zc), method, "dM/dz", a, b, c)


def m_scaled_limit(a: float, b: float, c: float) -> float:
    """Endpoint limit of (z(1-z))^(a+b-c) M(z) as z -> 0 when a+b > c, (a+b-c) B(c,
    a+b-c)/B(a, b): (a+b-c) times C2 of hypergeom's table of A&S 15.3.6, kept in
    this form as the limit of mextra-1, whose margin the benchmark replays bit for bit.
    """
    p = _Params(a, b, c)
    d = p.a + p.b - p.c
    if d <= 0.0:
        raise ParameterError(f"limit formula needs a+b > c, got {d!r}")
    return d * beta(p.c, d).value / (2.0 * _Triple(p.a, p.b, p.c).half_beta)
