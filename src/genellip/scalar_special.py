"""Gamma-family scalar functions: ln Gamma, Gamma, psi, Beta, and the
Ramanujan constant R(a,b) = -psi(a) - psi(b) - 2*gamma.

Evaluation uses argument-shift recurrences into the asymptotic regime
followed by Stirling-type series with Bernoulli-number coefficients.  The
shift alone covers psi at x <= 0; ln Gamma there takes the reflection
Gamma(x)Gamma(1-x) = pi/sin(pi x) through _sinpi.  The standard identities
are in DLMF chapter 5 and Abramowitz & Stegun chapter 6.
"""

from __future__ import annotations

import math

from .errors import PoleError, SaturationError, checked
from .result import EvalResult, Method

EULER_GAMMA = 0.5772156649015328606065120900824024

# B_{2k} / (2k (2k-1)), k = 1..9: coefficients of x^{1-2k} in the Stirling
# series for ln Gamma.  Nine terms keep the truncation below 1e-17 at x=10.
_LNGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 360.0,
    1.0 / 1260.0,
    -1.0 / 1680.0,
    1.0 / 1188.0,
    -691.0 / 360360.0,
    1.0 / 156.0,
    -3617.0 / 122400.0,
    43867.0 / 244188.0,
)

# B_{2k} / (2k), k = 1..9: coefficients of x^{-2k} in the series for psi.
_DIGAMMA_COEFFS = (
    1.0 / 12.0,
    -1.0 / 120.0,
    1.0 / 252.0,
    -1.0 / 240.0,
    1.0 / 132.0,
    -691.0 / 32760.0,
    1.0 / 12.0,
    -3617.0 / 8160.0,
    43867.0 / 14364.0,
)

_LN_SQRT_TWO_PI = 0.9189385332046727417803297364056176

_GAMMA_SHIFT = 10.0
_PSI_SHIFT = 8.0


def _exp(x: float, sign: int, fn: str, *args: float) -> float:
    """sign * e^x, the value of fn(*args); SaturationError past the float range."""
    try:
        return sign * math.exp(x)
    except OverflowError:
        raise SaturationError(f"{fn}({', '.join(map(repr, args))}) exceeds the float range",
                              endpoint=sign * math.inf) from None


def _is_nonpositive_integer(x: float) -> bool:
    return x <= 0 and x == math.floor(x)


def _lngamma_raw(x: float) -> float:
    """ln Gamma(x) for x > 0, shift to >= _GAMMA_SHIFT then Stirling."""
    shift_log = 0.0
    while x < _GAMMA_SHIFT:
        shift_log += math.log(x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    corr = 0.0
    power = 1.0 / x
    for ck in _LNGAMMA_COEFFS:
        corr += ck * power
        power *= inv2
    return (x - 0.5) * math.log(x) - x + _LN_SQRT_TWO_PI + corr - shift_log


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction exact in the integer part."""
    n = math.floor(x)
    f = x - n
    if f == 1.0:  # x - n rounds up to 1 just below an integer; n+1-x is exact
        s = math.sin(math.pi * ((n + 1) - x))
    elif f > 0.5:
        s = math.sin(math.pi * (1.0 - f))
    else:
        s = math.sin(math.pi * f)
    return -s if (int(n) & 1) else s


def _lngamma_signed(x: float) -> tuple[float, int]:
    """(ln |Gamma(x)|, sign) for any non-pole real x, via reflection."""
    if x > 0:
        return _lngamma_raw(x), 1
    if _is_nonpositive_integer(x):
        raise PoleError(f"gamma pole at {x!r}")
    # Gamma(x) = pi / (sin(pi x) Gamma(1-x))
    s = _sinpi(x)
    val = math.log(math.pi) - math.log(abs(s)) - _lngamma_raw(1.0 - x)
    return val, (1 if s > 0 else -1)


def gamma_ln(x: float) -> EvalResult:
    """ln Gamma(x) for x > 0."""
    x = checked("x", x, "(0, inf)")
    val = _lngamma_raw(x)
    # Rounding across the shifted product dominates; truncation is ~1e-17.
    err = max(abs(val), 1.0) * 5e-16 + 1e-15
    method = Method.ASYMPTOTIC if x >= _GAMMA_SHIFT else Method.RECURRENCE_SHIFT
    return EvalResult(val, err, method)


def gamma(x: float) -> EvalResult:
    """Gamma(x) for real x off the poles at 0, -1, -2, ..."""
    x = checked("x", x, "(-inf, inf)")
    val = _exp(*_lngamma_signed(x), "Gamma", x)
    if x > 0:
        method = Method.ASYMPTOTIC if x >= _GAMMA_SHIFT else Method.RECURRENCE_SHIFT
        return EvalResult(val, abs(val) * 2e-14, method)
    return EvalResult(val, abs(val) * 5e-14, Method.REFLECTION)


def digamma(x: float) -> EvalResult:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0."""
    return _digamma(checked("x", x, "(0, inf)"))


def _digamma(x: float) -> EvalResult:
    """psi(x), real x off the poles 0, -1, ...: psi(x+n) - sum_{k<n} 1/(x+k) (DLMF 5.5.2)."""
    shifted = x < _PSI_SHIFT
    acc = 0.0
    while x < _PSI_SHIFT:
        acc -= 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    corr = 0.0
    power = inv2
    for ck in _DIGAMMA_COEFFS:
        corr += ck * power
        power *= inv2
    val = acc + math.log(x) - 0.5 / x - corr
    err = (abs(val) + 1.0) * 5e-16 + 1e-15
    return EvalResult(val, err, Method.RECURRENCE_SHIFT if shifted else Method.ASYMPTOTIC)


def beta(x: float, y: float) -> EvalResult:
    """B(x,y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    lnb = beta_ln(x, y)
    val = _exp(lnb, 1, "B", x, y)
    return EvalResult(val, abs(val) * (abs(lnb) + 1.0) * 1e-15, Method.RECURRENCE_SHIFT)


def beta_ln(x: float, y: float) -> float:
    """ln B(x,y); convenience for callers that need the logarithm directly."""
    x = checked("x", x, "(0, inf)")
    y = checked("y", y, "(0, inf)")
    return _lngamma_raw(x) + _lngamma_raw(y) - _lngamma_raw(x + y)


def ramanujan_r(a: float, b: float) -> EvalResult:
    """R(a,b) = -psi(a) - psi(b) - 2*gamma; R(1/2,1/2) = log 16."""
    da = _digamma(checked("a", a, "(0, inf)"))
    db = _digamma(checked("b", b, "(0, inf)"))
    val = -da.value - db.value - 2.0 * EULER_GAMMA
    return EvalResult(val, da.abs_err_est + db.abs_err_est + 1e-15, da.method)
