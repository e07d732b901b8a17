"""Generalized complete elliptic integrals of the first and second kind,

    K(r) = (B(a,b)/2) F(a,b;c;r^2),    E(r) = (B(a,b)/2) F(a-1,b;c;r^2),

their complements K' = K(r'), E' = E(r'), the endpoint values, and the
closed-form r-derivatives of K, E, K-E, and E-r'^2 K.  For (a,b,c) =
(1/2,1/2,1) everything reduces to the classical complete integrals.

The combinations K-E and E-r'^2 K are each a single Gauss function,

    K - E = (B/2)(b/c) r^2 F(a,b+1;c+1;r^2),
    E - r'^2 K = (B/2)((c-b)/c) r^2 F(a,b;c+1;r^2),

by the contiguous relation F(a,b;c;z) - F(a-1,b;c;z) = (bz/c) F(a,b+1;c+1;z)
(DLMF 15.5(ii)).  Both are positive series, so they keep full relative
accuracy near r=0, where forming the differences from K and E would cancel
to noise, and they go through the same 2F1 regimes as K and E near r=1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import DomainError, ParameterError, checked
from .hypergeom import HypParams, _eval_pair, _Triple
from .result import EvalResult, Method
from .scalar_special import beta


class EllipticParams(HypParams):
    """Parameter triple with 0 < a < min(c,1) and 0 < b < c <= a+b, c <= 50."""

    def _relate(self):
        a, b, c = self.a, self.b, self.c
        if not (a < min(c, 1.0) and b < c <= a + b):
            raise ParameterError(
                f"need a < min(c, 1) and b < c <= a+b, got a={a!r}, b={b!r}, c={c!r}")


@dataclass(frozen=True, init=False)
class Modulus:
    """A modulus r in [0,1] carried with r' = sqrt(1-r^2) and the squares z and z_comp.

    Keeping the complement explicit preserves relative accuracy of 1-r^2
    as r -> 1; build from whichever side is known accurately.
    """

    r: float
    r_comp: float
    z: float = field(init=False, repr=False, compare=False)
    z_comp: float = field(init=False, repr=False, compare=False)

    def __init__(self, r: float, r_comp: float):
        r = checked("r", r, "[0, 1]")
        r_comp = checked("r_comp", r_comp, "[0, 1]")
        self.__dict__.update(r=r, r_comp=r_comp, z=r * r, z_comp=r_comp * r_comp)
        if abs(self.z + self.z_comp - 1.0) > 1e-15:
            raise DomainError(f"r^2 + r_comp^2 = 1 violated: r={r!r}, r_comp={r_comp!r}")

    @classmethod
    def _pair(cls, r: float, r_comp: float) -> "Modulus":
        """The modulus (r, r_comp) of two floats in [0, 1] that already
        meet r^2 + r_comp^2 = 1 to rounding, without checking them again."""
        m = object.__new__(cls)
        m.__dict__.update(r=r, r_comp=r_comp, z=r * r, z_comp=r_comp * r_comp)
        return m

    @classmethod
    def from_r(cls, r: float) -> "Modulus":
        r = checked("r", r, "[0, 1]")
        return cls._pair(r, math.sqrt((1.0 - r) * (1.0 + r)))

    @classmethod
    def from_r_comp(cls, r_comp: float) -> "Modulus":
        r_comp = checked("r_comp", r_comp, "[0, 1]")
        return cls._pair(math.sqrt((1.0 - r_comp) * (1.0 + r_comp)), r_comp)

    @property
    def log_z(self) -> float:
        """log r^2, as log1p(-r'^2) where r'^2 < 1/2: it keeps its digits as r -> 1."""
        return (math.log1p(-self.z_comp) if self.z_comp < 0.5
                else math.log(_interior(self, "log r^2").z))

    @property
    def log_z_comp(self) -> float:
        """log r'^2 by the rule of log_z, from the other side."""
        return (math.log1p(-self.z) if self.z < 0.5
                else math.log(_interior(self, "log r'^2").z_comp))

    @property
    def complement(self) -> "Modulus":
        return Modulus._pair(self.r_comp, self.r)


def _interior(m: Modulus, what: str) -> Modulus:
    """m, if r^2 and r'^2 are both positive (not 0, 1 or an underflow)."""
    if m.z == 0.0 or m.z_comp == 0.0:
        raise DomainError(
            f"{what} needs r^2 > 0 and r'^2 > 0, but one is 0 or underflows to 0 at "
            f"r={m.r!r}, r'={m.r_comp!r}")
    return m


def arth(r: float, r_comp: float | None = None) -> float:
    """arth(r) = (1/2) log((1+r)/(1-r)); pass r_comp to stay exact near 1."""
    if r_comp is not None:
        # 1-r = r_comp^2/(1+r), so arth(r) = log((1+r)/r_comp) stays exact.
        r = checked("r", r, "(-1, 1]")
        return math.log((1.0 + r) / checked("r_comp", r_comp, "(0, 1]"))
    return math.atanh(checked("r", r, "(-1, 1)"))


def _scaled(scale: float, key: _Triple, m: Modulus) -> EvalResult:
    """scale * F(key; r^2), with the rounding of the product in the estimate."""
    f = _eval_pair(key, m.z, m.z_comp)
    value = scale * f.value
    return EvalResult(value, scale * f.abs_err_est + 2e-15 * abs(value), f.method)


def ell_k(p: EllipticParams, m: Modulus) -> EvalResult:
    """K(r) = (B(a,b)/2) F(a,b;c;r^2); infinite at r = 1.

    The pole test uses the exact pair: r may round to 1.0 in floating
    point while z_comp > 0 still identifies an interior modulus.
    """
    if m.z_comp == 0.0:
        return EvalResult(math.inf, 0.0, Method.CLOSED_FORM)
    key = _Triple(p.a, p.b, p.c)  # first, so that half_beta reads its table
    return _scaled(p.half_beta, key, m)


def ell_e(p: EllipticParams, m: Modulus) -> EvalResult:
    """E(r) = (B(a,b)/2) F(a-1,b;c;r^2); finite on all of [0, 1]."""
    if m.z_comp == 0.0:
        num = 2.0 * p.half_beta * beta(p.c, p.c + 1.0 - p.a - p.b).value
        den = beta(p.c + 1.0 - p.a, p.c - p.b).value
        value = 0.5 * num / den
        return EvalResult(value, 1e-13 * abs(value), Method.CLOSED_FORM)
    return _scaled(p.half_beta, _Triple(p.a - 1.0, p.b, p.c), m)


def ell_k_comp(p: EllipticParams, m: Modulus) -> EvalResult:
    """K'(r) = K(r')."""
    return ell_k(p, m.complement)


def ell_e_comp(p: EllipticParams, m: Modulus) -> EvalResult:
    """E'(r) = E(r')."""
    return ell_e(p, m.complement)


def ell_k_minus_e(p: EllipticParams, m: Modulus) -> EvalResult:
    """K - E = (B/2)(b/c) r^2 F(a,b+1;c+1;r^2), a positive Maclaurin series.

    From the contiguous relation F(a,b;c;z) - F(a-1,b;c;z) =
    (bz/c) F(a,b+1;c+1;z) (DLMF 15.5(ii)); the single 2F1 keeps full
    relative accuracy near r = 0, where K - E would cancel to noise.
    """
    if m.z_comp == 0.0:
        return EvalResult(math.inf, 0.0, Method.CLOSED_FORM)
    return _scaled(p.half_beta * (p.b / p.c) * m.z, _Triple(p.a, p.b + 1.0, p.c + 1.0), m)


def ell_e_minus_rc2k(p: EllipticParams, m: Modulus) -> EvalResult:
    """E - r'^2 K = (B/2)((c-b)/c) r^2 F(a,b;c+1;r^2), positive since c > b.

    The same contiguous relation applied to F(a-1,b;c;z) - (1-z)F(a,b;c;z).
    """
    if m.z_comp == 0.0:
        return ell_e(p, m)
    return _scaled(p.half_beta * ((p.c - p.b) / p.c) * m.z, _Triple(p.a, p.b, p.c + 1.0), m)


@dataclass(frozen=True)
class EllDerivatives:
    """The four closed-form r-derivatives at an interior modulus."""

    dK_dr: float
    dE_dr: float
    dKmE_dr: float
    dEmr2K_dr: float


def ell_derivatives(p: EllipticParams, m: Modulus) -> EllDerivatives:
    """d/dr of K, E, K-E, and E-r'^2 K for 0 < r < 1.

    dK/dr  = (2/(r r'^2)) ((c-a) E + (b r^2 + a - c) K)
    dE/dr  = (2(a-1)/r) (K - E)
    d(K-E)/dr = (2/(r r'^2)) (((c-a)-(1-a)r'^2) E + ((a+b)r^2 - c + r'^2) K)
    d(E-r'^2 K)/dr = (2/r) ((1-c) E + (c-1-(b-1)r^2) K)

    The K-E form is the difference of the first two; for (1/2,1/2,1) it
    reduces to the classical r E/r'^2.
    """
    r, z, rc2 = checked("r", m.r, "(0, 1)"), m.z, m.z_comp
    a, b, c = p.a, p.b, p.c
    K = ell_k(p, m).value
    E = ell_e(p, m).value
    KmE = ell_k_minus_e(p, m).value
    dK = (2.0 / (r * rc2)) * ((c - a) * E + (b * z + a - c) * K)
    dE = (2.0 * (a - 1.0) / r) * KmE
    dKmE = (2.0 / (r * rc2)) * (((c - a) - (1.0 - a) * rc2) * E
                                + ((a + b) * z - c + rc2) * K)
    dEmr2K = (2.0 / r) * ((1.0 - c) * E + (c - 1.0 - (b - 1.0) * z) * K)
    return EllDerivatives(dK, dE, dKmE, dEmr2K)
