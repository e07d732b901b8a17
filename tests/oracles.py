"""Independent high-precision oracles for the frozen expected values.

Every routine recomputes a quantity by a route different from the one the
package uses: raw series with explicit tail corrections, an explicit AGM
loop, Wronskian assembly, or bisection against one of those.  All arithmetic
runs in mpmath at 50+ decimal digits, so the printed values are exact to
well past double precision.

Run ``python3 tests/oracles.py`` to print the table of frozen constants
used by the test modules; the tests compare against pasted decimal
literals so none of these oracles executes during a normal pytest run.

Two tables are read at test time: ``DECLARATIONS``, a digest of each
verify check's declaration, which ``declaration_digests`` computes and
``PYTHONPATH=src python3 tests/oracles.py --declarations`` prints; and
``MODULAR_EQUATIONS``, three exact modular equations whose closed forms
take a few double-precision operations per point.
"""

from __future__ import annotations

import hashlib
import math
import random
import sys

import mpmath as mp

mp.mp.dps = 60


# --------------------------------------------------------------------------
# log-gamma by recurrence + Stirling (no mp.gamma / mp.loggamma)

_STIRLING_COEF = [
    mp.mpf(1) / 12, -mp.mpf(1) / 360, mp.mpf(1) / 1260, -mp.mpf(1) / 1680,
    mp.mpf(1) / 1188, -mp.mpf(691) / 360360, mp.mpf(1) / 156,
    -mp.mpf(3617) / 122400, mp.mpf(43867) / 244188,
    -mp.mpf(174611) / 125400, mp.mpf(77683) / 5796,
]


def lngamma(x) -> mp.mpf:
    """log Gamma for x > 0: shift to x >= 60, then the Stirling series.

    After the shift the first dropped term, B_24 / (24 * 23 * x^23), is
    below 2e-39 in absolute value, and for real x > 0 the truncation error
    is below it (DLMF 5.11(ii)).  That is far past double precision but not
    past the working precision: each ln Gamma is good to about 2e-39
    absolute, so the 100-digit near-balanced references, where Gamma
    ratios cancel, agree with mpmath's hyp2f1 only to about 4e-30 relative.
    """
    x = mp.mpf(x)
    assert x > 0
    shift = mp.mpf(0)
    while x < 60:
        shift -= mp.log(x)
        x += 1
    s = (x - mp.mpf(1) / 2) * mp.log(x) - x + mp.log(2 * mp.pi) / 2
    xp = x
    for c in _STIRLING_COEF:
        s += c / xp
        xp *= x * x
    return s + shift


def gamma(x) -> mp.mpf:
    x = mp.mpf(x)
    if x > 0:
        return mp.e ** lngamma(x)
    # reflection: Gamma(x) Gamma(1-x) = pi / sin(pi x)
    return mp.pi / (mp.sin(mp.pi * x) * mp.e ** lngamma(1 - x))


def beta(x, y) -> mp.mpf:
    return mp.e ** (lngamma(x) + lngamma(y) - lngamma(mp.mpf(x) + mp.mpf(y)))


# --------------------------------------------------------------------------
# digamma / trigamma by their defining series with Euler-Maclaurin tails

def digamma(x, n_terms: int = 20000) -> mp.mpf:
    """-euler + sum_{n>=0} (1/(n+1) - 1/(n+x)), tail by Euler-Maclaurin.

    The summand is f(t) = (x-1)/((t+1)(t+x)); after n_terms explicit terms
    the remainder is integral + f/2 - f'/12 + f'''/720, each evaluated at
    t = n_terms, which is accurate to O(n_terms^-7) ~ 1e-30 absolute and
    in practice far better at the 60-digit working precision.
    """
    x = mp.mpf(x)
    s = mp.mpf(0)
    for n in range(n_terms):
        s += mp.mpf(1) / (n + 1) - 1 / (n + x)
    N = mp.mpf(n_terms)

    def f(t, k):
        # k-th derivative of (x-1)/((t+1)(t+x)) via partial fractions
        sign = (-1) ** k * mp.factorial(k)
        return sign * (1 / (t + 1) ** (k + 1) - 1 / (t + x) ** (k + 1))

    integral = mp.log((N + x) / (N + 1))
    tail = integral + f(N, 0) / 2 - f(N, 1) / 12 + f(N, 3) / 720
    return -mp.euler + s + tail


def trigamma(x, n_terms: int = 20000) -> mp.mpf:
    """sum_{n>=0} 1/(n+x)^2 with the same Euler-Maclaurin tail treatment."""
    x = mp.mpf(x)
    s = mp.mpf(0)
    for n in range(n_terms):
        s += 1 / (n + x) ** 2
    t = mp.mpf(n_terms) + x
    tail = 1 / t + 1 / (2 * t ** 2) + 1 / (6 * t ** 3) - 1 / (30 * t ** 5)
    return s + tail


def ramanujan_r(a, b) -> mp.mpf:
    return -digamma(a) - digamma(b) - 2 * mp.euler


# --------------------------------------------------------------------------
# Gauss hypergeometric series with a geometric tail bound

def hyp2f1(a, b, c, z, tol=mp.mpf("1e-55")):
    """Raw series sum; stops when a geometric bound on the tail is < tol.

    Returns (value, tail_bound).  Requires 0 <= z < 1.
    """
    a, b, c, z = (mp.mpf(v) for v in (a, b, c, z))
    assert 0 <= z < 1
    term = mp.mpf(1)
    total = mp.mpf(1)
    n = 0
    while True:
        term *= (a + n) * (b + n) / ((c + n) * (n + 1)) * z
        total += term
        n += 1
        if n > 10:
            # for n beyond max(a,b,c) the term ratio is below this bound
            ratio = abs((a + n) * (b + n) / ((c + n) * (n + 1))) * z
            if ratio < 1:
                bound = abs(term) * ratio / (1 - ratio)
                if bound < tol * abs(total):
                    return total, bound
        if n > 4_000_000:
            raise RuntimeError("oracle series did not converge")


def hyp2f1_deriv(a, b, c, z):
    a, b, c, z = (mp.mpf(v) for v in (a, b, c, z))
    v, _ = hyp2f1(a + 1, b + 1, c + 1, z)
    return a * b / c * v


# --------------------------------------------------------------------------
# classical complete elliptic integrals via an explicit AGM loop

def agm(x, y) -> mp.mpf:
    x, y = mp.mpf(x), mp.mpf(y)
    for _ in range(200):
        x, y = (x + y) / 2, mp.sqrt(x * y)
        if abs(x - y) < mp.mpf("1e-58") * x:
            return (x + y) / 2
    raise RuntimeError("AGM did not converge")


def k_classical(r) -> mp.mpf:
    r = mp.mpf(r)
    return mp.pi / (2 * agm(1, mp.sqrt(1 - r ** 2)))


def mu_classical(r) -> mp.mpf:
    r = mp.mpf(r)
    return mp.pi / 2 * k_classical(mp.sqrt(1 - r ** 2)) / k_classical(r)


# --------------------------------------------------------------------------
# generalized modulus and its inverse
#
# The raw series cannot reach the z -> 1 factor (zero-balanced, O(1/(1-z))
# terms), so mu uses mpmath's hyp2f1; main() prints a cross-check of
# mp.hyp2f1 against the raw series at z = 0.99 and of mu_general against
# the AGM route in the classical case.

def mu_general(a, c, r) -> mp.mpf:
    a, c, r = mp.mpf(a), mp.mpf(c), mp.mpf(r)
    b = c - a
    z = r ** 2
    num = mp.hyp2f1(a, b, c, 1 - z)
    den = mp.hyp2f1(a, b, c, z)
    return beta(a, b) / 2 * num / den


def bisect_increasing(f, target, lo, hi, iters=220):
    """Root of f(x) = target for increasing f on [lo, hi]."""
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    for _ in range(iters):
        mid = (lo + hi) / 2
        if f(mid) < target:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def mu_inverse_general(a, c, y) -> mp.mpf:
    # mu decreases in r, so invert -mu as an increasing map
    return bisect_increasing(lambda r: -mu_general(a, c, r), -mp.mpf(y),
                             mp.mpf("1e-8"), 1 - mp.mpf("1e-8"))


# --------------------------------------------------------------------------
# exact modular equations: s = phi_K(r) in closed form, in double precision
#
# Each returns the pair (s, s') with mu(s) = mu(r)/K from the pair (r, r'),
# and forms every complement from r', never from 1 - r, which near r = 1
# has lost the digits of r'.  Landen (DLMF 19.8(ii)), Borwein's cubic and
# the signature-4 quadratic (Berndt, Bhargava & Garvan, Trans. AMS 347,
# 1995) in the setting of Anderson, Qiu, Vamanamurthy & Vuorinen (Pacific
# J. Math. 192, 2000).

def landen(r: float, r_comp: float) -> tuple[float, float]:
    """(a, b, c) = (1/2, 1/2, 1), K = 2: s = 2 sqrt(r)/(1+r), s' = (1-r)/(1+r)."""
    return 2.0 * math.sqrt(r) / (1.0 + r), r_comp * r_comp / (1.0 + r) ** 2


def borwein_cubic(r: float, r_comp: float) -> tuple[float, float]:
    """(1/3, 2/3, 1), K = 3: with x = r^(2/3), s^2 = 9x(1+x+x^2)/(1+2x)^3 and
    s'^2 = ((1-x)/(1+2x))^3, where 1-x = r'^2/(1+x+x^2)."""
    x = r ** (2.0 / 3.0)
    q = 1.0 + x + x * x
    return (math.sqrt(9.0 * x * q / (1.0 + 2.0 * x) ** 3),
            (r_comp * r_comp / q / (1.0 + 2.0 * x)) ** 1.5)


def signature_four(r: float, r_comp: float) -> tuple[float, float]:
    """(1/4, 3/4, 1), K = 2: s = sqrt(8r(1+r))/(1+3r), s' = (1-r)/(1+3r)."""
    return (math.sqrt(8.0 * r * (1.0 + r)) / (1.0 + 3.0 * r),
            r_comp * r_comp / ((1.0 + r) * (1.0 + 3.0 * r)))


# ((a, c), K, the closed form) of each exact modular equation
MODULAR_EQUATIONS = (((0.5, 1.0), 2.0, landen), ((1.0 / 3.0, 1.0), 3.0, borwein_cubic),
                     ((0.25, 1.0), 2.0, signature_four))


# --------------------------------------------------------------------------
# Legendre M-function by the Wronskian-style form
# M = z(1-z) (v1 dv/dz - v dv1/dz) with v = F(a,b;c;z) and v1(z) = v(1-z)

def m_wronskian(a, b, c, z) -> mp.mpf:
    a, b, c, z = (mp.mpf(v) for v in (a, b, c, z))
    v, _ = hyp2f1(a, b, c, z)
    v1, _ = hyp2f1(a, b, c, 1 - z)
    dv = hyp2f1_deriv(a, b, c, z)
    dv1 = -hyp2f1_deriv(a, b, c, 1 - z)
    return z * (1 - z) * (v1 * dv - v * dv1)


# --------------------------------------------------------------------------
# K - E and E - r'^2 K as differences of two raw series at 60 digits

DIFF_TRIPLES = ((0.3, 0.5, 0.7), (0.5, 0.5, 1.0), (0.25, 0.6, 0.8))
# both sides of z = 0.75 (r = 0.866) and of z = 0.9 (r = 0.949)
DIFF_RADII = (1e-3, 0.3, 0.86, 0.87, 0.947, 0.95, 0.99, 0.9995)


def difference_forms(a, b, c, r) -> tuple[mp.mpf, mp.mpf]:
    """(B/2)(F(a,b;c;z) - F(a-1,b;c;z)) and (B/2)(F(a-1,b;c;z) - (1-z)F(a,b;c;z)).

    r is taken as its exact binary value, so the package sees the same point.
    """
    a, b, c, r = (mp.mpf(v) for v in (a, b, c, r))
    z = r * r
    k, _ = hyp2f1(a, b, c, z)
    e, _ = hyp2f1(a - 1, b, c, z)
    hb = beta(a, b) / 2
    return hb * (k - e), hb * (e - (1 - z) * k)


def _print_difference_forms() -> None:
    for a, b, c in DIFF_TRIPLES:
        for r in DIFF_RADII:
            kme, emk = difference_forms(a, b, c, r)
            print(f"    (({a}, {b}, {c}), {r}, {mp.nstr(kme, 20)!r}, {mp.nstr(emk, 20)!r}),")


# --------------------------------------------------------------------------
# F(a,b;c;1-u) with eps = c-a-b small and nonzero, by the connection formula
# A&S 15.3.6 at 100 digits: its two terms are each about 1/eps and cancel
# to about |log10 eps| digits.  The truncation of lngamma's Stirling series
# (about 1e-39) is amplified by the same 1/eps, so 25 digits are certain.

def hyp2f1_near_balanced(a, b, c, u) -> mp.mpf:
    with mp.workdps(100):
        a, b, c, u = (mp.mpf(v) for v in (a, b, c, u))
        e = c - a - b
        tol = mp.mpf("1e-95")
        s1, _ = hyp2f1(a, b, 1 - e, u, tol)
        s2, _ = hyp2f1(c - a, c - b, 1 + e, u, tol)
        return gamma(c) * (gamma(e) / (gamma(c - a) * gamma(c - b)) * s1
                           + u ** e * gamma(-e) / (gamma(a) * gamma(b)) * s2)


def near_balanced_points() -> list[tuple[float, float, float, float]]:
    """(a, b, c, u): 40 seeded points with a, b in [0.05, 3], c-a-b of either
    sign in [1e-12, 1e-6] and u in [1e-12, 0.25], all log-uniform (the first
    two at u = 1e-12 and 0.25); then, at (a, b) = (0.5, 0.25), the triples
    within three ulps of each edge c-a-b = +-1e-12 and +-1e-6."""
    rng = random.Random(20071)

    def loguni(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    pts = []
    for i in range(40):
        a, b = loguni(0.05, 3.0), loguni(0.05, 3.0)
        c = a + b + rng.choice((-1.0, 1.0)) * loguni(1e-12, 1e-6)
        pts.append((a, b, c, (1e-12, 0.25)[i] if i < 2 else loguni(1e-12, 0.25)))
    a, b = 0.5, 0.25
    for d, u in ((-1e-12, 1e-6), (1e-12, 0.25), (-1e-6, 1e-12), (1e-6, 1e-6)):
        cs = [a + b + d]
        for _ in range(3):
            cs = [math.nextafter(cs[0], -math.inf)] + cs + [math.nextafter(cs[-1], math.inf)]
        pts += [(a, b, c, u) for c in cs]
    return pts


def _print_near_balanced() -> None:
    for a, b, c, u in near_balanced_points():
        f = hyp2f1_near_balanced(a, b, c, u)
        with mp.workdps(40):  # mpmath's own hyp2f1 agrees to 25 digits
            assert abs(mp.hyp2f1(a, b, c, 1 - mp.mpf(u)) / f - 1) < mp.mpf("1e-25")
        print(f"    ({a!r}, {b!r}, {c!r}, {u!r}, {mp.nstr(f, 25)}),")


# --------------------------------------------------------------------------
# Gauss's sum F(a,b;c;1), and thkeb-g's limit by its own series

def gauss_sum_points() -> list[tuple[float, float, float]]:
    """(a, b, c): 30 seeded triples with a, b log-uniform in [0.05, 3] and
    c-a-b log-uniform in (0.01, 3)."""
    rng = random.Random("gauss-sum")

    def loguni(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    return [(a, b, a + b + loguni(0.01, 3.0))
            for a, b in ((loguni(0.05, 3.0), loguni(0.05, 3.0)) for _ in range(30))]


def _print_gauss_sums() -> None:
    for a, b, c in gauss_sum_points():
        a, b, c = (mp.mpf(x) for x in (a, b, c))  # exact binary inputs
        f = gamma(c) * gamma(c - a - b) / (gamma(c - a) * gamma(c - b))
        with mp.workdps(40):
            assert abs(mp.hyp2f1(a, b, c, 1) / f - 1) < mp.mpf("1e-30")
        print(f"    ({float(a)!r}, {float(b)!r}, {float(c)!r}, {mp.nstr(f, 40)}),")


def keb_g_limit(a, r) -> mp.mpf:
    """(1/2) sum_{n>=1} r^(2n)/(a+n-1) + log r', summed until a term is below
    1e-45 of the sum (r <= 0.9)."""
    with mp.workdps(50):
        a, z = mp.mpf(a), mp.mpf(r) ** 2
        total, term, n = mp.mpf(0), z, 1
        while term > mp.mpf("1e-45") * total:
            total += term / (a + n - 1)
            term *= z
            n += 1
        return total / 2 + mp.log(mp.sqrt(1 - z))


def _print_keb_g_limits() -> None:
    for a, r in ((0.3, 0.4), (0.5, 0.7), (0.7, 0.2), (0.05, 0.9), (0.95, 0.01)):
        print(f"    ({a!r}, {r!r}, {mp.nstr(keb_g_limit(a, r), 40)}),")


# --------------------------------------------------------------------------
# near r = 1 (z = r^2 -> 1), where the raw series above would need about
# 1/(1-z) terms, by mpmath's own hyp2f1 at 40 digits; each value is taken
# at the exact binary inputs, so the package sees the same point

def mu_deriv_general(a, b, c, r) -> mp.mpf:
    """d mu/dr = -B(a,b) M(r^2) / (r r'^2 F(r^2)^2), with M from its four
    2F1 values at r^2 and at r'^2 = (1-r)(1+r)."""
    with mp.workdps(40):
        a, b, c, r = (mp.mpf(v) for v in (a, b, c, r))
        z, zc = r * r, (1 - r) * (1 + r)
        v, u = mp.hyp2f1(a, b, c, z), mp.hyp2f1(a - 1, b, c, z)
        v1, u1 = mp.hyp2f1(a, b, c, zc), mp.hyp2f1(a - 1, b, c, zc)
        m = (c - a) * (u * v1 + u1 * v) + (2 * (a - c) + b) * v * v1
        return -mp.beta(a, b) * m / (r * zc * v * v)


def mu_deriv_near_one_points() -> list[tuple[float, float, float, float]]:
    """(a, b, c, r): 20 seeded points with a, b uniform in (0.1, 1.5), c uniform
    in (0.1, a+b) and r = 1 - 10^U with U uniform in (-12, -2); then the two
    points at the top of the parameter range where F(r^2)^2 overflows."""
    rng = random.Random(5)
    pts = []
    for _ in range(20):
        a, b = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
        c = rng.uniform(0.1, a + b)
        pts.append((a, b, c, 1 - 10 ** rng.uniform(-12, -2)))
    return pts + [(49.5, 49.5, 50.0, 0.999999), (49.0, 50.0, 50.0, 0.999999)]


def _print_mu_deriv_near_one() -> None:
    for a, b, c, r in mu_deriv_near_one_points():
        print(f"    ({a!r}, {b!r}, {c!r}, {r!r}, {mp.nstr(mu_deriv_general(a, b, c, r), 25)}),")


ELL_NEAR_ONE = ((0.3, 0.6, 0.7), (0.5, 0.5, 1.0))


def _print_ell_near_one() -> None:
    """K = (B/2) F(a,b;c;z) and E = (B/2) F(a-1,b;c;z) at z = 1-1e-6 and 1-1e-10."""
    with mp.workdps(40):
        for a, b, c in ELL_NEAR_ONE:
            for z in (1 - 1e-6, 1 - 1e-10):
                hb = mp.beta(a, b) / 2
                k, e = (hb * mp.hyp2f1(x, b, c, z) for x in (a, a - 1))
                print(f"    (({a}, {b}, {c}), {z!r}, {mp.nstr(k, 25)}, {mp.nstr(e, 25)}),")


# --------------------------------------------------------------------------
# the error-bound census of tests/test_census.py: 2F1 beside a pole of Gamma

def census_points() -> list[tuple[str, float, float, float, float]]:
    """(route, a, b, c, z): five fixed near-balanced rows, then 200 integer-d
    and 200 near-balanced draws from random.Random(1997), each with z = 1-u
    for u = 10^U(-12, log10 0.25); _print_census keeps the first 60 and 35
    draws whose triple takes their route.

    - The fixed rows: a and b each one ulp from its pole step, at z = 0.9999
      and 0.999, and c-a rounded half an ulp off beside the pole -1.
    - Integer-d: k in {1, 2, 3}; one of a, b is x = 10^U(-12, -3), or j +-
      that for an integer j in [1, k], so that x-k lies beside a pole of
      Gamma; the other is k - x + 10^U(-1.3, 0.5), and c = a+b-k.
    - Near-balanced with a pole step: x = a or b lies at -n + t for n in
      {0, 1, 2} and |t| in (1.05, 1.95) |eps|, eps = c-a-b = +-10^U(-11,
      -6.5) of the other sign than t, so that x+n+(c-a-b) lies between 0
      and half of x+n; the other parameter is n + U(0.1, 3)."""
    rng = random.Random(1997)

    def z_near_one():
        return 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.25))

    a, b, c = 1.0000000000000003e-09, 1e-09, 1.0000000000000005e-09
    rows = [("near_balanced", x, y, c, z) for z in (0.9999, 0.999) for x, y in ((a, b), (b, a))]
    rows.append(("near_balanced", 2.0, -1.0000005000000003, 0.9999999999999997, 0.9))
    for _ in range(200):
        k = rng.choice((1, 2, 3))
        delta = 10.0 ** rng.uniform(-12.0, -3.0)
        j = rng.randint(0, k)
        x = delta if j == 0 else j + rng.choice((-1.0, 1.0)) * delta
        y = k - x + 10.0 ** rng.uniform(-1.3, 0.5)
        a, b = (x, y) if rng.random() < 0.5 else (y, x)
        rows.append(("integer_d", a, b, a + b - k, z_near_one()))
    for _ in range(200):
        n = rng.choice((0, 1, 2))
        eps = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-11.0, -6.5)
        x = -n - math.copysign(rng.uniform(1.05, 1.95) * abs(eps), eps)
        y = n + rng.uniform(0.1, 3.0)
        a, b = (x, y) if rng.random() < 0.5 else (y, x)
        rows.append(("near_balanced", a, b, a + b + eps, z_near_one()))
    return rows


def cancel_band_points() -> list[tuple[float, float, float, float]]:
    """(a, b, c, z): 60 draws from random.Random("census-cancel-band") in the
    band where the two terms of A&S 15.3.6 cancel: a, b log-uniform in
    [0.05, 3], c = a+b+-10^U(-6, -4) and z = 1-10^U(-8, -1.5)."""
    rng = random.Random("census-cancel-band")
    rows = []
    for _ in range(60):
        a, b = (math.exp(rng.uniform(math.log(0.05), math.log(3.0))) for _ in range(2))
        c = a + b + rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, -4.0)
        rows.append((a, b, c, 1.0 - 10.0 ** rng.uniform(-8.0, -1.5)))
    return rows


def _hyp2f1_40(a, b, c, z) -> mp.mpf:
    """mpmath.hyp2f1 at 60 digits, checked against 40 digits to 1e-30."""
    with mp.workdps(60):
        f = mp.hyp2f1(a, b, c, z)
    with mp.workdps(40):
        assert abs(mp.hyp2f1(a, b, c, z) / f - 1) < mp.mpf("1e-30")
    return f


def _print_census() -> None:
    """The census rows of census_points, then after a comment line the rows
    of cancel_band_points, each with F by _hyp2f1_40 printed to 40 digits.
    A near-balanced draw is kept only where a or b takes a pole step."""
    from genellip.hypergeom import _Triple  # PYTHONPATH=src

    kept = {"integer_d": 60, "near_balanced": 40}
    for route, a, b, c, z in census_points():
        key = _Triple(a, b, c)
        if c <= 0.0 or key.route != route or kept.get(route) == 0:
            continue
        if route == "near_balanced":
            na, nb = key.near_balanced[6], key.near_balanced[9]  # the pole steps' n
            if na < 0 and nb < 0:
                continue
        if route in kept:
            kept[route] -= 1
        f = _hyp2f1_40(a, b, c, z)
        print(f"    ({route!r}, {a!r}, {b!r}, {c!r}, {z!r}, {mp.nstr(f, 40)}),")
    print("# CANCEL_BAND")
    for a, b, c, z in cancel_band_points():
        print(f"    ({a!r}, {b!r}, {c!r}, {z!r}, {mp.nstr(_hyp2f1_40(a, b, c, z), 40)}),")


# --------------------------------------------------------------------------
# verify check declarations

def declaration_digests() -> dict:
    """Check id -> digest of what the check declares, in registry order.

    Each digest covers the id, kind, direction, gating, strict, tolerance,
    lo/hi_attain, decay_factor, fd_h and claim; which callables are set; the
    points of the argument grid; and, at each combo of the parameter grid,
    the combo, its ``param_map`` output and the two probes' values there.
    Limits and ``fn`` are left out: they read the gamma and 2F1 kernels.
    """
    from genellip.verify import registry

    out = {}
    for spec in registry().values():
        parts = [spec.id, spec.kind, spec.direction, spec.gating, spec.strict,
                 spec.tolerance, spec.lo_attain, spec.hi_attain, spec.decay_factor,
                 spec.fd_h, spec.claim,
                 [name for name in ("fn", "rhs", "param_map", "lo_limit", "hi_limit",
                                    "lo_probe", "hi_probe") if getattr(spec, name)],
                 [[float(x) for x in dim.points()] for dim in spec.arg_grid.dims]]
        for raw in spec.param_grid.combos():
            d = spec.param_map(raw) if spec.param_map else raw
            parts.append((raw, d))
            if d is not None:
                parts.append([probe(d) if probe else None
                              for probe in (spec.lo_probe, spec.hi_probe)])
        out[spec.id] = hashlib.sha256(repr(parts).encode()).hexdigest()[:16]
    return out


DECLARATIONS = {
    "ekmonot-1": "9078bfa32cb3ab07",
    "ekmonot-2": "ae37eac74abc5181",
    "ekmonot-3": "669dabc3c33fd9fa",
    "ekmonot-4": "0aea40c661158f7f",
    "ekmonot-5": "294ead8725ecdf76",
    "ekmonot-6": "0fac35a1af7addd1",
    "ekmonot-7": "6fb12603d4fe4758",
    "ekmonot2-1": "a03677e4fea1d220",
    "ekmonot2-2": "8e891bf62066cc08",
    "hyper-1": "e2242976ae1f8696",
    "hyper-2": "89c59132490cedc9",
    "hyper-3": "eb2151485e5d038e",
    "sqrtk-1": "ef837f301bd5b427",
    "sqrtk-1-sharp": "be7c3f81a37e0e19",
    "sqrtk-2": "60ed6cb3f662d16c",
    "sqrtk-2-sharp": "7c23cf35ef864013",
    "logconvexke-1": "4d4dc9eb4bec1e76",
    "logconvexke-2": "9aa2cbddc74088bf",
    "mutheorem-1": "f8945e833d9fc498",
    "mutheorem-2": "d57e2b2cd08b98e1",
    "mutheorem-3": "0c1f6276926d11df",
    "mutheorem-4": "728cd51fdddf1e67",
    "mutheorem-5": "5f1444669beab35e",
    "mutheorem-6": "754e8b7a7f947ef2",
    "differentparams1": "1bff06e8e2926d89",
    "diffparamscor-f": "f5f8533d3c1b0ca8",
    "diffparamscor-g": "ef2bf4e0c354fdef",
    "diffparamscor-h": "a3f078bf3d44d2b0",
    "quotfdepc": "cc7284adb21e1eb6",
    "mprop-1": "f124f00eee6a2656",
    "mprop-2": "30464b4e094587df",
    "mprop-3": "c4e668a1655b6ae4",
    "mprop-4": "5640e18090b14d71",
    "mprop-5": "32d4b6490600af88",
    "mprop-6": "ee69e9296b56a3dc",
    "mextra-1": "47074e3b77449ebf",
    "mextra-2": "9f9d98c3d1b8ae01",
    "mextra-3": "a67f1e34ee29fb58",
    "mcorollary-mu": "16b5eb8758a0f6db",
    "mcorollary-phi": "030503f41b178dfa",
    "mfunctions-1": "23f13816b0cb269e",
    "mfunctions-2": "9621ee5b646ee712",
    "ktheo-1": "a0afa3c16ff44d2a",
    "ktheo-2": "e7333aae15692049",
    "ktheo-3": "a386dc0b47f65b7e",
    "ktheo-4": "613d8d4e1ed62632",
    "ktheo-5": "38fbd7fc2057007d",
    "ktheo-6": "281c32eaf3919365",
    "ktheo-7": "6a79d2f8e79a66e1",
    "ktheo-8": "c53c00da8fd95ea9",
    "ktheo-9": "8af01a400f6ba767",
    "ktheo-10": "fe1d84eb03868e94",
    "ktheo-11": "9904d44451519e86",
    "ktheo-12": "fbccc325a9932100",
    "mufunc-1": "7241cc3cb3f1b4e9",
    "mufunc-2": "db5c0996cfc31990",
    "mufunc-3": "8a09cf7f2800230a",
    "phiperr-1": "da01cb5696d5da95",
    "phiperr-2": "6b884f492ae8388f",
    "funcineq1-1-mono": "049997dc61672840",
    "funcineq1-1-concave": "c36bc87022387032",
    "funcineq1-1-products": "94a1603af3e02fe7",
    "funcineq1-2-mono": "3391b12d4888cde6",
    "funcineq1-2-concave": "6a22552604bbc32a",
    "funcineq1-2-product-first": "8115f4f5f47307ef",
    "funcineq1-2-printed": "7b3297accad18390",
    "funcineq1-3-mono": "b82605d1cca145a3",
    "funcineq1-3-concave": "0b5ed6e4fee2cb21",
    "funcineq1-3-products": "9097dac46fd5c8ad",
    "linconj-g": "a91c2b84e015dc67",
    "linconj-h": "d067839645ccce8c",
    "ambm-1": "0b87abce04154494",
    "ambm-2": "9e82ad88e7ac417a",
    "mudepc": "e7151a693810c738",
    "imudpec": "2e9129d0d7d829eb",
    "phidepc-k": "7a92034108944e2b",
    "phidepc-invk": "497622968f838a65",
    "thkeb-f": "006e4bcd998aaca9",
    "thkeb-g": "da6e6f093e2ddd7b",
    "conj-1a": "d54cc69d5b3ace1e",
    "conj-1b": "3d6968352101c7be",
    "conj-2-i": "8c4cbcec6d3df741",
    "conj-2-ii": "696ced0da4c8bcb0",
    "conj-2-iii": "49ea5b958f5ca380",
    "conj-2-iv": "01dcb34ba9f9d5ba",
}


def _print_declarations() -> None:
    print("DECLARATIONS = {")
    for cid, digest in declaration_digests().items():
        print(f'    "{cid}": "{digest}",')
    print("}")


# --------------------------------------------------------------------------

def _print(label: str, value) -> None:
    print(f"{label:34s} {mp.nstr(value, 25)}")


def main() -> None:
    _print("lngamma(7.25)", lngamma("7.25"))
    _print("gamma(-0.5) = -2 sqrt(pi)", gamma("-0.5"))
    _print("digamma(3.7)", digamma("3.7"))
    _print("trigamma(0.25)", trigamma("0.25"))
    _print("beta(0.3, 0.9)", beta("0.3", "0.9"))
    _print("gamma(0.9)/gamma(1.3)", gamma("0.9") / gamma("1.3"))
    _print("R(0.25, 0.75)", ramanujan_r("0.25", "0.75"))
    _print("6 log 2", 6 * mp.log(2))
    _print("2F1(.5,.5;1;.5)", hyp2f1(".5", ".5", "1", ".5")[0])
    _print("2F1(.3,.7;1;.99)", hyp2f1(".3", ".7", "1", ".99")[0])
    _print("2F1(.2,.3;1;.999)", hyp2f1(".2", ".3", "1", ".999")[0])
    _print("2F1(1.4,.6;1.2;.7)", hyp2f1("1.4", ".6", "1.2", ".7")[0])
    _print("mp.hyp2f1 - raw series at z=.99",
           mp.hyp2f1("0.3", "0.7", "1", "0.99") - hyp2f1(".3", ".7", "1", ".99")[0])
    _print("M(.5,.5,1;.37) - 1/pi",
           m_wronskian("0.5", "0.5", "1", "0.37") - 1 / mp.pi)
    _print("K_classical(1/sqrt2) via AGM", k_classical(mp.sqrt(mp.mpf(1) / 2)))
    _print("Gamma(1/4)^2/(4 sqrt(pi))",
           gamma("0.25") ** 2 / (4 * mp.sqrt(mp.pi)))
    _print("K_classical(0.70710678)", k_classical("0.70710678"))
    _print("mu_classical(0.70710678)", mu_classical("0.70710678"))
    # generalized E(1) for (a,b,c) = (0.4,0.4,0.8):
    # B(a,b)/2 * Gamma(c)Gamma(c+1-a-b)/(Gamma(c+1-a)Gamma(c-b))
    e1 = beta("0.4", "0.4") / 2 * gamma("0.8") * gamma("1.0") \
        / (gamma("1.4") * gamma("0.4"))
    _print("E_{.4,.4,.8}(1)", e1)
    _print("M(.3,.4,.6; z=.37)", m_wronskian("0.3", "0.4", "0.6", "0.37"))
    _print("mu_classical(0.5)", mu_classical("0.5"))
    phi2 = bisect_increasing(lambda s: -mu_classical(s),
                             -mu_classical("0.5") / 2,
                             mp.mpf("0.5"), 1 - mp.mpf("1e-30"))
    _print("phi_2(0.5) classical", phi2)
    _print("2 sqrt(.5)/1.5 (Landen)", 2 * mp.sqrt(mp.mpf("0.5")) / mp.mpf("1.5"))
    s3 = mu_inverse_general("0.25", "1", 3 * mu_general("0.25", "1", "0.6"))
    _print("solve mu=3mu(.6), (a,c)=(.25,1)", s3)
    # pab A at (a,c,t) = (0.3,0.8,2): Gamma(2.5)Gamma(0.8)/(Gamma(2.8)Gamma(0.5))
    A = gamma("2.5") * gamma("0.8") / (gamma("2.8") * gamma("0.5"))
    _print("A(0.3,0.8,t=2)", A)
    _print("mu_general(0.5,1,0.3)", mu_general("0.5", "1", "0.3"))
    _print("mu_classical(0.3)", mu_classical("0.3"))
    print("((a, b, c), r, K-E, E-r'^2K):")
    _print_difference_forms()
    print("(a, b, c, u, F(a,b;c;1-u)) with c-a-b near 0:")
    _print_near_balanced()
    print("(a, b, c, F(a,b;c;1)):")
    _print_gauss_sums()
    print("(a, r, thkeb-g's limit):")
    _print_keb_g_limits()
    print("(a, b, c, r, d mu/dr) near r = 1:")
    _print_mu_deriv_near_one()
    print("((a, b, c), z, K, E) near z = 1:")
    _print_ell_near_one()


if __name__ == "__main__":
    if sys.argv[1:] == ["--declarations"]:
        _print_declarations()
    elif sys.argv[1:] == ["--census"]:
        _print_census()
    else:
        main()
