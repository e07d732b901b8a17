"""Gaussian hypergeometric function F(a,b;c;z) on real z in [0, 1).

Below z_switch = 0.75 the Maclaurin series is summed directly (chunked, with
Kahan accumulation and a geometric tail bound).  Above it the evaluation
splits into the classical z -> 1 regimes in u = 1-z: the connection formula
in powers of u (Abramowitz & Stegun 15.3.6), the zero-balanced logarithmic
expansion for c = a+b (A&S 15.3.10) with g_n = (a)_n (b)_n u^n / n!^2 and
h_n = 2 psi(n+1) - psi(a+n) - psi(b+n), the integer-d expansions (A&S
15.3.11-12), and between them, for 0 < |eps| < 1e-6 with eps = c-a-b, the
near-balanced expansion: A&S 15.3.6 with coefficients uniform in eps, its
1/sin(pi eps) cancelled analytically (Forrey, J. Comput. Phys. 137, 1997;
DLMF 15.8.10 is its eps -> 0 limit), F = P sum_n g_n e^(eps Phi_n)
expm1(eps D_n)/eps with P = Gamma(c)/(Gamma(c-a) Gamma(c-b)) pi eps/sin(pi
eps).  With Lambda(x,e) = (ln Gamma(x+e) - ln Gamma(x))/e and L(e,y) =
log1p(e/y)/e, D_0 = Lambda(1,-eps) + Lambda(1,eps) - Lambda(a,eps) -
Lambda(b,eps) - ln u and Phi_0 = ln u + Lambda(a,eps) + Lambda(b,eps) -
Lambda(1,eps); each step adds L(-eps,n+1) + L(eps,n+1) - L(eps,a+n) -
L(eps,b+n) to D and L(eps,a+n) + L(eps,b+n) - L(eps,n+1) to Phi.  As
eps -> 0, D_n -> h_n - ln u and P tends to the zero-balanced prefactor.

Near a pole of Gamma the expansion takes one step from exact inputs: where
x+n+eps (x = a or b, n >= 0) lies within half of x+n of 0, the rounded eps
has lost the digits that cancel there, so that step reads x+n+(c-a-b) as
c-y+n (y the other of a, b), correctly rounded, and its log as
log((c-y+n)/(x+n)).  That step's factor (x+n)/(c-y+n) of e^(eps Phi_0)
enters P as the quotient itself, not through the exponential, where eps
times that log (tens) would cost as many ulps.  For n >= 1 the rounded c-y
lies beside the pole -n, so P's Gamma(c-y) comes by reflection from the
exact c-y+n.

The engine _kernel is keyed on a _Triple: the parameters (a, b, c),
interned, so that _eval_pair, its LRU-cached form, hashes and compares keys
by identity.  A triple's attribute dict is the coefficient table of its
(a, b, c), which holds what the kernels need that does not depend on z: the
Gamma and psi constants of the z -> 1 regimes, the head of each Maclaurin
series (the ratio factors of its first chunk of 64 terms, the least number
of terms, the bound that lets a first chunk that rounds to 1 go unsummed,
and min(a, b, c)), the zero-balanced step factors and running h_n, the
near-balanced P, D_0 and Phi_0, B(a,b)/2 for the modulus, Gauss's sum
F(a,b;c;1), and the route: which kernel evaluates F at z >= z_switch.  Each
distinct argument's
ln Gamma is computed once per triple, so B(a,b)/2 and the zero-balanced
Gamma(a+b)/(Gamma(a)Gamma(b)) share ln Gamma at a, b and a+b, and the two
connection or integer-d coefficients share ln Gamma(c).  The route depends
on (a, b, c) alone: 'closed' for a = c or b = c, 'series' for a non-positive
integer a or b or where the kernel of the band of c-a-b would meet a pole of
Gamma that (a, b, c) does not have, 'terminating' in the near-balanced band
where c-a or c-b is exactly -n (u^(c-a-b) times a polynomial), and otherwise
'zero_balanced', 'near_balanced', 'integer_d' or 'connection' by c-a-b, so
_kernel dispatches on it and near_one_tau reads it to know which
asymptote of F applies.  The route, c-a-b and its nearest integer m, which
the route reads, are set when the triple is made, since every evaluation
reads them; every other
entry is computed on first use, and the zero-balanced steps as the
evaluations reach them.  The entries are
filled without a lock, by the _entry descriptor: two threads that race on a
first read compute the same values from the same (a, b, c), and whichever
stores last, each reader gets equal numbers.  The one half_beta of the
parameter types, on HypParams (and so on EllipticParams and ModulusParams),
is an _entry too, read from the triple's table.  Each caller builds one
triple per public call and the cache entries keep theirs, so
_eval_pair.cache_clear() frees every triple and its table.  The modulus
solver alone calls _kernel: it makes about 14 evaluations on its triple
and reads only their values, so it holds the triple for the solve and
fills no cache entry.
"""

from __future__ import annotations

import functools
import math
import weakref

import numpy as np

from .errors import ConvergenceError, DomainError, SaturationError, _Params, checked
from .result import EvalResult, Method
from .scalar_special import EULER_GAMMA, _digamma, _exp, _is_nonpositive_integer, _lngamma_signed

Z_SWITCH = 0.75
_EPS = 1e-15
_ZERO_BALANCED_TOL = 1e-12
_EULER_BAND = 1e-6
_INTEGER_SNAP = 1e-8
_MAX_TERMS = 400_000
_UNIT = 2.0 ** -53  # the unit roundoff of a double
_ZETA3 = 1.2020569031595942853997381615114500  # zeta(3) = -psi''(1)/2
_TABLED = 64  # terms per series whose z-free factors a coefficient table holds
_K0 = np.arange(_TABLED, dtype=np.float64)
_K1 = 1.0 + _K0
# A first chunk whose ratios are all at most this sums to nothing against 1.0.
_ROUNDS_TO_ONE = 2.0 ** -56


def _gamma_ratio(key: _Triple, nums, dens) -> float:
    """Product of Gamma(nums) / product of Gamma(dens); 0 on a denominator
    pole.  The ln Gamma values come from the triple's memo."""
    ln = 0.0
    sign = 1
    for x in dens:
        if _is_nonpositive_integer(x):
            return 0.0
        l, s = key.lngamma(x)
        ln -= l
        sign *= s
    for x in nums:
        l, s = key.lngamma(x)
        ln += l
        sign *= s
    return _exp(ln, sign, "Gamma ratio", nums, dens)


def _digamma_any(x: float) -> float:
    if x > 0:
        return _digamma(x).value
    f = x - math.floor(x)
    return _digamma(1.0 - x).value - math.pi / math.tan(math.pi * f)


def _band_terms(x: float, y: float, c: float, e: float) -> tuple:
    """The terms of the near-balanced logs that x = a or b (y the other, e
    the rounded c-a-b, 0 < |e| <= 1e-6) contributes, in one pass:
    - the pole step (n, w): where x+n (n >= 0) comes within half of itself
      of 0, w = c-y+n, correctly rounded, is the exact x+n+(c-a-b), and
      x+n+e and log1p(e/(x+n)) would have lost the digits that cancel there;
      n = -1 and w = 0.0 where no n comes that close;
    - the log steps log1p(e/(x+j))/e for j < k = max(0, ceil(10-x)), with
      L = log(w/(x+n))/e at j = n;
    - the slope (ln Gamma(x+e) - ln Gamma(x))/e and an error bound: shift x
      to x+k >= 10, each step subtracting its log, then take psi + e psi'/2
      + e^2 psi''/6 at x+k (psi' to x^-9, psi'' to x^-3);
    - the slope less the step L and the factor (x+n)/w = e^(-e L) that the
      step puts in e^(e slope); the slope itself and 1.0 without a pole step;
    - Gamma(c-y) = Gamma(w-n): for n >= 1, c-y rounded lies beside the pole
      -n and has lost the digits of w, so it is (-1)^n pi/(sin(pi w)
      Gamma(1+n-w)) by reflection; math.gamma(c-y) where n <= 0.
    """
    n = max(0, round(-x))
    w = math.fsum((c, -y, float(n)))
    ratio = w / (x + n)
    if not 0.0 < ratio < 0.5:
        n, w = -1, 0.0
    k = max(0, math.ceil(10.0 - x))
    steps = [math.log1p(e / (x + j)) / e if j != n else math.log(ratio) / e for j in range(k)]
    psi = _digamma(x + k)
    inv = 1.0 / (x + k)
    inv2 = inv * inv
    d1 = inv * (1.0 + inv * (0.5 + inv * (1.0 / 6.0 + inv2 * (
        -1.0 / 30.0 + inv2 * (1.0 / 42.0 - inv2 / 30.0)))))
    head = psi.value + e * (0.5 * d1 - e * inv2 * (1.0 + inv) / 6.0)
    slope = head - math.fsum(steps)
    err = 5.0 * _UNIT * (math.fsum(map(abs, steps)) + abs(psi.value)) + psi.abs_err_est
    if n < 0:
        return n, w, steps, slope, err, slope, 1.0, math.gamma(c - y)
    off = head - math.fsum(steps[:n] + steps[n + 1:])
    gamma = math.gamma(c - y) if n == 0 else \
        (-1.0) ** n * math.pi / (math.sin(math.pi * w) * math.gamma(1.0 + n - w))
    return n, w, steps, slope, err, off, (x + n) / w, gamma


def _first_ratios(a: float, b: float, c: float) -> tuple[np.ndarray, int, float, float, float]:
    """The head of the Maclaurin series of F(a,b;c;z): what _direct_series
    reads that does not depend on z.  It holds q_k = (a+k)(b+k)/((c+k)(1+k))
    for k < 64, the first chunk of the term ratios before the factor z;
    min_k, the terms the sum takes at least (past the largest parameter);
    Q, a bound on every |q_k| for the exit of chunks that round to 1 (inf
    where that exit does not apply); min(a, b, c); and z_safe, up to which
    no term leaves the float range."""
    q = (a + _K0) * (b + _K0) / ((c + _K0) * _K1)
    q.flags.writeable = False
    min_k = max(_TABLED, int(max(abs(a), abs(b), abs(c))) + 2)
    if min_k > _TABLED:
        return q, min_k, math.inf, min(a, b, c), 0.0
    # For c > 0, |a+k| <= max(|a|,1)(1+k) and |b+k|/(c+k) <= max(|b|/c,1).
    bound = max(abs(a), 1.0) * max(abs(b) / c, 1.0) if c > 0.0 else math.inf
    # For j < 64, |a+j|/(1+j) < 63, |b+j| < 126 and |c+j| >= 1/2 but at one j, where it is
    # delta > 1e-26: for z <= 1 the first chunk's terms stay below (63 126 2)^63 7938e26 < 1e295.
    # For j >= 64, 0 < q_j <= max((a+64)/65, 1) max((b+64)/(c+64), 1) = 1/z_safe: none grows.
    delta = c if c > 0.0 else abs(c - round(c))
    z_64 = 65.0 * (c + 64.0) / (((a if a > 1.0 else 1.0) + 64.0) * ((b if b > c else c) + 64.0))
    return q, min_k, bound, min(a, b, c), z_64 if delta > 1e-26 else 0.0


def _direct_series(a: float, b: float, c: float, z: float,
                   head: tuple) -> tuple[float, float, int]:
    """Sum the Maclaurin series; returns (value, err_bound, terms_used).

    head is _first_ratios(a, b, c).
    One test ends the sum after a chunk: its last three terms and the tail
    lie below eps*|sum|, past the largest parameter (where the coefficient
    ratio has become monotone).  The tail is 0 where the last term is
    exactly 0, as every later term then is (a polynomial stops at its first
    zero term, even at z = 1), else q*|term|/(1-q), q = max(|last ratio|, z) < 1.

    Two shortcuts return exactly what summing every chunk alike would:
      * When z Q <= 2^-56, the whole first chunk rounds away against the
        leading 1, and the result (1.0, 4e-16 + eps, 65) is returned
        without summing it.
      * A chunk whose ratios are all positive (min(a, b, c) + k > 0 at its
        first index k) has terms of one sign, so the sum of their absolute
        values is |sum| exactly and is not reduced a second time.
    The first chunk is summed from the head's ratios with the leading term 1
    and no carried compensation; later chunks compute their own ratios.
    """
    q0, min_k, bound_q, lowest, z_safe = head
    if z * bound_q <= _ROUNDS_TO_ONE:
        # Each ratio q_k z is at most 2^-56 up to a few ulps, and the
        # chunk's sum s and its absolute sum are both below 2^-55.  1 + s
        # then rounds to 1.0 for either sign of s (below 1.0 the half-ulp is
        # 2^-54, above it 2^-53), as does 1 + sum|T|; the 64th term
        # underflows to 0, so the tail is 0, and with min_k = 64 (the only
        # case with a finite Q) every stopping test holds at k = 64: summing
        # would return (1.0, 4e-16*1.0 + 0.0 + eps*1.0, 65), which is this.
        return 1.0, 4e-16 + _EPS, _TABLED + 1
    if z > z_safe:  # a term may overflow: the same sum, its numpy warnings kept here
        with np.errstate(all="ignore"):
            return _direct_series(a, b, c, z, (*head[:4], math.inf))
    ratios = q0 * z
    terms = np.multiply.accumulate(ratios)
    total, comp, abs_total = 1.0, 0.0, 1.0
    k = 0
    m = chunk = _TABLED
    while True:
        s = float(np.add.reduce(terms))
        y = s - comp
        t = total + y
        comp = (t - total) - y
        total = t
        # Rounding is symmetric in sign, so for terms of one sign the
        # reduce of |T| is |s| bit for bit.
        abs_total += abs(s) if lowest + k > 0.0 else float(np.add.reduce(np.abs(terms)))
        t1, t2, term = terms[-3:].tolist()
        k += m
        if not math.isfinite(total):
            raise ConvergenceError(
                f"hypergeometric series overflowed at z={z!r} "
                f"with (a,b,c)=({a!r},{b!r},{c!r})")
        bound = _EPS * abs(total)
        if k >= min_k and abs(t1) <= bound and abs(t2) <= bound and abs(term) <= bound:
            q = max(abs(float(ratios[-1])), z)
            if term == 0.0 or q < 1.0:
                tail = 0.0 if term == 0.0 else abs(term) * q / (1.0 - q)
                if tail <= bound:
                    err = 4e-16 * abs_total + tail + _EPS * abs(total)
                    return total, err, k + 1
        if k >= _MAX_TERMS:
            raise ConvergenceError(
                f"hypergeometric series needed more than {_MAX_TERMS} terms at z={z!r} "
                f"with (a,b,c)=({a!r},{b!r},{c!r})")
        chunk = min(2 * chunk, 8192)
        m = min(chunk, _MAX_TERMS - k)
        ks = np.arange(k, k + m, dtype=np.float64)
        ratios = (a + ks) * (b + ks) / ((c + ks) * (1.0 + ks)) * z
        terms = np.multiply.accumulate(ratios)
        terms *= term  # exact where term is 1.0


def _route(key: _Triple) -> str:
    """The route: which kernel evaluates F at z >= Z_SWITCH (see the module docstring)."""
    (a, b, c), d, m = key.abc, key.d, key.m
    if a == c or b == c:
        return "closed"
    if _is_nonpositive_integer(a) or _is_nonpositive_integer(b):
        return "series"
    # The Maclaurin series also takes the rare triples where the kernel of
    # their band meets a pole of Gamma that (a, b, c) does not have.
    if abs(d) <= _ZERO_BALANCED_TOL:
        # the expansion's Gamma(a+b)
        return "series" if _is_nonpositive_integer(a + b) else "zero_balanced"
    if m == 0 and abs(d) < _EULER_BAND:
        if any(y > c and math.fsum((c, -y, round(y - c))) == 0.0 for y in (a, b)):
            return "terminating"  # c-a or c-b is exactly -n, a pole of Gamma
        # the near-balanced logs, across a pole from a to a+d or b to b+d,
        # or past the float range within |d| 2^-500 of the pole at 0
        pole = any(math.ceil(min(x, x + d)) <= min(0.0, max(x, x + d))
                   or abs(x) <= abs(d) * 2.0 ** -500 for x in (a, b))
        return "series" if pole else "near_balanced"
    if m == 0 or abs(d - m) > _INTEGER_SNAP:
        return "connection"
    # the shift a+m or b+m, rounded onto a pole from a non-integer a or b
    pole = any(_is_nonpositive_integer(x + m) and x != math.floor(x) for x in (a, b))
    return "series" if pole else "integer_d"


class _Ref(weakref.ref):
    """A weak reference to a triple that knows the (a, b, c) it is filed under."""

    __slots__ = ("abc",)


# (a, b, c) -> a weak reference to the live _Triple with those parameters.
# Not a weakref.WeakValueDictionary: its get raises and catches KeyError on a
# miss (479 against 66 ns), and a cold eval-sweep pass, 2,347 misses in 2,634
# lookups, took 79.2 against 73.1 ms (best of 20 processes, Python 3.11).
_LIVE: dict[tuple, _Ref] = {}


def _forget(ref: _Ref) -> None:
    """Drop the registry entry of a triple that died, unless a newer triple
    for the same (a, b, c) has taken its place."""
    if _LIVE.get(ref.abc) is ref:
        del _LIVE[ref.abc]


class _entry:
    """An attribute filled on first read: a coefficient-table entry of
    _Triple, or the half_beta of HypParams.  The first read calls fill(obj)
    and stores the value in obj's dict, where every later read finds it
    before this (non-data) descriptor.  There is no lock: threads that race
    on a first read each fill the same values from the same (a, b, c), so
    whichever write lands last, every reader gets equal numbers."""

    def __init__(self, fill):
        self.fill = fill
        self.name = fill.__name__
        self.__doc__ = fill.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fill(obj)
        return value


class _Triple:
    """The parameters (a, b, c) as the key of _eval_pair, interned: while a
    triple lives, _LIVE finds it and _Triple(a, b, c) returns it.  Its
    attribute dict is the coefficient table of (a, b, c): abc, d = c-a-b,
    m = round(d), the route and an empty ln Gamma memo are set when it is
    made, each entry below on first use.
    """

    def __new__(cls, a: float, b: float, c: float):
        abc = (a, b, c)
        ref = _LIVE.get(abc)
        self = ref() if ref is not None else None
        if self is None:
            self = object.__new__(cls)
            self.abc = abc
            self.d = c - a - b
            self.m = round(self.d)
            self.route = _route(self)
            self.lngammas = {}
            ref = _LIVE[abc] = _Ref(self, _forget)
            ref.abc = abc
        return self

    def lngamma(self, x: float) -> tuple[float, int]:
        """_lngamma_signed(x), computed once per distinct x of this triple."""
        got = self.lngammas.get(x)
        if got is None:
            got = self.lngammas[x] = _lngamma_signed(x)
        return got

    @_entry
    def zero_balanced(self) -> tuple[float, float, list, list]:
        """R(a,b) = -psi(a) - psi(b) - 2 gamma, Gamma(a+b)/(Gamma(a)Gamma(b)),
        and the steps of _zero_balanced: slot n < 64 of the two lists holds
        s_n = (a+n)(b+n)/((n+1)(n+1)) and h_{n+1} once an evaluation has
        reached term n, None before.  Every evaluation that fills a slot
        writes the same value, s_n before h_{n+1}, so h_{n+1} implies s_n.
        Without the lists `verify all` took 23% more CPU time; filling all 64
        at once made a cold evaluation cost about 20 us more (41 against 21)."""
        a, b, _ = self.abc
        return (-_digamma_any(a) - _digamma_any(b) - 2.0 * EULER_GAMMA,
                _gamma_ratio(self, (a + b,), (a, b)), [None] * _TABLED, [None] * _TABLED)

    @_entry
    def gauss_sum(self) -> float:
        """Gamma(c) Gamma(d)/(Gamma(c-a) Gamma(c-b)), d = c-a-b: F(a,b;c;1) for d > 0
        (DLMF 15.4.20), and for any non-integer d the first coefficient of A&S 15.3.6."""
        a, b, c = self.abc
        return _gamma_ratio(self, (c, self.d), (c - a, c - b))

    @_entry
    def connection(self) -> tuple[float, float, tuple, tuple]:
        """The coefficients of the two series of A&S 15.3.6 (the first is
        gauss_sum) and the series head (_first_ratios) of each series."""
        (a, b, c), d = self.abc, self.d
        return (self.gauss_sum, _gamma_ratio(self, (c, -d), (a, b)),
                _first_ratios(a, b, 1.0 - d), _first_ratios(c - a, c - b, 1.0 + d))

    @_entry
    def integer_d(self) -> tuple:
        """For the integer m nearest c-a-b, k = |m|: the log-part and
        finite-part prefactors of _integer_d, the shifted parameters (sa, sb)
        of its log series and (fa, fb) of its finite part, the four psi
        values of the log series, k, 1/k! and the log part's sign -(-1)^k."""
        (a, b, c), k = self.abc, abs(self.m)
        sa, sb, fa, fb = (a + k, b + k, a, b) if self.m > 0 else (a, b, a - k, b - k)
        if self.m < 0 and any(math.fsum((x, -k, -(x - k))) for x in (a, b)):
            # a-k or b-k rounded, maybe beside a pole: Gamma(x) = Gamma(x-k) Prod_{j<=k} (x-j)
            log_pref = _gamma_ratio(self, (c,), (a, b)) \
                * math.prod((a - j) * (b - j) for j in range(1, k + 1))
        else:
            log_pref = _gamma_ratio(self, (c,), (fa, fb))
        return (log_pref, _gamma_ratio(self, (float(k), c), (sa, sb)),
                (sa, sb), (fa, fb), (_digamma(1.0).value, _digamma(float(k + 1)).value,
                                     _digamma_any(sa), _digamma_any(sb)),
                k, 1.0 / math.factorial(k), -1.0 if k % 2 == 0 else 1.0)

    @_entry
    def series_head(self) -> tuple:
        """The head (_first_ratios) of the Maclaurin series of F(a,b;c;z)."""
        return _first_ratios(*self.abc)

    @_entry
    def near_balanced(self) -> tuple:
        """eps = c-a-b, correctly rounded, and P, D_0 + ln u and Phi_0 - ln u of
        _near_zero_balanced, with bounds on the error of the first two, and
        for x = a and b the pole step (n, w) and the log steps of _band_terms."""
        a, b, c = self.abc
        eps = math.fsum((c, -a, -b))
        na, wa, steps_a, la, ea, la_off, fa, gamma_cb = _band_terms(a, b, c, eps)
        nb, wb, steps_b, lb, eb, lb_off, fb, gamma_ca = _band_terms(b, a, c, eps)
        pref = math.gamma(c) / (gamma_ca * gamma_cb) * (1.0 + (math.pi * eps) ** 2 / 6.0)
        # The step L = log(w/(x+n))/eps of a pole step (n, w) puts e^(-eps L) = (x+n)/w in
        # G_0 = e^(eps (ln u + Phi_0)); eps L runs to tens, and the exponential
        # would lose that many ulps, so the quotient goes to P and Phi_0 leaves L out.
        pref *= fa * fb
        # math.gamma is within 10 ulps (CPython's test_math), 20 units each;
        # psi(c-a) ~ lb and psi(c-b) ~ la scale the rounding of c-a and c-b;
        # the pole quotients add four roundings
        pref_err = _UNIT * (64.0 + 2.0 * abs((c - a) * lb) + 2.0 * abs((c - b) * la)
                            + (4.0 if fa * fb != 1.0 else 0.0))
        d0 = -2.0 * EULER_GAMMA - (2.0 / 3.0) * _ZETA3 * eps * eps - la - lb
        phi0 = la_off + lb_off + EULER_GAMMA - eps * (math.pi ** 2 / 12.0 - eps * _ZETA3 / 3.0)
        d0_err = ea + eb + 3.0 * _UNIT * (abs(la) + abs(lb) + 2.0 * EULER_GAMMA)
        return eps, pref, pref_err, d0, d0_err, phi0, na, wa, steps_a, nb, wb, steps_b

    @_entry
    def terminating(self) -> tuple[float, tuple]:
        """c-a-b, correctly rounded, and the head of F(c-a,c-b;c;z) (_terminating)."""
        a, b, c = self.abc
        return math.fsum((c, -a, -b)), _first_ratios(c - a, c - b, c)

    @_entry
    def half_beta(self) -> float:
        """B(a,b)/2 for a, b > 0, the factor of mu."""
        a, b, _ = self.abc
        (la, _), (lb, _), (lab, _) = self.lngamma(a), self.lngamma(b), self.lngamma(a + b)
        return 0.5 * _exp(la + lb - lab, 1, "B", a, b)

    def near_one_tau(self, s: float, log_hb: float) -> float | None:
        """tau = -log u where F(a,b;c;1-u) = e^s (s >= 0, log_hb = log(B(a,b)/2)),
        by the leading term of F as u -> 0 on the route that evaluates it:
            c = a+b:  F(1-u) ~ (R(a,b) - log u) / B(a,b)   (A&S 15.3.10),
            c < a+b:  F(1-u) ~ C1 + C2 u^(c-a-b)            (A&S 15.3.6),
        with this table's R, C1 and C2.  None on any other route (the Gamma
        factors have poles near an integer c-a-b) or where C1 >= e^s.  Every
        exp is clamped, so it never raises."""
        if self.route == "zero_balanced":
            return 2.0 * math.exp(min(log_hb + s, 700.0)) - self.zero_balanced[0]
        if self.route != "connection":
            return None
        c1, c2, _, _ = self.connection
        w = c1 * math.exp(-s)
        return (s + math.log1p(-w) - math.log(c2)) / -self.d if w < 1.0 else None


class HypParams(_Params):
    """Positive real parameters (a, b, c), each bounded by 50; the base of
    EllipticParams and ModulusParams."""

    @_entry
    def half_beta(self) -> float:
        """B(a,b)/2, as the 2F1 table of (a, b, c) holds it: K(0) = E(0) of
        EllipticParams, mu at r' = r of ModulusParams."""
        return _Triple(self.a, self.b, self.c).half_beta


def _overflow(key: _Triple, u: float, sign: float) -> SaturationError:
    """The error for an F(a,b;c;1-u) of the given sign beyond the float range."""
    a, b, c = key.abc
    return SaturationError(
        f"F(a,b;c;z) exceeds the float range at 1-z={u!r} "
        f"with (a,b,c)=({a!r},{b!r},{c!r})", endpoint=math.copysign(math.inf, sign))


def _zero_balanced(key: _Triple, u: float) -> tuple[float, float]:
    """Logarithmic expansion of F(a,b;a+b;1-u) for small u (A&S 15.3.10)."""
    a, b, _ = key.abc
    h, pref, steps, hs = key.zero_balanced
    lnu = math.log(u)
    g = 1.0
    total = 0.0
    abs_total = 0.0
    quiet = 0
    for n in range(1000):
        t = g * (h - lnu)
        total += t
        at = abs(t)
        abs_total += at
        h_next = hs[n] if n < _TABLED else None
        if h_next is None:
            s = (a + n) * (b + n) / ((n + 1.0) * (n + 1.0))
            h_next = h + (2.0 / (n + 1.0) - 1.0 / (a + n) - 1.0 / (b + n))
            if n < _TABLED:
                steps[n] = s
                hs[n] = h_next
        else:
            s = steps[n]
        g *= s * u
        h = h_next
        quiet = quiet + 1 if at <= _EPS * abs(total) else 0
        if quiet >= 3 and 2.0 * at * u / (1.0 - u) <= _EPS * abs(total):
            break
    else:
        raise ConvergenceError(f"zero-balanced expansion stalled at u={u!r}")
    value = pref * total
    err = abs(pref) * (4e-16 * abs_total) + 3e-15 * abs(value)
    return value, err


def _near_zero_balanced(key: _Triple, u: float) -> tuple[float, float]:
    """F(a,b;c;1-u) for 0 < |c-a-b| < 1e-6 (see the module docstring), with
    G_n = g_n e^(eps Phi_n) as one product.  It stops as _zero_balanced does;
    its error bound runs with the sum (G_n e^(eps D_n) = G_n + eps t_n)."""
    a, b, _ = key.abc
    eps, pref, pref_err, d0, d0_err, phi0, na, wa, steps_a, nb, wb, steps_b = key.near_balanced
    lnu = math.log(u)
    D = d0 - lnu
    G = math.exp(eps * (lnu + phi0))
    d_err = d0_err + _UNIT * (abs(lnu) + abs(D))
    total = err = 0.0
    quiet = 0
    for n in range(1000):
        t = G * math.expm1(eps * D) / eps
        total += t
        at = abs(t)
        err += min(_UNIT * abs(total), at) + (5.0 + 10.0 * n) * _UNIT * at
        err += abs(G + eps * t) * d_err
        quiet = quiet + 1 if at <= _EPS * abs(total) else 0
        if quiet >= 3 and 2.0 * at * u / (1.0 - u) <= _EPS * abs(total):
            err += 2.0 * at * u / (1.0 - u)  # the tail
            break
        y = n + 1.0
        la = steps_a[n] if n < len(steps_a) else math.log1p(eps / (a + n)) / eps
        lb = steps_b[n] if n < len(steps_b) else math.log1p(eps / (b + n)) / eps
        # L(-eps,y) + L(eps,y) = 2 artanh(eps/y)/eps = (2/y)(1 + (eps/y)^2/3) + O(eps^4)
        D += 2.0 / y * (1.0 + (eps / y) ** 2 / 3.0) - la - lb
        d_err += 5.0 * _UNIT * (abs(la) + abs(lb) + abs(D))
        G *= (wa if n == na else a + n + eps) * (wb if n == nb else b + n + eps) \
            / (y * (y + eps)) * u
    else:
        raise ConvergenceError(f"near-balanced expansion stalled at u={u!r}")
    value = pref * total
    return value, abs(pref) * err + (pref_err + _UNIT) * abs(value)


def _terminating(key: _Triple, z: float, u: float) -> tuple[float, float]:
    """u^(c-a-b) F(c-a,c-b;c;z) (DLMF 15.8.1), a polynomial where c-a or c-b is -n."""
    a, b, c = key.abc
    eps, head = key.terminating
    s, err, _ = _direct_series(c - a, c - b, c, z, head)
    w = math.exp(eps * math.log(u))
    return w * s, w * err + _UNIT * (2.0 + abs(math.log(w))) * abs(w * s)


def _integer_d(key: _Triple, u: float) -> tuple[float, float]:
    """Logarithmic expansion for c-a-b an exact nonzero integer m = key.m
    (Abramowitz & Stegun 15.3.11 for m > 0, 15.3.12 for m < 0)."""
    (log_pref, fin_pref, (sa, sb), (fa, fb), (psi_1, psi_k1, psi_sa, psi_sb), k, g,
     sign) = key.integer_d
    lnu = math.log(u)
    if key.m > 0:
        u_log_power = u ** k
        fin_power = 1.0
    else:
        u_log_power = 1.0
        if k * lnu < -700.0:
            raise _overflow(key, u, fin_pref)
        fin_power = u ** (-k)
    # finite part: sum_{n<k} (fa,n)(fb,n)/(n! (1-k,n)) u^n
    fin = 0.0
    coef = 1.0
    for n in range(k):
        fin += coef
        if n < k - 1:
            coef *= (fa + n) * (fb + n) / ((n + 1.0) * (1.0 - k + n)) * u
    fin *= fin_pref * fin_power
    # logarithmic part: sum_{n>=0} g_n [ln u - psi(n+1) - psi(n+k+1)
    #                                   + psi(sa+n) + psi(sb+n)] u^n
    L = lnu - psi_1 - psi_k1 + psi_sa + psi_sb
    scale = abs(log_pref) * u_log_power  # takes the log series' terms to F's units, as fin is
    total = 0.0
    abs_total = 0.0
    upow = 1.0
    quiet = 0
    for n in range(1000):
        t = g * L * upow
        total += t
        abs_total += abs(t)
        g *= (sa + n) * (sb + n) / ((n + 1.0) * (n + k + 1.0))
        L += -1.0 / (n + 1.0) - 1.0 / (n + k + 1.0) + 1.0 / (sa + n) + 1.0 / (sb + n)
        upow *= u
        quiet = quiet + 1 if abs(t) * scale <= _EPS * (abs(total) * scale + abs(fin)) else 0
        if quiet >= 3:
            break
    else:
        raise ConvergenceError(f"integer-d expansion stalled at u={u!r}")
    logpart = sign * log_pref * u_log_power * total
    value = fin + logpart
    if not math.isfinite(value):
        raise _overflow(key, u, value)
    err = (abs(fin) + abs(log_pref) * u_log_power * abs_total) * 5e-15 \
        + 2e-15 * abs(value)
    return value, err


def _connection(key: _Triple, u: float) -> tuple[float, float]:
    """A&S 15.3.6: two series in u = 1-z, valid for non-integer d = c-a-b."""
    (a, b, c), d = key.abc, key.d
    c1, c2, h1, h2 = key.connection
    t1 = e1 = 0.0
    if c1 != 0.0:
        s1, se1, _ = _direct_series(a, b, 1.0 - d, u, h1)
        t1 = c1 * s1
        e1 = abs(c1) * se1
    t2 = e2 = 0.0
    if c2 != 0.0:
        try:
            ud = math.exp(d * math.log(u))
        except OverflowError:
            raise _overflow(key, u, c2) from None
        s2, se2, _ = _direct_series(c - a, c - b, 1.0 + d, u, h2)
        t2 = c2 * ud * s2
        e2 = abs(c2) * ud * se2
    value = t1 + t2
    if not math.isfinite(value):  # a finite u^d times C2 can still overflow
        raise _overflow(key, u, value)
    err = e1 + e2 + 2e-15 * (abs(t1) + abs(t2)) + 1e-15 * abs(value)
    return value, err


def _kernel(key: _Triple, z: float, zc: float) -> tuple[float, float, Method]:
    """Unvalidated engine, uncached: (value, abs_err_est, method) of F at
    key = _Triple(a, b, c) with a, b any real and c > 0; zc = 1-z supplied
    exactly.

    Trusted internal callers only; the public entry points validate.
    """
    a, b, c = key.abc
    if z == 0.0:
        return 1.0, 0.0, Method.SERIES
    route = key.route
    if route == "closed":
        expo = b if a == c else a
        try:
            value = zc ** (-expo)
        except OverflowError:
            raise _overflow(key, zc, 1.0) from None
        grow = abs(expo * math.log(zc)) + 1.0
        err = abs(value) * grow * 2e-16
        if err == math.inf:  # |value| grow overflowed; the same bound, the other order
            err = abs(value) * 2e-16 * grow
        return value, err, Method.CLOSED_FORM
    if z < Z_SWITCH or route == "series":
        value, err, _ = _direct_series(a, b, c, z, key.series_head)
        return value, err, Method.SERIES
    if route == "connection":
        value, err = _connection(key, zc)
    elif route == "near_balanced":
        value, err = _near_zero_balanced(key, zc)
    elif route == "terminating":
        value, err = _terminating(key, z, zc)
    else:
        # integer_d or zero_balanced: the expansion at the integer m nearest
        # c-a-b, charged |c-a-b - m| (at most 1e-8, or 1e-12 for m = 0)
        value, err = _integer_d(key, zc) if key.m else _zero_balanced(key, zc)
        err += abs(key.d - key.m) * (abs(math.log(zc)) + 5.0) * abs(value)
    return value, err, Method.TRANSFORM_NEAR_ONE


@functools.lru_cache(maxsize=1 << 18)
def _eval_pair(key: _Triple, z: float, zc: float) -> EvalResult:
    """_kernel, cached, as an EvalResult."""
    return EvalResult(*_kernel(key, z, zc))


def hyp2f1(p: HypParams, z: float) -> EvalResult:
    """F(a,b;c;z) for z in [0, 1)."""
    z = checked("z", z, "[0, 1)")
    return _eval_pair(_Triple(p.a, p.b, p.c), z, 1.0 - z)


def hyp2f1_pair(p: HypParams, z: float, z_comp: float) -> EvalResult:
    """F(a,b;c;z) with the complement 1-z supplied exactly by the caller.

    Use when z was formed as 1 - z_comp with z_comp tiny, where recomputing
    1-z in floating point would lose all the information.
    """
    z = checked("z", z, "[0, 1)")
    z_comp = checked("z_comp", z_comp, "(0, 1]")
    if abs((1.0 - z) - z_comp) > 4e-15:
        raise DomainError(f"z_comp={z_comp!r} is not a complement of z={z!r}")
    return _eval_pair(_Triple(p.a, p.b, p.c), z, z_comp)
