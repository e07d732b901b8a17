"""Seeded inputs for the eval-sweep and modular-solve workloads.

Everything here is a pure function of the seed: the same seed gives the same
points on every machine and at every commit, because no draw depends on the
package under test.  verify-all needs no draw; its input is the registry.

Each kind of call gets a fixed number of points, and the variables that set
a call's cost (where z sits, how close c-a-b is to an integer, the solver
target) are stratified: the k points of a kind take the midpoints of k equal
slices of [0, 1), paired in seeded order, while the parameters a, b, c are
drawn freely.  A call's cost steps with the series length near z = 1, so
free draws there moved the tail percentile by a quarter from seed to seed;
with the strata, different seeds give different points with the same cost
profile, and run-to-run spread measures the program rather than the draw.

The regime labels of eval-sweep are the benchmark's own.  They follow the
routing thresholds of ``hypergeom._eval_pair`` as they stood when the
benchmark was written (copied below), so a later change to the routing moves
the timings of a label, not the label.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Thresholds of hypergeom._eval_pair when the benchmark was written.
Z_SWITCH = 0.75
EULER_BAND = 1e-6
INTEGER_SNAP = 1e-8
ZERO_BALANCED_TOL = 1e-12
Z_COMP_MIN = 1e-4  # z never exceeds 1 - 1e-4

# Working calls per eval-sweep kind in one `verify all` pass with both caches
# cold: calls that missed the 2F1 cache or ran a positive series.  Measured
# by bench/mix.py at the seed commit; BASELINE.md has the full table.
TRAFFIC = {"ell_k_minus_e": 9709, "ell_k": 6049, "mu": 3295, "ell_e": 2762,
           "m_value": 2446, "hyp2f1": 1051}
# The 2F1 cache misses of that pass outside the modulus solver, by regime.
# They split the hyp2f1 share of TRAFFIC.
REGIME_TRAFFIC = {"series": 22160, "zero_balanced": 6897, "connection": 4186,
                  "integer_d": 2237, "euler_band": 0}
TRAFFIC_OPS = 1200
# hyp2f1 calls added to the traffic in each regime, so that every branch and
# the boundaries between them are timed and checked however rarely verify
# hits them: the Euler band gets no traffic at all, and the ROADMAP's worst
# band (c-a-b in [1e-6, 1e-4], z > 0.97) is 40% of the connection calls.
COVERAGE = {"series": 64, "zero_balanced": 64, "connection": 144, "integer_d": 64,
            "euler_band": 64}
EVAL_OPS = TRAFFIC_OPS + sum(COVERAGE.values())
REGIMES = tuple(COVERAGE)

# Solves of the same pass by the public route that asked for them: phi_K
# (phi_k, phi_k_m, phi_logodds) or mu_inv_m.  modular_solve is phi_k with
# K = 1/degree, so it is not drawn apart.
SOLVE_TRAFFIC = {"phi_k": 14583, "mu_inv": 136}
SOLVE_TRAFFIC_OPS = 216
# mu_inv calls added to the traffic: direct targets with |log y| up to 30
# drive the bracket expansion further than phi_K targets do.
SOLVE_COVERAGE = {"mu_inv": 24}
SOLVE_OPS = SOLVE_TRAFFIC_OPS + sum(SOLVE_COVERAGE.values())
LOG_K_MAX = math.log(100.0)
LOG_Y_MAX = 30.0
T_REACH = 600.0  # solutions stay within |t| <= 600 of the solver's 700
SOLVE_SPARES = 8


@dataclass(frozen=True)
class EvalPoint:
    """One public call of eval-sweep.

    kind names the public function; band refines the regime label (for
    example ``worst`` for c-a-b in [1e-6, 1e-4] with z > 0.97).  For hyp2f1
    and m_value ``x`` is z; for the elliptic kinds and mu it is r.
    """

    kind: str
    regime: str
    band: str
    a: float
    b: float
    c: float
    x: float


@dataclass(frozen=True)
class SolvePoint:
    """One public call of modular-solve.

    phi_k uses the reduced family (a, b, a+b) at r with degree K; mu_inv
    uses (a, b, c) with a+b-c >= 0.2 and the target y.
    """

    kind: str
    a: float
    b: float
    c: float
    r: float
    K: float
    y: float


def regime(a: float, b: float, c: float, z: float) -> str:
    """The branch of hypergeom._eval_pair that F(a,b;c;z) takes, by the
    thresholds above; "closed" for z = 0, a = c or b = c."""
    if z == 0.0 or a == c or b == c:
        return "closed"
    if z < Z_SWITCH or any(v <= 0.0 and v == round(v) for v in (a, b)):
        return "series"
    d = c - a - b
    m = round(d)
    if abs(d) <= ZERO_BALANCED_TOL:
        return "zero_balanced"
    if m == 0 and abs(d) < EULER_BAND:
        return "euler_band"
    if m != 0 and abs(d - m) <= INTEGER_SNAP:
        return "integer_d"
    return "connection"


def _counts(weights: dict, n: int) -> dict:
    """n split in proportion to weights; the first key takes the rounding."""
    total = sum(weights.values())
    out = {k: int(round(w * n / total)) for k, w in weights.items()}
    out[next(iter(out))] += n - sum(out.values())
    return out


def eval_counts() -> dict:
    """(kind, regime) -> calls of eval-sweep: TRAFFIC plus COVERAGE."""
    kinds = _counts(TRAFFIC, TRAFFIC_OPS)
    hyp = _counts(REGIME_TRAFFIC, kinds.pop("hyp2f1"))
    out = {("hyp2f1", r): hyp[r] + k for r, k in COVERAGE.items()}
    out.update({(kind, ""): k for kind, k in kinds.items()})
    return out


def solve_counts() -> dict:
    """kind -> calls of modular-solve: SOLVE_TRAFFIC plus SOLVE_COVERAGE."""
    out = _counts(SOLVE_TRAFFIC, SOLVE_TRAFFIC_OPS)
    for kind, k in SOLVE_COVERAGE.items():
        out[kind] += k
    return out


def _strata(rng: random.Random, k: int) -> list[float]:
    """The midpoints of k equal slices of [0, 1), in seeded order."""
    us = [(j + 0.5) / k for j in range(k)]
    rng.shuffle(us)
    return us


def _loguni(lo: float, hi: float, u: float) -> float:
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _z_near_one(u: float) -> tuple[float, str]:
    """z >= Z_SWITCH: a fifth at the switch edge, two fifths in the middle,
    two fifths with 1-z log-uniform in [1e-4, 0.03]."""
    if u < 0.2:
        return Z_SWITCH + 1e-3 * u / 0.2, "edge"
    if u < 0.6:
        return Z_SWITCH + (0.97 - Z_SWITCH) * (u - 0.2) / 0.4, "mid"
    return 1.0 - _loguni(Z_COMP_MIN, 0.03, (u - 0.6) / 0.4), "tail"


def _z_any(u: float) -> float:
    """z over [1e-3, 1 - 1e-4): half below Z_SWITCH (a tenth at its edge)."""
    if u < 0.45:
        return 1e-3 + (Z_SWITCH - 1e-3) * u / 0.45
    if u < 0.5:
        return Z_SWITCH - 1e-3 * (u - 0.45) / 0.05
    return _z_near_one((u - 0.5) / 0.5)[0]


def _ab_for(rng: random.Random, d: float) -> tuple[float, float, float]:
    """a, b log-uniform in [0.05, 3] with c = a+b+d inside (0.05, 50]."""
    while True:
        a = _loguni(0.05, 3.0, rng.random())
        b = _loguni(0.05, 3.0, rng.random())
        c = a + b + d
        if 0.05 < c <= 50.0:
            return a, b, c


def _sign(rng: random.Random) -> float:
    return rng.choice((-1.0, 1.0))


def _d_for(rng: random.Random, regime: str, u: float) -> tuple[float, str]:
    """c-a-b for a near-one regime, and the band it falls in."""
    if regime == "zero_balanced":
        if u < 0.2:
            return _sign(rng) * ZERO_BALANCED_TOL * (0.1 + 0.8 * u / 0.2), "tol-edge"
        return 0.0, ""
    if regime == "euler_band":
        if u < 0.2:
            return _sign(rng) * EULER_BAND * (0.9 + 0.099 * u / 0.2), "band-edge"
        return _sign(rng) * _loguni(10.0 * ZERO_BALANCED_TOL, EULER_BAND, (u - 0.2) / 0.8), ""
    if regime == "integer_d":
        m = float(rng.choice((-2, -1, 1, 2)))
        if u < 0.4:
            return m + _sign(rng) * _loguni(1e-12, INTEGER_SNAP, u / 0.4), "snap"
        return m, ""
    # connection: near each integer in [-2, 2], or generic
    if u < 0.5:
        m = rng.choice((-2, -1, 0, 1, 2))
        lo = EULER_BAND if m == 0 else INTEGER_SNAP
        return m + _sign(rng) * _loguni(1.01 * lo, 0.1, u / 0.5), "near-int"
    d = -2.5 + 5.0 * (u - 0.5) / 0.5
    if abs(d - round(d)) < 0.1:  # keep generic points 0.1 away from integers
        d = round(d) + math.copysign(0.1, d - round(d))
    return d, "generic"


def _hyp_point(rng: random.Random, regime: str, uz: float, ud: float) -> EvalPoint:
    if regime == "series":
        a, b = _loguni(0.05, 3.0, rng.random()), _loguni(0.05, 3.0, rng.random())
        c = _loguni(0.05, 5.0, rng.random())
        if uz < 0.15:
            return EvalPoint("hyp2f1", regime, "edge", a, b, c, Z_SWITCH - 1e-3 * uz / 0.15)
        return EvalPoint("hyp2f1", regime, "", a, b, c, 1e-3 + (Z_SWITCH - 1e-3) * uz)
    if regime == "connection" and ud >= 0.6:
        # the worst band: c-a-b in [1e-6, 1e-4] with z > 0.97
        d = _loguni(EULER_BAND, 1e-4, rng.random())
        a, b, c = _ab_for(rng, d)
        z = 0.97 + (1.0 - Z_COMP_MIN - 0.97) * uz
        return EvalPoint("hyp2f1", regime, "worst", a, b, c, z)
    d, dband = _d_for(rng, regime, ud / 0.6 if regime == "connection" else ud)
    a, b, c = _ab_for(rng, d)
    z, zband = _z_near_one(uz)
    return EvalPoint("hyp2f1", regime, dband or zband, a, b, c, z)


def _elliptic_abc(rng: random.Random) -> tuple[float, float, float]:
    """0 < a < min(c, 1) and 0 < b < c <= a+b; a third are zero-balanced."""
    a = rng.uniform(0.05, 0.95)
    if rng.random() < 1 / 3:
        b = rng.uniform(0.02, 1.5 - a)
        return a, b, a + b
    c = rng.uniform(a + 0.02, 1.5)
    return a, rng.uniform(c - a + 1e-3, c - 0.01), c


def _other_point(rng: random.Random, kind: str, uz: float) -> EvalPoint:
    if kind in ("ell_k", "ell_e", "ell_k_minus_e"):
        a, b, c = _elliptic_abc(rng)
        return EvalPoint(kind, "", "", a, b, c, math.sqrt(_z_any(uz)))
    if kind == "m_value":
        a, b = _loguni(0.1, 2.0, rng.random()), _loguni(0.1, 2.0, rng.random())
        c = rng.uniform(0.1, a + b + 0.9)
        if uz < 0.3:  # within 0.05 of an endpoint
            z = _loguni(1e-3, 0.05, uz / 0.3)
            return EvalPoint(kind, "", "endpoint", a, b, c, z if rng.random() < 0.5 else 1.0 - z)
        return EvalPoint(kind, "", "", a, b, c, 0.05 + 0.9 * (uz - 0.3) / 0.7)
    a, b = _loguni(0.1, 2.0, rng.random()), _loguni(0.1, 2.0, rng.random())  # mu
    c = a + b if rng.random() < 0.5 else rng.uniform(0.1, a + b)
    return EvalPoint("mu", "", "", a, b, c, math.sqrt(_z_any(uz)))


def eval_sweep_points(seed: int) -> list[EvalPoint]:
    """The eval-sweep calls for `seed`, in a seeded shuffled order."""
    rng = random.Random(f"eval-sweep/{seed}")
    pts = []
    for (kind, regime), k in eval_counts().items():
        for uz, ud in zip(_strata(rng, k), _strata(rng, k)):
            pts.append(_hyp_point(rng, regime, uz, ud) if kind == "hyp2f1"
                       else _other_point(rng, kind, uz))
    rng.shuffle(pts)
    return pts


def solve_draws(seed: int) -> list[dict]:
    """Raw modular-solve draws; reference.solve_points screens reachability.

    A phi_k draw carries SOLVE_SPARES candidates and the reference module
    takes the first whose target lies within |t| <= T_REACH, so the accepted
    set is still a pure function of the seed.
    """
    rng = random.Random(f"modular-solve/{seed}")
    out = []
    for kind, k in solve_counts().items():
        for u1, u2 in zip(_strata(rng, k), _strata(rng, k)):
            if kind == "mu_inv":
                a, b = rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)
                c = rng.uniform(0.1, a + b - 0.2)
                y = math.exp(LOG_Y_MAX * (2.0 * u1 - 1.0))
                out.append({"kind": kind, "cands": [(a, b, c, 0.0, 1.0, y)]})
                continue
            cands = []
            for j in range(SOLVE_SPARES):
                # spares after the first fall back to plain uniforms
                v1, v2 = (u1, u2) if j == 0 else (rng.random(), rng.random())
                a = rng.uniform(0.05, 0.9)
                b = rng.uniform(0.05, 1.0 - a)
                r = math.sqrt(1.0 / (1.0 + math.exp(-(12.0 * v1 - 6.0))))
                K = math.exp(LOG_K_MAX * (2.0 * v2 - 1.0))
                cands.append((a, b, a + b, r, K, 0.0))
            out.append({"kind": kind, "cands": cands})
    rng.shuffle(out)
    return out
