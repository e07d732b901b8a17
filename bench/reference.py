"""mpmath references for eval-sweep and the reachability screen of modular-solve.

The references are computed once per seed, outside every timed region, and
kept in ``.bench_cache/`` at the root of the checkout.  The cache key hashes
this file and workloads.py, so a change to the draw or to the reference
recomputes it.  Each reference is stored as a double-double (hi, lo) so that
rounding the 40-digit value to a float cannot itself look like an error.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import mpmath as mp

import workloads as wl

DPS = 40
_HERE = Path(__file__).resolve().parent


def _cache_path(root: Path, name: str, seed: int) -> Path:
    h = hashlib.sha256()
    for f in ("workloads.py", "reference.py"):
        h.update((_HERE / f).read_bytes())
    return root / ".bench_cache" / f"{name}-{seed}-{h.hexdigest()[:12]}.json"


def _cached(root: Path, name: str, seed: int, build):
    path = _cache_path(root, name, seed)
    if path.exists():
        return json.loads(path.read_text())
    data = build()
    path.parent.mkdir(exist_ok=True)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data))
    tmp.replace(path)
    return data


def _dd(x: mp.mpf) -> list[float]:
    hi = float(x)
    return [hi, float(x - hi)]


def _f(a, b, c, z):
    """F(a,b;c;z); callers form z, and 1-z where it is needed, exactly."""
    return mp.hyp2f1(a, b, c, z)


def _ref_eval(p: wl.EvalPoint) -> mp.mpf:
    a, b, c, x = (mp.mpf(v) for v in (p.a, p.b, p.c, p.x))
    if p.kind == "hyp2f1":
        return _f(a, b, c, x)
    if p.kind == "m_value":
        z, zc = x, 1 - x
        v, u = _f(a, b, c, z), _f(a - 1, b, c, z)
        v1, u1 = _f(a, b, c, zc), _f(a - 1, b, c, zc)
        return (c - a) * (u * v1 + u1 * v) + (2 * (a - c) + b) * v * v1
    z, zc = x * x, 1 - x * x
    hb = mp.beta(a, b) / 2
    if p.kind == "ell_k":
        return hb * _f(a, b, c, z)
    if p.kind == "ell_e":
        return hb * _f(a - 1, b, c, z)
    if p.kind == "ell_k_minus_e":
        return hb * (_f(a, b, c, z) - _f(a - 1, b, c, z))
    return hb * _f(a, b, c, zc) / _f(a, b, c, z)  # mu


def eval_reference(root: Path, seed: int):
    """(points, refs) for eval-sweep; refs[i] is the double-double [hi, lo]."""
    pts = wl.eval_sweep_points(seed)

    def build():
        with mp.workdps(DPS):
            return [_dd(_ref_eval(p)) for p in pts]

    return pts, _cached(root, "eval-sweep", seed, build)


def _reachable(a: float, b: float, c: float, r: float, K: float) -> bool:
    """Is log mu(r) - log K attained with |t| <= T_REACH?

    Uses the zero-balanced asymptotics mu ~ (|t|+R)/2 as t -> -inf and
    mu ~ B^2/(2(t+R)) as t -> +inf, with R = -psi(a)-psi(b)-2*gamma; both
    are exact to far below double precision at |t| = T_REACH.
    """
    a_, b_, c_, r_ = (mp.mpf(v) for v in (a, b, c, r))
    B = mp.beta(a_, b_)
    z, zc = r_ * r_, 1 - r_ * r_
    log_target = mp.log(B / 2 * _f(a_, b_, c_, zc) / _f(a_, b_, c_, z)) - mp.log(K)
    R = -mp.digamma(a_) - mp.digamma(b_) - 2 * mp.euler
    hi = mp.log((wl.T_REACH + R) / 2)
    lo = 2 * mp.log(B / 2) - hi
    return lo < log_target < hi


def solve_points(root: Path, seed: int) -> list[wl.SolvePoint]:
    """The modular-solve calls for `seed`: for phi_k, the first candidate of
    each draw whose target is reachable."""
    draws = wl.solve_draws(seed)

    def build():
        out = []
        with mp.workdps(DPS):
            for d in draws:
                cands = d["cands"]
                pick = cands[0] if d["kind"] == "mu_inv" else next(
                    (cand for cand in cands if _reachable(*cand[:5])), None)
                if pick is None:
                    raise RuntimeError(f"seed {seed}: no reachable modular-solve draw")
                out.append([d["kind"], *pick])
        return out

    return [wl.SolvePoint(*row) for row in _cached(root, "modular-solve", seed, build)]


def rel_error(value: float, ref: list[float]) -> float:
    """|value - ref| / |ref| against a double-double reference."""
    hi, lo = ref
    diff = abs((value - hi) - lo)
    return diff / abs(hi) if hi != 0.0 else diff


def abs_error(value: float, ref: list[float]) -> float:
    hi, lo = ref
    return abs((value - hi) - lo)

