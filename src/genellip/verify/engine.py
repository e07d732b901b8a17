"""Grid-based numerical verification of monotonicity/convexity/inequality claims.

A CheckSpec binds a scalar function of (parameters, argument) to a claim kind
and a pair of grids.  run_check evaluates the function across the grid
product and issues a three-way verdict:

    pass          the claimed property holds with margin beyond error bounds
    fail          a point violates the claim by more than the error bounds
    inconclusive  margins are inside the error bounds (or an endpoint limit
                  approaches too slowly for the grid to resolve)

Strict monotonicity and convexity are judged on discrete deltas with
error-aware slack: correctly-signed deltas must beat the combined error
estimate at >= 99% of consecutive pairs (endpoint cells near removable
limits are allowed to be flat), and no wrongly-signed delta may exceed it.

Claims of the form "strictly monotone from I onto J" carry the range facet
in the same check: grid values must stay inside J, and the endpoint values
of J are verified at boundary-adjacent probe points.  True limits are
unreachable numerically, so endpoint attainment uses a relaxed tolerance
(default 1e-3, wider where the approach rate is logarithmic; each spec's
claim text documents the rate), accepting also a contraction of the gap by
`decay_factor` relative to the nearest grid edge.  Infinite endpoints
require the probe to grow 1.5x beyond the edge value.  Attainment that the
grid cannot resolve downgrades to inconclusive, never to fail; containment
violations beyond error bounds fail.

The pointwise kinds (inequality, identity, derivative_match, limit) share
one sampling loop, `_run_points`.  Each gives it a judge that evaluates one
point and returns (margin, witness fields, verdict, note): the verdict is
"pass", "fail", "inconclusive" (the note says why) or, for inequality only,
"weak", a point that holds but not beyond its error.  The loop notes every
margin, stops the combo at the first point that fails or is inconclusive,
and turns an evaluation error into an inconclusive "evaluation failed".
Weak points count against the same >= 99% strict rule as the shape kinds:
the rule lives in one method, `_Outcome.strict`.  Margins are noted
without witnesses; only a fail or the first downgrade builds one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from ..errors import GenellipError, ParameterError, checked
from ..scalar_special import _lngamma_raw, digamma

VERDICTS = ("pass", "fail", "inconclusive")

_STRICT_FRACTION = 0.99
_GROWTH_FACTOR = 1.5


@dataclass(frozen=True)
class GridDim:
    """One grid dimension; `values` pins an explicit point set."""

    name: str
    lo: float
    hi: float
    count: int
    scale: str = "linear"
    values: Optional[tuple] = None

    def __post_init__(self):
        if self.values is not None:
            vals = tuple(float(v) for v in self.values)
            if not vals:
                raise ParameterError(f"grid dim {self.name!r}: empty values")
            object.__setattr__(self, "values", vals)
            object.__setattr__(self, "lo", min(vals))
            object.__setattr__(self, "hi", max(vals))
            object.__setattr__(self, "count", len(vals))
        else:
            if not self.lo < self.hi:
                raise ParameterError(f"grid dim {self.name!r}: need lo < hi")
            if self.count < 3:
                raise ParameterError(f"grid dim {self.name!r}: need count >= 3")
        if self.scale not in ("linear", "log", "logit"):
            raise ParameterError(f"grid dim {self.name!r}: bad scale {self.scale!r}")
        if self.scale == "log" and self.lo <= 0.0:
            raise ParameterError(f"grid dim {self.name!r}: log scale needs lo > 0")
        if self.scale == "logit" and not (0.0 < self.lo and self.hi < 1.0):
            raise ParameterError(f"grid dim {self.name!r}: logit scale needs (0,1)")
        if self.values is None and not (np.diff(self.points()) > 0.0).all():
            raise ParameterError(f"grid dim {self.name!r}: its {self.count} points are "
                                 "not distinct in floating point")

    def points(self) -> np.ndarray:
        if self.values is not None:
            return np.asarray(self.values, dtype=float)
        if self.scale == "linear":
            return np.linspace(self.lo, self.hi, self.count)
        if self.scale == "log":
            return np.geomspace(self.lo, self.hi, self.count)
        t = np.linspace(math.log(self.lo / (1.0 - self.lo)),
                        math.log(self.hi / (1.0 - self.hi)), self.count)
        return 1.0 / (1.0 + np.exp(-t))


@dataclass(frozen=True)
class GridSpec:
    dims: tuple

    def __post_init__(self):
        if not self.dims:
            raise ParameterError("grid must have at least one dimension")

    def combos(self):
        """Iterate dicts over the cartesian product of the dims."""
        names = [d.name for d in self.dims]
        for row in itertools.product(*(d.points().tolist() for d in self.dims)):
            yield dict(zip(names, row))


@dataclass(frozen=True)
class CheckSpec:
    """A declarative claim: id, statement, kind, grids, and evaluators.

    `fn(params, x) -> (value, abs_err_est)` is the scalar under test.  The
    remaining callables fill in kind-specific structure; see run_check.
    """

    id: str
    claim: str
    kind: str
    param_grid: GridSpec
    arg_grid: GridSpec
    tolerance: float = 1e-9
    gating: bool = True
    fn: Optional[Callable] = None
    direction: int = 0
    param_map: Optional[Callable] = None
    lo_limit: Optional[Callable] = None
    hi_limit: Optional[Callable] = None
    lo_probe: Optional[Callable] = None
    hi_probe: Optional[Callable] = None
    lo_attain: float = 1e-3
    hi_attain: float = 1e-3
    decay_factor: float = 0.5
    strict: bool = True
    rhs: Optional[Callable] = None
    fd_h: float = 1e-5

    def __post_init__(self):
        if self.kind not in _RUNNERS:
            raise ParameterError(f"unknown check kind {self.kind!r}")
        if not self.tolerance > 0.0:
            raise ParameterError("tolerance must be positive")
        if self.kind in ("monotone", "convex_concave") and self.direction not in (-1, 1):
            raise ParameterError(f"{self.kind} check needs direction +1 or -1")


@dataclass(frozen=True)
class CheckReport:
    id: str
    verdict: str
    worst_margin: float
    witness: Optional[dict]
    samples: int

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise ParameterError(f"bad verdict {self.verdict!r}")
        if self.verdict == "fail" and self.witness is None:
            raise ParameterError("fail verdict requires a witness")


@dataclass(frozen=True)
class PABNotation:
    """P = Psi(c-a+t) - Psi(c+t); A = (c-a,t)/(c,t); B_t = P(a,c,t) - P(a,c,0).
    A > 0 for 0 < a < c, t > 0; B_t >= 0 with equality iff t = 0."""

    a: float
    c: float
    t: float
    P: float
    A: float
    B_t: float


def pab(a: float, c: float, t: float) -> PABNotation:
    """Digamma-difference notation for the parameter-dependence results."""
    a = checked("a", a, "(0, inf)", ParameterError)
    c = checked("c", c, "(0, inf)", ParameterError)
    if not a < c:
        raise ParameterError(f"need 0 < a < c, got a={a!r}, c={c!r}")
    t = checked("t", t, "[0, inf)", ParameterError)
    P = digamma(c - a + t).value - digamma(c + t).value
    A = 1.0 if t == 0.0 else math.exp(_lngamma_raw(c - a + t) - _lngamma_raw(c + t)
                                      + _lngamma_raw(c) - _lngamma_raw(c - a))
    B_t = P - (digamma(c - a).value - digamma(c).value)
    return PABNotation(a, c, t, P, A, B_t)


@dataclass(frozen=True)
class FiniteDiff:
    first: float
    first_err: float


def finite_diff(f: Callable[[float], float], x: float, h: float) -> FiniteDiff:
    """Richardson-refined central difference with an error estimate."""
    if not h > 0.0:
        raise ParameterError("step h must be positive")
    fp, fm = f(x + h), f(x - h)
    fp2, fm2 = f(x + 0.5 * h), f(x - 0.5 * h)
    scale = max(abs(fp), abs(fm), abs(f(x)), 1e-300)
    d1a = (fp - fm) / (2.0 * h)
    d1b = (fp2 - fm2) / h
    first = d1b + (d1b - d1a) / 3.0
    return FiniteDiff(first, abs(d1b - d1a) / 3.0 + 4e-16 * scale / h)


class _Outcome:
    """The state of one run: the samples evaluated so far, the worst margin
    and the verdict they add up to.  A margin is noted without a witness:
    only a fail or the first downgrade builds one (its params and fields),
    and only those reach a report.  Samples, arguments and margins are
    Python floats."""

    def __init__(self):
        self.samples = 0
        self.verdict = "pass"
        self.worst = math.inf
        self.witness = None

    def eval(self, spec, params, x):
        """`spec.fn` at (params, x) as floats, counted as one sample."""
        self.samples += 1
        value, err = spec.fn(params, x)
        return float(value), float(err)

    def note(self, margin):
        self.worst = min(self.worst, margin)

    def fail(self, margin, params, /, **fields):
        # Every runner stops at its first fail, so the failing point is the
        # witness, over any earlier downgrade.
        self.verdict = "fail"
        self.witness = {**params, **fields}
        self.worst = min(self.worst, margin)

    def inconclusive(self, params, /, **fields):
        # The first downgrade keeps its witness, so the cause stays visible.
        if self.verdict == "pass":
            self.verdict = "inconclusive"
            self.witness = {**params, **fields}

    def strict(self, params, hits, total, note):
        """The >= 99% strict rule of every kind: a combo is inconclusive
        where fewer than 99% of its `total` pairs or points (`hits` of
        them) beat their error bounds."""
        if hits < _STRICT_FRACTION * total:
            self.inconclusive(params, note=note, strict_pairs=hits, pairs=total)

    def report(self, check_id):
        worst = self.worst if math.isfinite(self.worst) else 0.0
        witness = self.witness if self.verdict != "pass" else None
        return CheckReport(check_id, self.verdict, worst, witness, self.samples)


def _check_sequence(spec, params, xs, ys, errs, out):
    """Monotone slack rule on consecutive deltas."""
    strict_hits = 0
    for i in range(len(xs) - 1):
        delta = spec.direction * (ys[i + 1] - ys[i])
        slack = errs[i] + errs[i + 1] + 1e-300
        out.note(delta - slack)
        if delta < -slack:
            out.fail(delta - slack, params, arg=xs[i], value=ys[i],
                     next_arg=xs[i + 1], next_value=ys[i + 1])
            return
        strict_hits += delta > slack
    out.strict(params, strict_hits, len(xs) - 1, "deltas inside error bounds")


def _check_second_diffs(spec, params, xs, ys, errs, out):
    """Divided second differences with exact-coefficient error slack."""
    strict_hits = 0
    for i in range(1, len(xs) - 1):
        h0 = xs[i] - xs[i - 1]
        h1 = xs[i + 1] - xs[i]
        span = xs[i + 1] - xs[i - 1]
        c0 = 2.0 / (h0 * span)
        c1 = 2.0 / (h0 * h1)
        c2 = 2.0 / (h1 * span)
        d2 = c0 * ys[i - 1] - c1 * ys[i] + c2 * ys[i + 1]
        slack = c0 * errs[i - 1] + c1 * errs[i] + c2 * errs[i + 1] + 1e-300
        signed = spec.direction * d2
        out.note(signed - slack)
        if signed < -slack:
            out.fail(signed - slack, params, arg=xs[i], value=ys[i], second_diff=d2)
            return
        strict_hits += signed > slack
    out.strict(params, strict_hits, len(xs) - 2, "second differences inside error bounds")


def _check_containment(spec, params, xs, ys, errs, out):
    """Grid values must lie between the two endpoint limits of the range."""
    if spec.lo_limit is None or spec.hi_limit is None:
        return
    ends = (spec.lo_limit(params), spec.hi_limit(params))
    lo_b, hi_b = min(ends), max(ends)
    for x, y, e in zip(xs, ys, errs):
        if math.isfinite(lo_b) and y < lo_b - e - 1e-12 * max(1.0, abs(lo_b)):
            out.fail(y - lo_b, params, arg=x, value=y, bound=lo_b)
            return
        if math.isfinite(hi_b) and y > hi_b + e + 1e-12 * max(1.0, abs(hi_b)):
            out.fail(hi_b - y, params, arg=x, value=y, bound=hi_b)
            return


def _check_endpoint(spec, params, side, edge_value, out):
    limit_fn = spec.lo_limit if side == "lo" else spec.hi_limit
    probe_fn = spec.lo_probe if side == "lo" else spec.hi_probe
    attain = spec.lo_attain if side == "lo" else spec.hi_attain
    if limit_fn is None or probe_fn is None:
        return
    target = limit_fn(params)
    x = probe_fn(params)
    try:
        y, err = out.eval(spec, params, x)
    except GenellipError as exc:
        out.inconclusive(params, arg=x, note=f"endpoint probe failed: {exc}")
        return
    if math.isinf(target):
        grown = (y >= _GROWTH_FACTOR * abs(edge_value) + 1.0) if target > 0 \
            else (-y >= _GROWTH_FACTOR * abs(edge_value) + 1.0)
        if not grown:
            out.inconclusive(params, arg=x, value=y, edge=edge_value,
                             note=f"{side} endpoint divergence unresolved")
        return
    gap = abs(y - target)
    bound = attain * max(1.0, abs(target))
    edge_gap = abs(edge_value - target)
    if gap <= bound + err or gap <= spec.decay_factor * edge_gap:
        return
    out.inconclusive(params, arg=x, value=y, target=target,
                     note=f"{side} endpoint approach unresolved")


def _run_shape(spec, params, out, checker):
    """Sample the whole grid, then judge the shape (if any), the range and
    the endpoints."""
    xs = spec.arg_grid.dims[0].points().tolist()
    ys, errs = [], []
    for x in xs:
        try:
            y, err = out.eval(spec, params, x)
        except GenellipError as exc:
            out.inconclusive(params, arg=x, note=f"evaluation failed: {exc}")
            return
        if not math.isfinite(y):
            out.inconclusive(params, arg=x, value=y, note="non-finite sample")
            return
        ys.append(y)
        errs.append(err)
    if checker is not None:
        checker(spec, params, xs, ys, errs, out)
        if out.verdict == "fail":
            return
    _check_containment(spec, params, xs, ys, errs, out)
    if out.verdict == "fail":
        return
    _check_endpoint(spec, params, "lo", ys[0], out)
    _check_endpoint(spec, params, "hi", ys[-1], out)


def _judge_inequality(spec, params, out):
    def judge(x):
        m, err = out.eval(spec, params, x)
        verdict = "fail" if m < -(err + spec.tolerance) else "pass" if m > err else "weak"
        return m, {"margin": m}, verdict, None
    return judge


def _judge_identity(spec, params, out):
    def judge(x):
        lhs, el = out.eval(spec, params, x)
        rhs, er = spec.rhs(params, x)
        out.samples += 1
        diff = abs(lhs - rhs)
        bound = spec.tolerance * max(1.0, abs(lhs), abs(rhs))
        margin, fields = bound - diff, {"lhs": lhs, "rhs": rhs}
        if not diff > bound:
            return margin, fields, "pass", None
        if diff <= el + er:
            return margin, fields, "inconclusive", "difference inside error bounds"
        return margin, fields, "fail", None
    return judge


def _judge_derivative(spec, params, out):
    def judge(x):
        fd = finite_diff(lambda t: out.eval(spec, params, t)[0], x, spec.fd_h)
        ref, _ = spec.rhs(params, x)
        out.samples += 1
        scale = max(abs(ref), 1e-300)
        rel = abs(fd.first - ref) / scale
        margin, fields = spec.tolerance - rel, {"fd": fd.first, "formula": ref}
        if not rel > spec.tolerance:
            return margin, fields, "pass", None
        if fd.first_err > spec.tolerance * scale:
            return margin, fields, "inconclusive", "finite-difference error too large"
        return margin, fields, "fail", None
    return judge


def _judge_limit(spec, params, out):
    target = spec.rhs(params, 0.0)[0]
    bound = spec.tolerance * max(1.0, abs(target))

    def judge(x):
        y, err = out.eval(spec, params, x)
        diff = abs(y - target)
        verdict = "fail" if diff > bound + err else "pass"
        return bound - diff, {"value": y, "target": target}, verdict, None
    return judge


def _run_points(spec, params, out, make_judge):
    """Judge each grid point on its own and stop at the first bad one."""
    judge = make_judge(spec, params, out)
    xs = spec.arg_grid.dims[0].points().tolist()
    strict_hits = 0
    for x in xs:
        try:
            margin, fields, verdict, note = judge(x)
        except GenellipError as exc:
            out.inconclusive(params, arg=x, note=f"evaluation failed: {exc}")
            return
        out.note(margin)
        if verdict == "fail":
            out.fail(margin, params, arg=x, **fields)
            return
        if verdict == "inconclusive":
            out.inconclusive(params, arg=x, **fields, note=note)
            return
        strict_hits += verdict == "pass"
    if spec.strict:
        out.strict(params, strict_hits, len(xs), "margins inside error bounds")


_RUNNERS = {
    "monotone": (_run_shape, _check_sequence),
    "convex_concave": (_run_shape, _check_second_diffs),
    "range_endpoints": (_run_shape, None),
    "inequality": (_run_points, _judge_inequality),
    "identity": (_run_points, _judge_identity),
    "derivative_match": (_run_points, _judge_derivative),
    "limit": (_run_points, _judge_limit),
}


def run_check(spec: CheckSpec) -> CheckReport:
    """Evaluate one claim across its grids; deterministic for a fixed spec."""
    runner, how = _RUNNERS[spec.kind]
    out = _Outcome()
    ran = 0
    for raw in spec.param_grid.combos():
        params = spec.param_map(raw) if spec.param_map else raw
        if params is None:
            continue
        ran += 1
        runner(spec, params, out, how)
        if out.verdict == "fail":
            break
    if ran == 0:
        raise ParameterError(f"check {spec.id!r}: parameter grid is empty after mapping")
    return out.report(spec.id)
