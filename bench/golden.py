"""The verify-all golden: every check's verdict, sample count and worst margin
as the seed commit reports them, and the comparison the benchmark applies.

Verdicts and sample counts must match exactly.  ``worst_margin`` must match
only within ``margin_tol``, the check's own error estimate carried through
its margin formula, so a legitimate reordering of floating-point work does
not count as a failure.

    PYTHONPATH=src python3 bench/golden.py   # rewrite golden_verify.json

Rewriting the golden is for a change that is meant to move verdicts or error
estimates; a performance change must leave it untouched.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from pathlib import Path

GOLDEN_PATH = Path(__file__).resolve().parent / "golden_verify.json"
_CALLABLES = ("fn", "rhs", "param_map", "lo_limit", "hi_limit", "lo_probe", "hi_probe")


class Tracker:
    """Time spent inside a spec's callables; with ``record``, also every call
    in order as (name, args, output), for margin_tol."""

    def __init__(self, record: bool = False):
        self.callable_s = 0.0
        self.calls = [] if record else None

    def wrap(self, name, f):
        def timed(*args):
            t0 = time.perf_counter()
            try:
                out = f(*args)
            finally:
                self.callable_s += time.perf_counter() - t0
            if self.calls is not None:
                self.calls.append((name, args, out))
            return out
        return timed


def instrument(spec, tracker: Tracker):
    """A copy of `spec` whose callables report to `tracker`."""
    repl = {n: tracker.wrap(n, getattr(spec, n)) for n in _CALLABLES
            if getattr(spec, n) is not None}
    return dataclasses.replace(spec, **repl)


def _combos(calls):
    """The recorded calls split at each param_map call, skipped combos dropped."""
    combo = None
    for name, args, out in calls:
        if name == "param_map":
            if combo:
                yield combo
            combo = [] if out is not None else None
        elif combo is not None:
            combo.append((name, args, out))
    if combo:
        yield combo


def _samples(spec, combo):
    """(margin, tolerance, stop) for each margin the engine notes in one
    parameter combo, formed as the engine forms it.  The tolerance is how far
    that margin moves when each value in it moves by its own abs_err_est.
    stop is "combo" or "check" where the engine stops there."""
    fns = [out for name, _, out in combo if name == "fn"]
    tol = spec.tolerance
    if spec.kind in ("monotone", "convex_concave"):
        xs = spec.arg_grid.dims[0].points()
        ys = [float(v) for v, _ in fns[:len(xs)]]
        es = [float(e) for _, e in fns[:len(xs)]]
        for i in range(1, len(xs) - 1) if spec.kind == "convex_concave" else range(len(xs) - 1):
            if spec.kind == "monotone":
                signed = spec.direction * (ys[i + 1] - ys[i])
                slack = es[i] + es[i + 1] + 1e-300
            else:
                h0, h1, span = xs[i] - xs[i - 1], xs[i + 1] - xs[i], xs[i + 1] - xs[i - 1]
                c0, c1, c2 = 2.0 / (h0 * span), 2.0 / (h0 * h1), 2.0 / (h1 * span)
                signed = spec.direction * (c0 * ys[i - 1] - c1 * ys[i] + c2 * ys[i + 1])
                slack = c0 * es[i - 1] + c1 * es[i] + c2 * es[i + 1] + 1e-300
            # the values move the difference by up to slack; slack is itself an estimate
            yield signed - slack, 2.0 * slack, "check" if signed < -slack else None
    elif spec.kind == "inequality":
        for m, err in fns:
            m, err = float(m), float(err)
            yield m, err, "check" if m < -(err + tol) else None
    elif spec.kind == "identity":
        rhs = [out for name, _, out in combo if name == "rhs"]
        for (lhs, el), (r, er) in zip(fns, rhs):
            lhs, el = float(lhs), float(el)
            diff = abs(lhs - r)
            bound = tol * max(1.0, abs(lhs), abs(r))
            stop = None if diff <= bound else "check" if diff > el + er else "combo"
            yield bound - diff, (el + er) * (1.0 + tol), stop
    elif spec.kind == "limit":
        (target, et), = [out for name, _, out in combo if name == "rhs"]
        for y, err in fns:
            y, err = float(y), float(err)
            diff = abs(y - target)
            bound = tol * max(1.0, abs(target))
            yield bound - diff, err + et * (1.0 + tol), "check" if diff > bound + err else None
    elif spec.kind == "derivative_match":
        from genellip.verify.engine import finite_diff
        h = spec.fd_h
        rhs = [(args[1], out) for name, args, out in combo if name == "rhs"]
        for j, (x, (ref, er)) in enumerate(rhs):
            five = fns[5 * j:5 * j + 5]  # f(x+h), f(x-h), f(x+h/2), f(x-h/2), f(x)
            vals = iter(float(v) for v, _ in five)
            fd = finite_diff(lambda t: next(vals), x, h)
            e = [float(err) for _, err in five]
            scale = max(abs(ref), 1e-300)
            rel = abs(fd.first - ref) / scale
            dfd = (4.0 / 3.0) * (e[2] + e[3]) / h + (e[0] + e[1]) / (6.0 * h)
            stop = None
            if rel > tol:
                stop = "combo" if fd.first_err > tol * scale else "check"
            yield tol - rel, (dfd + er * (1.0 + rel)) / scale, stop


def margin_tol(spec, tracker: Tracker, worst_margin: float) -> float:
    """How far worst_margin may move while every value the check computed
    stays within its own error estimate.

    Each noted margin m_i gets its own tolerance t_i from the values that
    form it.  The worst margin then stays in [min_i(m_i - t_i), m_j + t_j],
    where j is the sample that set it; the lower end is the farther one.
    The margins are replayed from the recorded calls and must reproduce the
    engine's worst_margin exactly.
    """
    worst, low = math.inf, math.inf
    for combo in _combos(tracker.calls):
        stop = None
        for m, t, stop in _samples(spec, combo):
            worst, low = min(worst, m), min(low, m - t)
            if stop is not None:
                break
        if stop == "check":
            break
    if not math.isfinite(worst):
        worst = low = 0.0
    if worst != worst_margin:
        raise RuntimeError(f"{spec.id}: replayed worst margin {worst!r} is not the "
                           f"engine's {worst_margin!r}")
    return worst - low


def load() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def mismatch(gold: dict, report) -> str | None:
    """Why `report` differs from its golden entry, or None if it matches."""
    if report.verdict != gold["verdict"]:
        return f"verdict {report.verdict} != {gold['verdict']}"
    if report.samples != gold["samples"]:
        return f"samples {report.samples} != {gold['samples']}"
    if not abs(report.worst_margin - gold["worst_margin"]) <= gold["margin_tol"]:
        return (f"worst_margin {report.worst_margin!r} outside "
                f"{gold['worst_margin']!r} +- {gold['margin_tol']!r}")
    return None


def main() -> None:
    from genellip.hypergeom import _eval_pair
    from genellip.modulus import _solve_log_mu
    from genellip.verify import registry, run_check

    _eval_pair.cache_clear()
    _solve_log_mu.cache_clear()
    out = {}
    for cid, spec in registry().items():
        tracker = Tracker(record=True)
        rep = run_check(instrument(spec, tracker))
        out[cid] = {"verdict": rep.verdict, "samples": rep.samples,
                    "worst_margin": rep.worst_margin,
                    "margin_tol": margin_tol(spec, tracker, rep.worst_margin)}
    GOLDEN_PATH.write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {len(out)} checks to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
