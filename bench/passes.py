"""Passes of the workloads and of all registry checks, the correctness
checks on their outputs, and the traced layer probes.

A pass calls the public API of genellip from this one thread, each call
waiting for the previous one (a closed loop with one caller).  Both LRU
caches are cleared before every pass, because every CLI invocation starts
cold and eval-sweep and modular-solve are meant to see no cache reuse.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import genellip as g
from genellip import elliptic, hypergeom, legendre_m, modulus
from genellip.verify import registry, run_check

import golden
import reference
import workloads as wl

EVAL_REL_TOL = 1e-10    # eval-sweep: a value further off the reference fails
RESIDUAL_TOL = 1e-13    # modular-solve: the log-mu residual mu_inv_m documents
# Beyond these an output is wrong rather than inexact; the run is then not
# correct.  Both sit far above every error the seed commit is known to make.
GROSS_REL = 1e-4
GROSS_RESIDUAL = 1e-8

FAMILIES = ("funcineq1", "ekmonot", "ktheo", "linconj")
COLD_EVAL = ["eval", "K", "--a", "0.5", "--b", "0.5", "--c", "1", "--r", "0.5"]
COLD_EVAL_VALUE = 1.685750354812596  # classical K at modulus 1/2

_pc = time.perf_counter
# The 2F1 kernel and the modulus solver, with their LRU caches if they have
# them, and the modules that call them by name.
_PAIR = hypergeom._eval_pair
_SOLVE = modulus._solve_log_mu
_PAIR_CALLERS = (hypergeom, elliptic, legendre_m, modulus)


def reset() -> None:
    """Clear both LRU caches and collect all garbage, so that every pass
    starts cold and from the same state, and the collector then runs at the
    same points of each pass."""
    for f in (_PAIR, _SOLVE):
        clear = getattr(f, "cache_clear", None)
        if clear is not None:
            clear()
    gc.collect()


def _hits(f) -> int:
    """Cache hits since the last reset(); none without a cache."""
    info = getattr(f, "cache_info", None)
    return info().hits if info is not None else 0


class CallCounter:
    """Counts every call of _eval_pair and _solve_log_mu while active, by
    replacing the module globals the package calls them through.  The counts
    do not depend on the caches, so removing one shows as a lower hit ratio
    and more solves."""

    def __enter__(self):
        self.pairs = self.solves = 0

        def pair(*args):
            self.pairs += 1
            return _PAIR(*args)

        def solve(*args):
            self.solves += 1
            return _SOLVE(*args)

        for mod in _PAIR_CALLERS:
            mod._eval_pair = pair
        modulus._solve_log_mu = solve
        return self

    def __exit__(self, *exc):
        for mod in _PAIR_CALLERS:
            mod._eval_pair = _PAIR
        modulus._solve_log_mu = _SOLVE


def cache_metrics(counter: CallCounter) -> dict:
    """Calls, solves and hit ratios of a pass that began with reset()
    (which also zeroes the hit counts) and ran under `counter`."""
    pair_hits, solve_hits = _hits(_PAIR), _hits(_SOLVE)
    return {
        "hypergeom.calls": counter.pairs,
        "hypergeom.cache_hit_ratio": pair_hits / counter.pairs if counter.pairs else 0.0,
        "modulus.solves": counter.solves - solve_hits,
        "modulus.solver_cache_hit_ratio": solve_hits / counter.solves if counter.solves else 0.0,
    }


@dataclass
class Pass:
    wall_s: float
    op_s: list
    outputs: list


@dataclass
class Check:
    """Per-pass verdict on the outputs; `failed` holds operation indices."""

    failed: set = field(default_factory=set)
    gross: int = 0
    notes: dict = field(default_factory=dict)


def time_ops(calls) -> Pass:
    """One pass over prebuilt (function, args) calls, each timed on its own.

    An exception is kept as the call's output; the checks count it as a
    failure.
    """
    reset()
    n = len(calls)
    outs = [None] * n
    dts = [0.0] * n
    start = _pc()
    for i, (f, args) in enumerate(calls):
        t0 = _pc()
        try:
            outs[i] = f(*args)
        except Exception as exc:  # recorded and counted as a failed operation
            outs[i] = exc
        dts[i] = _pc() - t0
    return Pass(_pc() - start, dts, outs)


def traced_ops(calls) -> tuple[Pass, list]:
    """time_ops with a span per call: the _eval_pair calls each one made."""
    reset()
    n = len(calls)
    outs = [None] * n
    dts = [0.0] * n
    pair_calls = [0] * n
    with CallCounter() as counter:
        start = _pc()
        for i, (f, args) in enumerate(calls):
            before = counter.pairs
            t0 = _pc()
            try:
                outs[i] = f(*args)
            except Exception as exc:  # recorded and counted as a failed operation
                outs[i] = exc
            dts[i] = _pc() - t0
            pair_calls[i] = counter.pairs - before
        wall = _pc() - start
    return Pass(wall, dts, outs), pair_calls


def same_outputs(first: list, later: list) -> set:
    """Indices where a later pass disagrees with the first, bit for bit."""
    return {i for i, (x, y) in enumerate(zip(first, later)) if repr(x) != repr(y)}


# ---------------------------------------------------------------- eval-sweep

def eval_calls(pts) -> list:
    out = []
    for p in pts:
        if p.kind == "hyp2f1":
            out.append((g.hyp2f1, (g.HypParams(p.a, p.b, p.c), p.x)))
        elif p.kind == "m_value":
            out.append((g.m_value, (g.MPoint(p.a, p.b, p.c, p.x),)))
        elif p.kind == "mu":
            out.append((g.mu, (g.ModulusParams(p.a, p.b, p.c), p.x)))
        else:
            fn = {"ell_k": g.ell_k, "ell_e": g.ell_e, "ell_k_minus_e": g.ell_k_minus_e}[p.kind]
            out.append((fn, (g.EllipticParams(p.a, p.b, p.c), g.Modulus.from_r(p.x))))
    return out


def check_eval(refs, outs) -> Check:
    """Fails: raised, non-finite, or off the reference by > EVAL_REL_TOL.

    notes["bound_miss"] lists the indices whose actual error exceeds their
    own abs_err_est.
    """
    chk = Check(notes={"bound_miss": set(), "max_rel": 0.0})
    for i, (ref, out) in enumerate(zip(refs, outs)):
        if isinstance(out, Exception) or not math.isfinite(out.value):
            chk.failed.add(i)
            chk.gross += 1
            continue
        rel = reference.rel_error(out.value, ref)
        chk.notes["max_rel"] = max(chk.notes["max_rel"], rel)
        if rel > EVAL_REL_TOL:
            chk.failed.add(i)
            chk.gross += rel > GROSS_REL
        if reference.abs_error(out.value, ref) > out.abs_err_est:
            chk.notes["bound_miss"].add(i)
    return chk


# ------------------------------------------------------------- modular-solve

def solve_calls(pts) -> list:
    out = []
    for p in pts:
        P = g.ModulusParams(p.a, p.b, p.c)
        if p.kind == "phi_k":
            out.append((g.phi_k, (P, p.K, p.r)))
        else:
            out.append((g.mu_inv, (P, p.y)))
    return out


def solve_residual(p, out) -> float:
    """|log mu(result) - log target|, through public mu_m on the exact pair.

    Also requires the float the timed call returned to be the pair's r.
    """
    P = g.ModulusParams(p.a, p.b, p.c)
    if p.kind == "mu_inv":
        pair = g.mu_inv_m(P, p.y)
        log_target = math.log(p.y)
    else:
        m = g.Modulus.from_r(p.r)
        pair = g.phi_k_m(P, p.K, m)
        log_target = math.log(g.mu_m(P, m).value) - math.log(p.K)
    if pair.r != out:
        return math.inf
    return abs(math.log(g.mu_m(P, pair).value) - log_target)


def check_solve(pts, outs) -> Check:
    chk = Check(notes={"residual_max": 0.0})
    for i, (p, out) in enumerate(zip(pts, outs)):
        try:
            res = math.inf if isinstance(out, Exception) else solve_residual(p, out)
        except g.GenellipError:
            res = math.inf
        chk.notes["residual_max"] = max(chk.notes["residual_max"], res)
        if not res <= RESIDUAL_TOL:
            chk.failed.add(i)
            chk.gross += not res <= GROSS_RESIDUAL
    return chk


# ---------------------------------------------------------------- verify-all

def verify_pass(specs, trackers=None) -> Pass:
    """All checks in registry order; with trackers, through instrumented copies."""
    if trackers is not None:
        specs = [golden.instrument(s, t) for s, t in zip(specs, trackers)]
    reset()
    dts, reps = [], []
    start = _pc()
    for spec in specs:
        t0 = _pc()
        reps.append(run_check(spec))
        dts.append(_pc() - t0)
    return Pass(_pc() - start, dts, reps)


def check_verify(gold: dict, reports) -> Check:
    chk = Check(notes={"mismatch": {}})
    for i, rep in enumerate(reports):
        why = golden.mismatch(gold[rep.id], rep) if rep.id in gold else "not in the golden"
        if why is not None:
            chk.failed.add(i)
            chk.notes["mismatch"][rep.id] = why
    chk.gross = len(chk.failed)
    return chk


def family_seconds(specs, dts) -> dict:
    out = {f"verify.family.{f}_s": 0.0 for f in FAMILIES + ("rest",)}
    for spec, dt in zip(specs, dts):
        fam = spec.id.split("-")[0]
        out[f"verify.family.{fam if fam in FAMILIES else 'rest'}_s"] += dt
    return out


# ------------------------------------------------------------- layer probes

def _best_us(fn, n: int, reps: int = 3) -> float:
    """Per-call microseconds of fn() doing n calls; best of reps, caches cold."""
    best = math.inf
    for _ in range(reps):
        reset()
        t0 = _pc()
        fn()
        best = min(best, _pc() - t0)
    return best / n * 1e6


def _per_call_us(calls) -> float:
    if not calls:
        return 0.0
    return _best_us(lambda: [f(*a) for f, a in calls], len(calls))


def scalar_probes(seed: int) -> dict:
    from genellip.scalar_special import beta, digamma, gamma
    rng = random.Random(f"scalar/{seed}")
    xs = [rng.uniform(0.05, 30.0) for _ in range(2000)]
    ys = [rng.uniform(0.05, 30.0) for _ in range(2000)]
    return {
        "scalar_special.gamma_us": _best_us(lambda: [gamma(x) for x in xs], len(xs)),
        "scalar_special.digamma_us": _best_us(lambda: [digamma(x) for x in xs], len(xs)),
        "scalar_special.beta_us": _best_us(
            lambda: [beta(x, y) for x, y in zip(xs, ys)], len(xs)),
    }


def eval_probes(pts, refs) -> tuple[dict, Check]:
    """Cost per call of each eval-sweep kind and hyp2f1 regime, and the
    share of outputs whose error exceeds their own abs_err_est; with the
    check of those outputs."""
    calls = eval_calls(pts)
    chk = check_eval(refs, time_ops(calls).outputs)
    miss = chk.notes["bound_miss"]
    out = {"bound_miss_frac": len(miss) / len(pts)}

    def group(pred):
        idx = [i for i, p in enumerate(pts) if pred(p)]
        return idx, [calls[i] for i in idx]

    for regime in wl.REGIMES:
        idx, sub = group(lambda p: p.kind == "hyp2f1" and p.regime == regime)
        out[f"hypergeom.{regime}_us"] = _per_call_us(sub)
        out[f"hypergeom.{regime}_bound_miss_frac"] = (
            sum(i in miss for i in idx) / len(idx) if idx else 0.0)
    for kind, name in (("ell_k", "elliptic.ell_k_us"), ("ell_e", "elliptic.ell_e_us"),
                       ("ell_k_minus_e", "elliptic.ell_k_minus_e_us"),
                       ("m_value", "legendre_m.m_value_us"), ("mu", "modulus.mu_us")):
        out[name] = _per_call_us(group(lambda p: p.kind == kind)[1])
    mcalls = [(g.m_scaled, a) for _, a in group(lambda p: p.kind == "m_value")[1]]
    out["legendre_m.m_scaled_us"] = _per_call_us(mcalls)
    out["hypergeom.scipy_ref_us"] = _scipy_us(
        [p for p in pts if p.kind == "hyp2f1" and p.regime == "series"])
    return out, chk


def _scipy_us(pts) -> float:
    """scipy.special.hyp2f1 on the series points, one vectorised call.

    A reference rate for array evaluation only; genellip never imports scipy.
    Reported as 0 where scipy is not installed.
    """
    try:
        import numpy as np
        from scipy.special import hyp2f1
    except ImportError:
        return 0.0
    a, b, c, z = (np.array([getattr(p, k) for p in pts]) for k in ("a", "b", "c", "x"))
    return _best_us(lambda: hyp2f1(a, b, c, z), len(pts), reps=5)


def solve_probes(pts) -> tuple[dict, Check]:
    """phi_k and mu_inv cost per call, log-mu evaluations per solve counted
    from _eval_pair calls, and the largest residual; with the check of the
    outputs."""
    calls = solve_calls(pts)
    out = {
        "modulus.phi_k_us": _per_call_us([c for p, c in zip(pts, calls) if p.kind == "phi_k"]),
        "modulus.mu_inv_us": _per_call_us([c for p, c in zip(pts, calls) if p.kind == "mu_inv"]),
    }
    run, pair_calls = traced_ops(calls)
    # each log-mu evaluation is one _eval_pair pair; phi_k also pays mu_m(r)
    evals = sum((n - (0 if p.kind == "mu_inv" else 2)) / 2 for p, n in zip(pts, pair_calls))
    out["modulus.log_mu_evals_per_solve"] = evals / len(pts)
    chk = check_solve(pts, run.outputs)
    out["modulus.residual_max"] = chk.notes["residual_max"]
    return out, chk


def cold_eval_s(env: dict, reps: int = 3) -> float:
    """Median wall time of a fresh `genellip eval K` process, imports included."""
    times = []
    for _ in range(reps):
        t0 = _pc()
        proc = subprocess.run([sys.executable, "-m", "genellip.cli", *COLD_EVAL],
                              env=env, capture_output=True, text=True, timeout=120)
        times.append(_pc() - t0)
        value = float(proc.stdout.split()[0]) if proc.returncode == 0 else math.nan
        if not abs(value - COLD_EVAL_VALUE) <= 1e-10:
            raise RuntimeError(f"genellip eval K printed {proc.stdout!r} {proc.stderr!r}")
    return statistics.median(times)


def verify_specs() -> list:
    return list(registry().values())
