"""Benchmark of genellip: two seeded workloads timed end to end, and every
layer timed in a separate traced run.

    python3 bench/run.py --workload eval-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Workloads (see BASELINE.md for the seed commit's numbers):

  eval-sweep     hyp2f1 / K / E / K-E / M / mu on seeded distinct points that
                 cover every regime of the 2F1 kernel, checked against mpmath
  modular-solve  phi_K / mu_inv on seeded distinct targets, checked by their
                 log-mu residual

With ``--trace 0`` the run times whole passes of the workload and reports
the end-to-end metrics.  With ``--trace 1`` it reports the per-layer
metrics, the same on either workload: one untraced and one traced pass of
all registry checks (`genellip verify all`), then the layer probes on this
seed's points.  Every output is checked.  All load comes from this one
thread, each call waiting for the previous one.  The last line of standard
output is the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import golden
import reference

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("eval-sweep", "modular-solve")
SETUP_RUNS = 7
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
_SETUP_CODE = ("import time; t = time.perf_counter(); import genellip.cli; "
               "from genellip.verify import registry; registry(); "
               "print(time.perf_counter() - t)")

def _die(code: int, msg: str) -> None:
    sys.stderr.write(f"bench: {msg}\n")
    sys.exit(code)


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _git_commit() -> str:
    """The checkout's commit read from .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _setup_once(env: dict) -> float:
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env,
                          capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up interpreter failed: {proc.stderr.strip()}")
    return float(proc.stdout)


class SetupSampler:
    """Time for a fresh interpreter to import genellip.cli and build registry().

    The samples are taken between passes, spread over the run, so that their
    median weighs the host's fast and slow phases as the run saw them.  One
    untimed run first writes the bytecode caches.
    """

    def __init__(self, env: dict, seconds: int):
        self.env = env
        self.every = seconds / SETUP_RUNS
        self.times = []
        _setup_once(env)
        self.next = time.perf_counter()

    def between_passes(self) -> None:
        while len(self.times) < SETUP_RUNS and time.perf_counter() >= self.next:
            self.times.append(_setup_once(self.env))
            self.next += self.every

    def median(self) -> float:
        while len(self.times) < SETUP_RUNS:
            self.times.append(_setup_once(self.env))
        return statistics.median(self.times)


def tail_level(n: int) -> float:
    """The highest quantile level up to 0.99 that leaves at least ten of n
    samples beyond it, by nearest rank."""
    return max(1, min(math.ceil(0.99 * n), n - 10)) / n


def hd_quantile(xs: list, p: float) -> float:
    """The Harrell-Davis estimate of the p-quantile: the order statistics
    weighted by the Beta(p(n+1), (1-p)(n+1)) density, taken at the midpoint
    of each rank's slice of [0, 1].

    A single order statistic jumps between neighbouring calls of very
    different cost when noise swaps their order; the weights spread over the
    few ranks around p instead.
    """
    s = sorted(xs)
    n = len(s)
    a, b = p * (n + 1), (1.0 - p) * (n + 1)
    logw = [(a - 1.0) * math.log((i + 0.5) / n) + (b - 1.0) * math.log1p(-(i + 0.5) / n)
            for i in range(n)]
    top = max(logw)
    w = [math.exp(v - top) for v in logw]
    return math.fsum(wi * x for wi, x in zip(w, s)) / math.fsum(w)


def pass_metrics(passes, note: dict) -> dict:
    """End-to-end metrics from repeated passes over the same calls.

    The host's CPU is shared, and other tenants slow it in bursts lasting
    from milliseconds to minutes: the fastest whole pass of a 20 s window
    moved by 2x within three minutes (see BASELINE.md), while each call's
    best time over the window held within a few percent.  So every call is
    taken at its best over the run's passes, and the metrics are those of
    one pass at those times.  Every pass starts from the same state
    (passes.reset), so the garbage collector runs at the same calls in each
    pass and its cost is in those calls' best times.
    """
    best = [min(ts) for ts in zip(*(p.op_s for p in passes))]
    n = len(best)
    tail = tail_level(n)
    note["ops_per_s"] = f"{n} calls over the sum of each call's best of {len(passes)} passes"
    note["op_p50_us"] = f"Harrell-Davis median of those {n} best times"
    note["op_p99_us"] = f"Harrell-Davis p{100 * tail:.2f} of those {n} best times"
    note["fastest_whole_pass_s"] = min(p.wall_s for p in passes)
    return {"ops_per_s": n / math.fsum(best), "op_p50_us": hd_quantile(best, 0.5) * 1e6,
            "op_p99_us": hd_quantile(best, tail) * 1e6}


class Run:
    """Attempted and failed operations, and whether every output was right."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.notes = {}

    def count(self, n_ops: int, chk, extra_bad=frozenset()) -> None:
        self.attempted += n_ops
        self.failed += len(chk.failed | extra_bad)
        if chk.gross or extra_bad:
            self.correct = False


def _op_workload(P, name: str, seed: int):
    """(calls, check) for eval-sweep or modular-solve."""
    if name == "eval-sweep":
        pts, refs = reference.eval_reference(ROOT, seed)
        return P.eval_calls(pts), lambda outs: P.check_eval(refs, outs)
    pts = reference.solve_points(ROOT, seed)
    return P.solve_calls(pts), lambda outs: P.check_solve(pts, outs)


def run_timed(P, name: str, seed: int, seconds: int, run: Run, setup: SetupSampler) -> dict:
    """Whole passes until `seconds` have run.

    The first pass is checked in full; every later one must repeat it bit
    for bit.  Each distinct call is one operation, however many passes ran
    it: it fails if the first pass got it wrong or a later pass changed it.
    So `attempted` and `failed` depend on the seed and the program, not on
    how many passes the host's speed let into the run.
    """
    calls, check = _op_workload(P, name, seed)
    gc.freeze()  # what exists now is never collected, so each collection stays small
    passes, chk, changed = [], None, set()
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        setup.between_passes()
        p = P.time_ops(calls)
        if chk is None:
            chk = check(p.outputs)
            for k, v in chk.notes.items():  # a set of indices is shown as a share
                run.notes[k] = len(v) / len(calls) if isinstance(v, set) else v
        else:
            changed |= P.same_outputs(passes[0].outputs, p.outputs)
            p.outputs = None  # the heap, and so each collection, keeps one size
        passes.append(p)
    run.count(len(calls), chk, frozenset(changed))
    run.notes["passes"] = len(passes)
    return pass_metrics(passes, run.notes)


def run_traced(P, seed: int, run: Run, env: dict) -> dict:
    """Per-layer metrics: an untraced and a traced pass of all registry
    checks, both LRU caches cold, then the layer probes on this seed's
    eval-sweep and modular-solve points."""
    gold, specs = golden.load(), P.verify_specs()
    untraced = P.verify_pass(specs)
    trackers = [golden.Tracker() for _ in specs]
    with P.CallCounter() as counter:
        traced = P.verify_pass(specs, trackers)
    m = P.cache_metrics(counter)
    for p in (untraced, traced):
        chk = P.check_verify(gold, p.outputs)
        run.count(len(specs), chk)
        run.notes.update(chk.notes["mismatch"])
    m["verify.pass_s"] = untraced.wall_s
    m.update(P.family_seconds(specs, untraced.op_s))
    m["verify.engine.self_s"] = sum(traced.op_s) - sum(t.callable_s for t in trackers)
    m["verify.samples"] = sum(r.samples for r in untraced.outputs)
    m["trace_overhead_frac"] = traced.wall_s / untraced.wall_s - 1.0
    m.update(P.scalar_probes(seed))
    pts, refs = reference.eval_reference(ROOT, seed)
    probe, chk = P.eval_probes(pts, refs)
    run.count(len(pts), chk)
    m.update(probe)
    pts = reference.solve_points(ROOT, seed)
    probe, chk = P.solve_probes(pts)
    run.count(len(pts), chk)
    m.update(probe)
    m["cli.cold_eval_s"] = P.cold_eval_s(env)
    m["fail_frac"] = run.failed / run.attempted
    return m


def metric_units(kind: str) -> dict:
    """name -> unit for the "end_to_end" or "per_layer" list of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {d["name"]: d["unit"] for d in spec[kind]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        _die(2, "--seconds must be at least 1")
    if "GENELLIP_MAX_ITERS" in os.environ:
        _die(2, "GENELLIP_MAX_ITERS is set; it changes the solver's iteration "
                "budget, so the numbers would not be comparable. Unset it and rerun.")
    if not (SRC / "genellip" / "__init__.py").is_file():
        _die(3, f"no genellip package under {SRC}; run from the root of a checkout")
    for var in _THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))

    import numpy
    import passes as P  # imports genellip from SRC

    env = _child_env()
    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "commit": _git_commit(), "load": "1 process, 1 thread, closed loop"}
    print("# env " + json.dumps(info), flush=True)

    run = Run()
    if args.trace == 0:
        setup = SetupSampler(env, args.seconds)
        metrics = run_timed(P, args.workload, args.seed, args.seconds, run, setup)
        metrics["setup_s"] = setup.median()
        units = metric_units("end_to_end")
    else:
        metrics = run_traced(P, args.seed, run, env)
        units = metric_units("per_layer")
    for name, value in metrics.items():
        if not math.isfinite(value):
            run.correct = False
            metrics[name] = sys.float_info.max
    for name, unit in units.items():
        extra = run.notes.get(name)
        print(f"{name} {metrics[name]!r} {unit}" + (f"  ({extra})" if extra else ""))
    if "fail_frac" not in units:
        print(f"fail_frac {run.failed / run.attempted!r}  ({run.failed} of {run.attempted})")
    for key, value in run.notes.items():
        if key not in units:
            print(f"# {key}: {value}")
    result = {"correct": run.correct, "attempted": run.attempted, "failed": run.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
