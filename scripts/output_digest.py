"""SHA-256 digests of every output of the benchmark workloads and of
`genellip verify all`, for checking that a change is bit-identical.

    python3 scripts/output_digest.py [--seeds 1 2 3]

Run from the root of a checkout; the package is imported from its ``src/``
and the seeded points from ``bench/`` (read only, never changed).  For each
workload and seed it prints one digest of the ``repr`` of every output, in
call order (an exception counts by its type and message), and then one
digest of the `verify all` report: every check's id, verdict, sample count
and ``worst_margin``.  Beside each digest it prints the work of that pass:
the cache misses of the 2F1 engine ``_eval_pair`` (the kernel evaluations
made) and the calls of the modulus solver ``_solve_log_mu``.  Run it on two
checkouts and diff the output: equal digests mean equal bits, and the counts
show the work each side did.  Both LRU caches are cleared before each pass,
as in the benchmark.  The modular-solve points pass through the benchmark's
mpmath reachability screen, cached in ``.bench_cache/`` after the first run.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import passes as P  # noqa: E402  (imports genellip from src/)
import reference  # noqa: E402
import workloads as wl  # noqa: E402
from genellip import hypergeom, modulus  # noqa: E402


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _work() -> str:
    """Kernel evaluations and solver calls since the last reset of the caches."""
    solves = modulus._solve_log_mu.cache_info()
    return (f"pair_misses={hypergeom._eval_pair.cache_info().misses} "
            f"solves={solves.hits + solves.misses}")


def _outputs(calls) -> list:
    P.reset()
    outs = []
    for f, args in calls:
        try:
            outs.append(f(*args))
        except Exception as exc:  # an exception is an output like any other
            outs.append((type(exc).__name__, str(exc)))
    return outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    args = ap.parse_args(argv)
    for seed in args.seeds:
        outs = _outputs(P.eval_calls(wl.eval_sweep_points(seed)))
        print(f"eval-sweep seed={seed} n={len(outs)} {_digest(outs)} {_work()}")
        outs = _outputs(P.solve_calls(reference.solve_points(ROOT, seed)))
        print(f"modular-solve seed={seed} n={len(outs)} {_digest(outs)} {_work()}")
    reports = P.verify_pass(P.verify_specs()).outputs
    rows = [(r.id, r.verdict, r.samples, r.worst_margin) for r in reports]
    print(f"verify-all checks={len(rows)} samples={sum(r[2] for r in rows)} "
          f"{_digest(rows)} {_work()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
