"""SHA-256 digests of every output of the benchmark workloads and of
`genellip verify all`, for checking that a change is bit-identical.

    python3 scripts/output_digest.py [--seeds 1 2 3] [--dump DIR]
    python3 scripts/output_digest.py --cli

Run from the root of a checkout; the package is imported from its ``src/``
and the seeded points from ``bench/`` (read only, never changed).  For each
workload and seed it prints one digest of the ``repr`` of every output, in
call order (an exception counts by its type and message); under each
eval-sweep digest it prints one digest per bench ``(kind, regime)`` group,
so a change that moves one regime shows as one changed line.  Then it
prints one digest of seeded calls, eight per seed and function, of the
public evaluators that no workload and no check reaches, or reaches only
away from the points drawn here (``unreached``, see ``_unreached_calls``),
with one digest per function under it.  Then it
prints one digest of the `verify all` report: every check's id, verdict,
sample count, ``worst_margin`` (as a Python float, so the digest is the
same whether the engine hands it back as a float or as a numpy float64 of
equal value), witness and claim.  The pass runs through
the benchmark's instrumented copies of the checks (``golden.instrument``),
so under that line it prints one digest per check of every call the engine
made to the check's callables (``fn``, ``rhs``, ``param_map``, the limits
and the probes), each as ``(name, args, output)`` in call order: a change
that moves one sample's value or error estimate in one check shows as one
changed line.  Beside each workload digest it
prints the work of that pass: the calls of the cached 2F1 engine
``_eval_pair`` (``pair_calls=``, cache hits and misses, so it counts the
evaluations a caller asked for even where the cache answered them), its
cache misses (``pair_misses=``), the uncached kernel calls of the modulus
solver (``solver_evals=``, two per log-mu evaluation), every kernel
evaluation of the two split by the kernel that made it (``routes=``, the
triple's route, or ``series`` below ``Z_SWITCH`` for every route but
``closed``; they sum to ``pair_misses`` plus ``solver_evals``), the calls
of the modulus solver ``_solve_log_mu`` (``solves=``), the evaluations of
ln Gamma (``scalar_special._lngamma_raw``, ``lngamma=``) and the parameter
objects built (every ``errors._Params``: ``HypParams``, ``EllipticParams``,
``ModulusParams`` and ``MPoint``, ``params=``; the workloads build their
calls' objects before the pass, so these count only those built within the
calls).  Run it on two
checkouts and diff the output: equal digests mean equal bits, and the counts
show the work each side did.  Both LRU caches are cleared before each pass,
as in the benchmark.  The modular-solve points pass through the benchmark's
mpmath reachability screen, cached in ``.bench_cache/`` after the first run.

With ``--cli`` it runs ``genellip.cli.main`` in-process over three fixed
lists of command lines instead, each line in text, CSV and JSON, and
prints one digest per list of every stdout, stderr, exit code and
``--out`` file, with the verify report's ``timestamp`` and ``seconds``
and the path of the ``--out`` file masked.  The valid lines (every
``eval`` and ``tabulate`` selector but ``tabulate phi``, ``list-checks``,
``verify`` on two checks, with ``--tol`` and ``--grid``, and ``tabulate``
and ``verify`` writing to ``--out``) must print the same bits on both
sides of a change that keeps values; the pair lines (``cli-pair``:
``eval K`` and ``eval E`` at ``--z`` 1-1e-6 and 1-1e-10) move only where
the pair (r, r') built from z moves; the solved lines (``cli-solved``:
``tabulate phi``, ``invert``, ``phi`` and ``solve``, two of them at a
root near 0) move only where a solved modulus or the error put on it
moves; the error lines (inputs
outside a domain, an unknown check, 2F1 values past the float range near
z = 1) may change their messages, so their digest is separate, and each
error line is printed with its exit codes.  To compare with an older
checkout, copy this script into it.

With ``--dump DIR`` (not with ``--cli``) it also writes each group under a
digest line as a file of JSON lines in DIR, one line per call in call
order: ``{"call": ..., "out": [[value, abs_err_est], ...]}`` with every
number of the output (the estimate null where the output carries none), or
``{"call": ..., "raised": [type, message]}``.  The groups are each
eval-sweep regime and modular-solve pass per seed, each unreached function,
each verify check's calls, and ``verify-all``, whose lines carry each
check's ``verdict``, ``samples`` and worst margin.  `scripts/value_diff.py`
compares two such directories.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
import math
import random
import re
import sys
import tempfile
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import golden  # noqa: E402
import passes as P  # noqa: E402  (imports genellip from src/)
import reference  # noqa: E402
import workloads as wl  # noqa: E402
import genellip as g  # noqa: E402
from genellip import cli, errors, hypergeom, modulus, scalar_special  # noqa: E402

_ELL = "--a 0.3 --b 0.6 --c 0.7"
_GRID = "--grid 0.1:0.9:5:linear"
CLI_LINES = [
    "eval hyp2f1 --a 0.3 --b 0.5 --c 0.9 --z 0.4",
    "eval hyp2f1 --a 0.3 --b 0.5 --c 0.9 --z 0.999",
    "eval hyp2f1 --a 0.3 --b 0.7 --c 1 --z 0.9999",
    *(f"eval {fn} {_ELL} --r 0.6" for fn in ("K", "E", "Kp", "Ep")),
    "eval M --a 0.3 --b 0.4 --c 0.6 --z 0.37",
    "eval mu --a 0.3 --c 0.8 --r 0.6",
    "eval R --a 0.5 --b 0.5",
    "eval gamma --z 2.5",
    "eval digamma --z 0.7",
    "eval beta --a 0.3 --b 0.9",
    f"tabulate hyp2f1 --a 0.3 --b 0.5 --c 0.9 {_GRID}",
    *(f"tabulate {fn} {_ELL} {_GRID}" for fn in ("K", "E", "Kp", "Ep")),
    f"tabulate M --a 0.3 --b 0.4 --c 0.6 {_GRID}",
    f"tabulate mu --a 0.3 --c 0.8 {_GRID}",
    f"tabulate R --b 0.5 {_GRID}",
    f"tabulate gamma {_GRID}",
    f"tabulate digamma {_GRID}",
    f"tabulate beta --b 0.9 {_GRID}",
    "list-checks",
    "verify mutheorem-1 ktheo-3",
    "verify hyper-1 --tol 1e-6",
    "verify hyper-1 --grid 0.01:0.99:9:logit",
    f"tabulate K {_ELL} {_GRID} --out {{out}}",
    "verify hyper-1 --out {out}",
]
# K and E at z near 1, where --z keeps the complement 1-z; apart from
# cli-valid, so that a change to that pair leaves cli-valid comparable
PAIR_LINES = [f"eval {fn} {_ELL} --z {z!r}" for fn in ("K", "E") for z in (1 - 1e-6, 1 - 1e-10)]
# every solved modulus, whose abs_err_est comes from mu and mu' at the
# solver's pair; apart from cli-valid, so that a change to that rule leaves
# cli-valid comparable
SOLVED_LINES = [
    f"tabulate phi --a 0.5 --c 1 --K 2 {_GRID}",
    "invert --a 0.5 --c 1 --p 1.2",
    "invert --a 0.5 --c 1 --p 200",
    "phi --a 0.5 --c 1 --K 2 --r 0.5",
    "solve --a 0.25 --c 1 --p 3 --r 0.6",
    "solve --a 0.5 --c 1 --p 0.5 --r 1e-60",
]
ERROR_LINES = [
    "eval K --a 0.5 --b 0.9 --c 0.7 --r 0.5",
    "eval K --a 0.5 --b 999.6 --c 1000 --r 0.9",
    "eval K --a 0.5 --b 199.6 --c 200 --r 0.9",
    "eval gamma --z 200",
    "eval beta --a 1e-320 --b 1e-320",
    "eval K --a 0.5 --b 0.5 --c 1 --z -1",
    "solve --a 0.5 --c 1 --p 0 --r 0.5",
    "verify not-a-check",
    "eval hyp2f1 --a 1 --b 50 --c 1 --z 0.9999999999999999",
    "eval hyp2f1 --a 39.5 --b 39.5 --c 40 --z 0.9999999999999999",
]
_MASKS = [(re.compile(r'"timestamp": "[^"]*"'), '"timestamp": *'),
          (re.compile(r'"seconds": [0-9.e+-]+'), '"seconds": *'),
          (re.compile(r"samples, [0-9.]+s\)"), "samples, *s)")]


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()


def _work(routes: collections.Counter, solver: collections.Counter,
          built: collections.Counter) -> str:
    """Calls of the 2F1 engine, its misses, the solver's kernel calls, every
    kernel evaluation by route, and solver calls since the last reset of
    the caches; then the ln Gamma evaluations and parameter objects that
    _built counted."""
    solves = modulus._solve_log_mu.cache_info()
    by_route = ",".join(f"{r}:{n}" for r, n in sorted((routes + solver).items()))
    pairs = hypergeom._eval_pair.cache_info()
    return (f"pair_calls={pairs.hits + pairs.misses} pair_misses={pairs.misses} "
            f"solver_evals={solver.total()} routes={by_route} "
            f"solves={solves.hits + solves.misses} "
            f"lngamma={built['lngamma']} params={built['params']}")


@contextlib.contextmanager
def _routes_counted():
    """Two Counters of kernel evaluations by the kernel that made each: the
    calls of hypergeom._kernel, which every miss of _eval_pair makes, and the
    modulus solver's calls of modulus._kernel; kept by replacing the two
    module globals, so that no caller of _eval_pair can be missed.  An older
    checkout whose solver goes through _eval_pair has no modulus._kernel, and
    its solver_evals read 0."""
    routes, solver = collections.Counter(), collections.Counter()

    def counted(kernel, counts):
        def call(key, z, zc):
            out = kernel(key, z, zc)
            r = key.route
            counts["series" if r != "closed" and z < hypergeom.Z_SWITCH else r] += 1
            return out
        return call

    with contextlib.ExitStack() as stack:
        for mod, counts in ((hypergeom, routes), (modulus, solver)):
            if hasattr(mod, "_kernel"):
                stack.enter_context(mock.patch.object(mod, "_kernel", counted(mod._kernel, counts)))
        yield routes, solver


@contextlib.contextmanager
def _built():
    """A Counter of the evaluations of ln Gamma (``lngamma``) and of the
    parameter objects built (``params``) while active."""
    built = collections.Counter()
    lngamma, init = scalar_special._lngamma_raw, errors._Params.__init__

    def counted_lngamma(x):
        built["lngamma"] += 1
        return lngamma(x)

    def counted_init(self, *args, **kwargs):
        built["params"] += 1
        init(self, *args, **kwargs)

    with mock.patch.object(scalar_special, "_lngamma_raw", counted_lngamma), \
            mock.patch.object(errors._Params, "__init__", counted_init):
        yield built


class _Raised(tuple):
    """(type name, message) of the exception a call raised; its repr is a plain
    tuple's, so the digests read it as they always have."""


def _outputs(calls) -> tuple[list, str]:
    """The output of each call, from cold caches, and the work they did."""
    P.reset()
    outs = []
    with _built() as built, _routes_counted() as counts:
        for f, args in calls:
            try:
                outs.append(f(*args))
            except Exception as exc:  # an exception is an output like any other
                outs.append(_Raised((type(exc).__name__, str(exc))))
    return outs, _work(*counts, built)


def _numbers(out) -> list:
    """Every number of an output as [value, abs_err_est], the estimate None where
    the output carries none: an EvalResult, a (value, err) pair of numbers as a
    verify check's callables return it, and the fields of any other output."""
    if isinstance(out, g.EvalResult):
        return [[out.value, out.abs_err_est]]
    if isinstance(out, (int, float)):  # a numpy float64 too
        return [[float(out), None]]
    if isinstance(out, tuple) and len(out) == 2 and all(isinstance(x, (int, float)) for x in out):
        return [[float(out[0]), float(out[1])]]
    if isinstance(out, dict):
        items = out.values()
    elif dataclasses.is_dataclass(out):
        items = [getattr(out, f.name) for f in dataclasses.fields(out)]
    elif isinstance(out, (tuple, list)):
        items = out
    else:  # None, or text
        return []
    return [n for item in items for n in _numbers(item)]


def _call(f, args) -> str:
    return f"{getattr(f, '__name__', f)}{args!r}"


def _dump(root, group: str, calls, outs, extra=()) -> None:
    """Write `group`'s (call, output) stream to root/<group>.jsonl (see the
    module docstring); `extra` holds further fields per line, if any."""
    if root is None:
        return
    lines = []
    for call, out, more in itertools.zip_longest(calls, outs, extra, fillvalue={}):
        rec = {"call": call, **more}
        if isinstance(out, _Raised):
            rec["raised"] = list(out)
        else:
            rec["out"] = _numbers(out)
        lines.append(json.dumps(rec) + "\n")
    (root / (re.sub(r"[^\w.-]", "_", group) + ".jsonl")).write_text("".join(lines))


def _unreached_calls(seeds) -> list:
    """(name, (f, args)) of seeded calls of public evaluators that no workload
    and no verify check makes: phi_deriv, phi_deriv_closed (a+b+1 = 2c),
    m_value_elliptic and ell_derivatives, hyp2f1 on triples whose near-balanced
    kernel would meet a pole of Gamma (the Maclaurin series takes them),
    m_value where M's (a-1, b, c) is a terminating triple (b = c+1, a tiny;
    hyp2f1's own parameters are positive, so it never has one), and mu_deriv
    near r = 1 (r = 1 - 10^U, U in (-12, -2), a+b > c), where M and F blow up,
    and hyp2f1 on the integer-d route at |c-a-b| from 2 to 10, a and b up to
    30 and 1-z = 10^U, U in (-12, log10 0.25) (``hyp2f1_integer_d``, where
    verify reaches only |c-a-b| = 1); the mu_deriv and then the integer-d
    calls each draw from their own generator, after the others."""
    out = []
    for seed in seeds:
        rng = random.Random(f"unreached-{seed}")
        for _ in range(8):
            a, b = rng.uniform(0.1, 2.0), rng.uniform(0.1, 2.0)
            q = g.ModulusParams(a, b, rng.uniform(0.1, a + b))
            out.append(("phi_deriv", (g.phi_deriv, (q, rng.uniform(0.2, 5.0),
                                                    rng.uniform(0.02, 0.98)))))
            a = rng.uniform(0.1, 1.5)
            b = rng.uniform(max(0.1, 1.0 - a), 1.5)
            out.append(("phi_deriv_closed", (g.phi_deriv_closed, (
                g.ModulusParams(a, b, 0.5 * (a + b + 1.0)), rng.uniform(0.2, 5.0),
                rng.uniform(0.02, 0.98)))))
            a = rng.uniform(0.05, 0.95)
            b = rng.uniform(0.05, 2.0)
            ep = g.EllipticParams(a, b, rng.uniform(max(a, b) + 1e-3, a + b))
            m = g.Modulus.from_r(rng.uniform(0.01, 0.99))
            out.append(("m_value_elliptic", (g.m_value_elliptic, (ep, m))))
            out.append(("ell_derivatives", (g.ell_derivatives, (ep, m))))
            a, b = 10.0 ** rng.uniform(-12.0, -7.0), rng.uniform(0.5, 3.0)
            hp = g.HypParams(a, b, a + b - a * rng.uniform(1.5, 9.0))
            out.append(("hyp2f1", (g.hyp2f1, (hp, rng.uniform(0.76, 1.0 - 1e-4)))))
            c = rng.uniform(0.3, 7.0)
            pt = g.MPoint(10.0 ** rng.uniform(-9.0, -7.0), c + 1.0, c, rng.uniform(0.76, 0.95))
            out.append(("m_value", (g.m_value, (pt,))))
        rng = random.Random(f"unreached-mu-{seed}")
        for _ in range(8):
            a, b = rng.uniform(0.1, 1.5), rng.uniform(0.1, 1.5)
            q = g.ModulusParams(a, b, rng.uniform(0.1, a + b))
            out.append(("mu_deriv", (g.mu_deriv, (q, 1.0 - 10.0 ** rng.uniform(-12.0, -2.0)))))
        rng = random.Random(f"unreached-integer-d-{seed}")
        for _ in range(8):
            m = rng.choice((-1, 1)) * rng.randint(2, 10)
            a = rng.uniform(0.05, 30.0)
            # 0.05 <= c = a+b+m <= 49.9
            b = rng.uniform(max(0.05, 0.05 - m - a), min(30.0, 49.9 - m - a))
            z = 1.0 - 10.0 ** rng.uniform(-12.0, math.log10(0.25))
            out.append(("hyp2f1_integer_d", (g.hyp2f1, (g.HypParams(a, b, a + b + m), z))))
    return out


def _mask(text, path: str):
    """`text` with its run-varying fields and the --out path masked."""
    if text is None:
        return None
    text = text.replace(path, "F")
    for pattern, mask in _MASKS:
        text = pattern.sub(mask, text)
    return text


def _cli_outputs(lines) -> list:
    """(stdout, stderr, exit code, --out file) of each command line in each
    format; ``{out}`` in a line names a file in a temporary directory."""
    outs = []
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "out"
        for line in lines:
            for fmt in ("text", "csv", "json"):
                target.unlink(missing_ok=True)
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main([*line.format(out=target).split(), "--format", fmt])
                    except SystemExit as exc:
                        code = exc.code
                    except Exception as exc:  # a crash is an output like any other
                        code = (type(exc).__name__, str(exc))
                texts = [out.getvalue(), err.getvalue(),
                         target.read_text() if target.exists() else None]
                outs.append((line, fmt, *(_mask(t, str(target)) for t in texts), code))
    return outs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--cli", action="store_true",
                    help="digest the CLI's output instead of the workloads'")
    ap.add_argument("--dump", type=Path, metavar="DIR",
                    help="also write each group's values and estimates to DIR as JSON lines")
    args = ap.parse_args(argv)
    if args.cli and args.dump:
        ap.error("--dump writes the workload groups; the CLI lists have digests only")
    dump = args.dump
    if dump:
        dump.mkdir(parents=True, exist_ok=True)
    if args.cli:
        for name, lines in (("cli-valid", CLI_LINES), ("cli-pair", PAIR_LINES),
                            ("cli-solved", SOLVED_LINES), ("cli-error", ERROR_LINES)):
            outs = _cli_outputs(lines)
            codes = sorted({repr(o[-1]) for o in outs})
            print(f"{name} n={len(outs)} {_digest(outs)} exit={','.join(codes)}")
            for line in lines if lines is ERROR_LINES else ():
                codes = sorted({repr(o[-1]) for o in outs if o[0] == line})
                print(f"  {line}  exit={','.join(codes)}")
        return 0
    for seed in args.seeds:
        pts = wl.eval_sweep_points(seed)
        calls = P.eval_calls(pts)
        outs, work = _outputs(calls)
        print(f"eval-sweep seed={seed} n={len(outs)} {_digest(outs)} {work}")
        groups = {}
        for p, call, out in zip(pts, calls, outs):
            groups.setdefault((p.kind, p.regime), []).append((_call(*call), out))
        for (kind, regime), group in sorted(groups.items()):
            print(f"  {kind}/{regime or '-'} n={len(group)} {_digest(o for _, o in group)}")
            _dump(dump, f"eval-sweep.seed{seed}.{kind}.{regime or '-'}", *zip(*group))
        calls = P.solve_calls(reference.solve_points(ROOT, seed))
        outs, work = _outputs(calls)
        print(f"modular-solve seed={seed} n={len(outs)} {_digest(outs)} {work}")
        _dump(dump, f"modular-solve.seed{seed}", [_call(*c) for c in calls], outs)
    named = _unreached_calls(args.seeds)
    outs, work = _outputs([call for _, call in named])
    print(f"unreached seeds={','.join(map(str, args.seeds))} n={len(outs)} {_digest(outs)} {work}")
    groups = {}
    for (name, call), out in zip(named, outs):
        groups.setdefault(name, []).append((_call(*call), out))
    for name, group in groups.items():
        print(f"  {name} n={len(group)} {_digest(o for _, o in group)}")
        _dump(dump, f"unreached.{name}", *zip(*group))
    specs = P.verify_specs()
    trackers = [golden.Tracker(record=True) for _ in specs]
    with _built() as built, _routes_counted() as counts:
        reports = P.verify_pass(specs, trackers).outputs
    rows = [(r.id, r.verdict, r.samples, float(r.worst_margin), r.witness, s.claim)
            for r, s in zip(reports, specs)]
    print(f"verify-all checks={len(rows)} samples={sum(r[2] for r in rows)} "
          f"{_digest(rows)} {_work(*counts, built)}")
    _dump(dump, "verify-all", [r[0] for r in rows], [r[3] for r in rows],
          [{"verdict": r[1], "samples": r[2]} for r in rows])
    for spec, tracker in zip(specs, trackers):
        print(f"  {spec.id} calls={len(tracker.calls)} {_digest(tracker.calls)}")
        _dump(dump, f"verify.{spec.id}", [_call(name, args) for name, args, _ in tracker.calls],
              [out for _, _, out in tracker.calls])
    return 0


if __name__ == "__main__":
    sys.exit(main())
