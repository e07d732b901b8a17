"""Command-line front end.

Verbs: eval (single point), tabulate (grid to CSV), invert (mu^{-1}),
phi (modular function), solve (modular equation of arbitrary degree),
verify (run the check registry), list-checks.  Each verb takes only the
flags it reads (the table _VERBS); argparse rejects any other with exit 2.

Exit codes: 0 success, 1 gating verification failure, 2 domain error,
3 convergence error, 4 unknown check id.

Output is deterministic for a fixed command line; the only run-varying
fields are the verify report's `timestamp` and per-check `seconds`.
Floats are printed with 17 significant digits in CSV/JSON (enough to
round-trip a binary double) and 12 in text mode.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
import time
from datetime import datetime, timezone

from .elliptic import (EllipticParams, Modulus, ell_e, ell_e_comp, ell_k,
                       ell_k_comp)
from .errors import ConvergenceError, DomainError, GenellipError, checked
from .hypergeom import HypParams, hyp2f1
from .legendre_m import MPoint, m_value
from .modulus import (DegreeK, ModulusParams, _mu_deriv_m, modulus_params_ac, mu,
                      mu_inv_m, mu_m, phi_k_m)
from .result import EvalResult, Method
from .scalar_special import beta, digamma, gamma, ramanujan_r
from .verify import GridDim, GridSpec, registry, run_check, select

_F17 = "%.17g"
_F12 = "%.12g"


def _f17(x: float) -> str:
    return _F17 % float(x)


def _f12(x: float) -> str:
    return _F12 % float(x)


# --------------------------------------------------------------------------
# deterministic JSON (fixed key order, 17-digit floats)

def _json_scalar(obj) -> str:
    """A scalar as JSON: a finite float with 17 digits, a value JSON lacks as its str()."""
    if isinstance(obj, float) and math.isfinite(obj):
        return _f17(obj)
    return json.dumps(obj if obj is None or isinstance(obj, (int, str)) else str(obj))


def _emit_json(obj, parts: list, indent: int) -> None:
    """obj as JSON; a dict's items are prefixed with `"key": `, a list's with nothing."""
    if isinstance(obj, dict):
        brackets, items = "{}", [(json.dumps(str(k)) + ": ", v) for k, v in obj.items()]
    elif isinstance(obj, (list, tuple)):
        brackets, items = "[]", [("", v) for v in obj]
    else:
        parts.append(_json_scalar(obj))
        return
    if not items:
        parts.append(brackets)
        return
    pad = "  " * indent
    parts.append(brackets[0] + "\n")
    for i, (prefix, v) in enumerate(items):
        parts.append(pad + "  " + prefix)
        _emit_json(v, parts, indent + 1)
        parts.append(",\n" if i < len(items) - 1 else "\n")
    parts.append(pad + brackets[1])


def _json_text(obj) -> str:
    parts: list = []
    _emit_json(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _emit(args, body, csv: str, text: str) -> int:
    """Write a verb's output in its --format, to --out or else to stdout:
    `body` as deterministic JSON, `csv` and `text` as they are."""
    out = _json_text(body) if args.format == "json" else csv if args.format == "csv" else text
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(out)
    else:
        sys.stdout.write(out)
    return 0


# --------------------------------------------------------------------------
# argument plumbing

def _parse_grid(spec: str) -> GridDim:
    fields = spec.split(":")
    if len(fields) != 4:
        raise DomainError(f"--grid wants lo:hi:count:scale, got {spec!r}")
    lo, hi, count, scale = fields
    try:
        return GridDim("x", float(lo), float(hi), int(count), scale)
    except ValueError as exc:
        raise DomainError(f"bad --grid {spec!r}: {exc}") from None


def _need(args, what: str, *names: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise DomainError(f"{what} requires {' '.join(missing)}")


def _abc(p) -> dict:
    return {"a": p.a, "b": p.b, "c": p.c}


def _solved(p: ModulusParams, s: Modulus, y: float, y_err: float) -> EvalResult:
    """s, the solver's root of mu(s) = y for a y within y_err, with the error of r:
    (|mu(s) - y| + err mu(s) + y_err) / (|mu'(s)| - err mu'(s)) + 2^-52 r, mu and
    mu' read at the pair s (inf where err mu'(s) reaches |mu'(s)|)."""
    mu_s, d = mu_m(p, s), _mu_deriv_m(p, s)
    slope = abs(d.value) - d.abs_err_est
    err = (abs(mu_s.value - y) + mu_s.abs_err_est + y_err) / slope if slope > 0.0 else math.inf
    return EvalResult(s.r, err + 2.0 ** -52 * s.r, Method.SOLVER)


def _ell(op):
    """An elliptic selector: its point is the modulus r, or z = r^2, whose
    pair (r, r') is built from z and 1-z."""
    def run(args, flag, x):
        p = EllipticParams(args.a, args.b, args.c)
        if flag == "r":
            return op(p, Modulus.from_r(x)), _abc(args)
        z = checked("z", x, "[0, 1]")
        return op(p, Modulus(math.sqrt(z), math.sqrt(1.0 - z))), _abc(args)
    return run


def _mu(args, _, r):
    p = modulus_params_ac(args.a, args.c)
    return mu(p, r), _abc(p)


def _phi(args, _, r):
    p, m, k = modulus_params_ac(args.a, args.c), Modulus.from_r(r), DegreeK(args.K)
    s, mu_r = phi_k_m(p, k, m), mu_m(p, m)
    return _solved(p, s, mu_r.value / k.K, mu_r.abs_err_est / k.K), {**_abc(p), "K": args.K}


# selector: (the flags it needs, the flags that may carry its point, of which
# eval reads the first one given, f(args, point flag, point) -> (EvalResult,
# params echo))
_SELECTORS = {
    "hyp2f1": ("a b c", "z",
               lambda g, _, z: (hyp2f1(HypParams(g.a, g.b, g.c), z), _abc(g))),
    "K": ("a b c", "r z", _ell(ell_k)),
    "E": ("a b c", "r z", _ell(ell_e)),
    "Kp": ("a b c", "r z", _ell(ell_k_comp)),
    "Ep": ("a b c", "r z", _ell(ell_e_comp)),
    "M": ("a b c", "z", lambda g, _, z: (m_value(MPoint(g.a, g.b, g.c, z)), _abc(g))),
    "mu": ("a c", "r", _mu),
    "R": ("b", "a", lambda g, _, a: (ramanujan_r(a, g.b), {"a": a, "b": g.b})),
    "gamma": ("", "z", lambda g, _, z: (gamma(z), {})),
    "digamma": ("", "z", lambda g, _, z: (digamma(z), {})),
    "beta": ("b", "a", lambda g, _, a: (beta(a, g.b), {"a": a, "b": g.b})),
    "phi": ("a c K", "r", _phi),
}
TAB_FNS = tuple(_SELECTORS)
EVAL_FNS = TAB_FNS[:-1]


def _point(fn: str, args, x=None):
    """Evaluate selector `fn` at its point flag (eval), or at the grid point
    `x` (tabulate), which replaces that flag in the echo.

    Returns (name of the point's flag, point, EvalResult, params echo).
    """
    needs, points, run = _SELECTORS[fn]
    needs, points = needs.split(), points.split()
    if x is None:
        flag = next((n for n in points if getattr(args, n) is not None), points[0])
        _need(args, f"eval {fn}", *needs, flag)
        x = getattr(args, flag)
        return (flag, x, *run(args, flag, x))
    _need(args, f"eval {fn}", *needs)
    res, params = run(args, points[0], x)
    params.pop(points[0], None)
    return points[0], x, res, params


def _csv_header(fn: str, params: dict) -> str:
    cells = [fn] + [_f17(params[k]) if k in params else ""
                    for k in ("a", "b", "c")]
    head = "# " + ",".join(cells) + "\n"
    if "K" in params:
        head += "# K," + _f17(params["K"]) + "\n"
    return head


def _csv_row(pt, res: EvalResult) -> str:
    return ",".join((_f17(pt), _f17(res.value), _f17(res.abs_err_est))) + "\n"


def _emit_point(args, fn: str, params: dict, pt_name: str, pt, res: EvalResult,
                extra: dict | None = None) -> int:
    """One evaluated point; `extra` fields go to text and JSON only."""
    extra = extra or {}
    body = {"fn": fn, **params, pt_name: pt, "value": res.value,
            "abs_err_est": res.abs_err_est, "method": res.method.value, **extra}
    lines = [_f12(res.value), "abs_err_est = " + _f12(res.abs_err_est),
             "method = " + res.method.value, *(f"{k} = {_f12(v)}" for k, v in extra.items())]
    return _emit(args, body, _csv_header(fn, params) + _csv_row(pt, res),
                 "".join(line + "\n" for line in lines))


# --------------------------------------------------------------------------
# verbs

def _cmd_eval(args) -> int:
    pt_name, pt, res, params = _point(args.fn, args)
    return _emit_point(args, args.fn, params, pt_name, pt, res)


def _cmd_tabulate(args) -> int:
    if args.grid is None:
        raise DomainError("tabulate requires --grid lo:hi:count:scale")
    rows = []
    for x in _parse_grid(args.grid).points():
        _, pt, res, params = _point(args.fn, args, x)
        rows.append((pt, res))
    body = {"fn": args.fn, **params, "rows": [
        {"x": pt, "value": r.value, "abs_err_est": r.abs_err_est} for pt, r in rows]}
    csv = _csv_header(args.fn, params) + "".join(_csv_row(pt, r) for pt, r in rows)
    return _emit(args, body, csv, csv)


def _cmd_invert(args) -> int:
    _need(args, "invert", "a", "c", "p")
    p = modulus_params_ac(args.a, args.c)
    s = mu_inv_m(p, args.p)
    residual = abs(mu_m(p, s).value - args.p)
    return _emit_point(args, "mu_inv", _abc(p), "mu", args.p, _solved(p, s, args.p, 0.0),
                       {"mu_residual": residual})


def _cmd_solve(args) -> int:
    """Solve mu(s) = p * mu(r): the degree-p modular equation."""
    _need(args, "solve", "a", "c", "p", "r")
    pm = modulus_params_ac(args.a, args.c)
    m = Modulus.from_r(args.r)
    s = phi_k_m(pm, DegreeK(1.0 / checked("p", args.p, "(0, inf)")), m)
    mu_r = mu_m(pm, m)
    mu_s = mu_m(pm, s)
    y = args.p * mu_r.value
    extra = {"mu_r": mu_r.value, "mu_s": mu_s.value, "residual": abs(mu_s.value - y),
             "s_comp": s.r_comp}
    params = {**_abc(pm), "degree": args.p}
    res = _solved(pm, s, y, args.p * mu_r.abs_err_est)
    return _emit_point(args, "solve", params, "r", args.r, res, extra)


def _cmd_verify(args) -> int:
    which = args.checks
    if len(which) == 1 and which[0] in ("all", "conjectures"):
        which = which[0]
    try:
        specs = select(which)
    except KeyError as exc:
        sys.stderr.write(f"unknown check id: {exc.args[0]}\n")
        return 4
    grid_dim = _parse_grid(args.grid) if args.grid else None
    entries = []
    for spec in specs:
        run_spec = spec
        if args.tol is not None:
            run_spec = dataclasses.replace(run_spec, tolerance=args.tol)
        if grid_dim is not None:
            first = run_spec.arg_grid.dims[0]
            run_spec = dataclasses.replace(
                run_spec,
                arg_grid=GridSpec((dataclasses.replace(
                    grid_dim, name=first.name),)))
        t0 = time.perf_counter()
        rep = run_check(run_spec)
        entries.append((spec, rep, time.perf_counter() - t0))

    key = "|".join([",".join(s.id for s, _, _ in entries),
                    repr(args.tol), repr(args.grid),
                    "non-gating" if args.non_gating else "gating"])
    run_id = hashlib.sha256(key.encode()).hexdigest()[:12]
    report = {
        "run_id": run_id,
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "checks": [
            {"id": rep.id, "claim": spec.claim, "verdict": rep.verdict,
             "worst_margin": rep.worst_margin, "witness": rep.witness,
             "samples": rep.samples, "seconds": round(dt, 3)}
            for spec, rep, dt in entries],
    }

    gating_fail = any(spec.gating and rep.verdict == "fail"
                      for spec, rep, _ in entries)
    code = 0 if (args.non_gating or not gating_fail) else 1

    csv = "# verify," + run_id + "\n" + "".join(
        ",".join((rep.id, rep.verdict, _f17(rep.worst_margin), str(rep.samples))) + "\n"
        for _, rep, _ in entries)
    text = ""
    for spec, rep, dt in entries:
        tag = "" if spec.gating else " [non-gating]"
        text += (f"{rep.id}: {rep.verdict}{tag} (worst margin {rep.worst_margin:.3e}, "
                 f"{rep.samples} samples, {dt:.2f}s)\n")
        if rep.verdict != "pass" and rep.witness:
            text += f"    witness: {rep.witness}\n"
    verdicts = [rep.verdict for _, rep, _ in entries]
    text += (f"{verdicts.count('pass')} passed, {verdicts.count('fail')} failed, "
             f"{verdicts.count('inconclusive')} inconclusive; run_id {run_id}\n")
    if args.out:  # the report goes to the file; stdout gets the CSV or the text
        _emit(argparse.Namespace(format="json", out=args.out), report, csv, text)
        text += f"report written to {args.out}\n"
        args = argparse.Namespace(format="csv" if args.format == "csv" else "text", out=None)
    _emit(args, report, csv, text)
    return code


def _cmd_list_checks(args) -> int:
    specs = registry().values()
    body = [{"id": s.id, "kind": s.kind, "gating": s.gating, "claim": s.claim}
            for s in specs]
    tags = ["gating" if s.gating else "non-gating" for s in specs]
    csv = "# list-checks\n" + "".join(
        f"{s.id},{s.kind},{tag}\n" for s, tag in zip(specs, tags))
    text = "".join(f"{s.id:24s} {tag:11s} {s.kind:15s} {s.claim}\n"
                   for s, tag in zip(specs, tags))
    return _emit(args, body, csv, text)


# --------------------------------------------------------------------------

_FLAGS = {
    **{name: {"type": float} for name in ("a", "b", "c", "r", "z", "K", "p", "tol")},
    "grid": {"type": str, "help": "lo:hi:count:scale (scale: linear|log|logit)"},
    "non-gating": {"action": "store_true", "help": "exit 0 regardless of verdicts"},
    "out": {"type": str},
    "format": {"choices": ("text", "csv", "json"), "default": "text"},
}

# verb: (handler, help, its positional argument or None, the flags it reads
# besides --out and --format, which every verb reads)
_VERBS = {
    "eval": (_cmd_eval, "evaluate one function at a point",
             ("fn", {"choices": EVAL_FNS}), "a b c r z"),
    "tabulate": (_cmd_tabulate, "evaluate over a grid as CSV",
                 ("fn", {"choices": TAB_FNS}), "a b c K grid"),
    "invert": (_cmd_invert, "invert mu: find r with mu(r) = --p", None, "a c p"),
    "phi": (_cmd_eval, "modular function phi_K(r)", None, "a c K r"),
    "solve": (_cmd_solve, "solve mu(s) = p mu(r) (degree --p)", None, "a c p r"),
    "verify": (_cmd_verify, "run verification checks",
               ("checks", {"nargs": "+", "help": "check ids, or 'all' / 'conjectures'"}),
               "non-gating grid tol"),
    "list-checks": (_cmd_list_checks, "list registry checks", None, ""),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="genellip",
        description="Generalized elliptic integrals, the generalized "
                    "modulus, the modular function, and a verification "
                    "registry for their monotonicity and inequality "
                    "properties.")
    subs = ap.add_subparsers(dest="verb", required=True)
    for verb, (handler, help_text, positional, flags) in _VERBS.items():
        sub = subs.add_parser(verb, help=help_text)
        if positional:
            sub.add_argument(positional[0], **positional[1])
        for flag in (*flags.split(), "out", "format"):
            sub.add_argument(f"--{flag}", **_FLAGS[flag])
        # eval and tabulate read fn from their positional argument; phi
        # runs eval with the selector of its own name
        sub.set_defaults(handler=handler, fn=verb)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        sys.stderr.write(f"convergence error: {exc}\n")
        return 3
    except DomainError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    except GenellipError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
