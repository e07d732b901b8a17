"""Command-line front end.

Verbs: eval (single point), tabulate (grid to CSV), invert (mu^{-1}),
phi (modular function), solve (modular equation of arbitrary degree),
verify (run the check registry), list-checks.

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
from .errors import ConvergenceError, DomainError, GenellipError
from .hypergeom import HypParams, hyp2f1
from .legendre_m import MPoint, m_value
from .modulus import (DegreeK, modulus_params_ac, mu, mu_deriv, mu_inv,
                      mu_m, phi_k_m)
from .result import EvalResult, Method
from .scalar_special import beta, digamma, gamma, ramanujan_r
from .verify import GridDim, GridSpec, registry, run_check, select

_F17 = "%.17g"
_F12 = "%.12g"

EVAL_FNS = ("hyp2f1", "K", "E", "Kp", "Ep", "M", "mu", "R", "gamma",
            "digamma", "beta")
TAB_FNS = EVAL_FNS + ("phi",)


def _f17(x: float) -> str:
    return _F17 % float(x)


def _f12(x: float) -> str:
    return _F12 % float(x)


# --------------------------------------------------------------------------
# deterministic JSON (fixed key order, 17-digit floats)

def _emit_json(obj, parts: list, indent: int) -> None:
    pad = "  " * indent
    if obj is None:
        parts.append("null")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        if math.isfinite(obj):
            parts.append(_f17(obj))
        else:
            parts.append(json.dumps(str(obj)))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    elif isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            parts.append(pad + "  " + json.dumps(str(k)) + ": ")
            _emit_json(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, v in enumerate(obj):
            parts.append(pad + "  ")
            _emit_json(v, parts, indent + 1)
            parts.append(",\n" if i < len(obj) - 1 else "\n")
        parts.append(pad + "]")
    else:
        parts.append(json.dumps(str(obj)))


def _json_text(obj) -> str:
    parts: list = []
    _emit_json(obj, parts, 0)
    parts.append("\n")
    return "".join(parts)


def _write_out(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


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
    missing = [f"--{n}" for n in names if getattr(args, n, None) is None]
    if missing:
        raise DomainError(f"{what} requires {' '.join(missing)}")


def _point_modulus(args) -> tuple[Modulus, str, float]:
    """The modulus of the --r or --z flag, with the flag's name and value."""
    if args.r is not None:
        return Modulus.from_r(args.r), "r", args.r
    if args.z is not None:
        return Modulus.from_r(math.sqrt(args.z)), "z", args.z
    raise DomainError("need --r or --z")


def _solved(s: Modulus) -> EvalResult:
    """A modular-function solution as an EvalResult; the solver meets a
    ~1e-13 logit residual, which maps to dr = r r'^2 * tol / 2."""
    return EvalResult(s.r, 0.5 * s.r * s.z_comp * 1e-12 + 4e-16 * s.r, Method.SOLVER)


def _phi_eval(a: float, c: float, K: float, r: float) -> EvalResult:
    return _solved(phi_k_m(modulus_params_ac(a, c), DegreeK(K), Modulus.from_r(r)))


def _eval_point(fn: str, args, x=None):
    """Evaluate selector `fn`; `x` overrides the point flag (tabulate).

    Returns (name of the point's flag, point, EvalResult, params-echo dict).
    """
    a, b, c = args.a, args.b, args.c
    what = f"eval {fn}"
    if fn in ("K", "E", "Kp", "Ep"):
        _need(args, what, "a", "b", "c")
        p = EllipticParams(a, b, c)
        if x is None:
            m, name, pt = _point_modulus(args)
        else:
            m, name, pt = Modulus.from_r(x), "r", x
        op = {"K": ell_k, "E": ell_e, "Kp": ell_k_comp, "Ep": ell_e_comp}[fn]
        return name, pt, op(p, m), {"a": a, "b": b, "c": c}
    if fn == "hyp2f1":
        _need(args, what, "a", "b", "c")
        pt = args.z if x is None else x
        if pt is None:
            raise DomainError("eval hyp2f1 requires --z")
        return "z", pt, hyp2f1(HypParams(a, b, c), pt), {"a": a, "b": b, "c": c}
    if fn == "M":
        _need(args, what, "a", "b", "c")
        pt = args.z if x is None else x
        if pt is None:
            raise DomainError("eval M requires --z")
        return "z", pt, m_value(MPoint(a, b, c, pt)), {"a": a, "b": b, "c": c}
    if fn == "mu":
        _need(args, what, "a", "c")
        pt = args.r if x is None else x
        if pt is None:
            raise DomainError("eval mu requires --r")
        p = modulus_params_ac(a, c)
        return "r", pt, mu(p, pt), {"a": p.a, "b": p.b, "c": p.c}
    if fn == "phi":
        _need(args, what, "a", "c", "K")
        pt = args.r if x is None else x
        if pt is None:
            raise DomainError("phi requires --r")
        p = modulus_params_ac(a, c)
        return "r", pt, _phi_eval(a, c, args.K, pt), \
            {"a": p.a, "b": p.b, "c": p.c, "K": args.K}
    if fn == "R":
        if x is not None:
            _need(args, what, "b")
            return "a", x, ramanujan_r(x, b), {"b": b}
        _need(args, what, "a", "b")
        return "a", a, ramanujan_r(a, b), {"a": a, "b": b}
    if fn == "beta":
        if x is not None:
            _need(args, what, "b")
            return "a", x, beta(x, b), {"b": b}
        _need(args, what, "a", "b")
        return "a", a, beta(a, b), {"a": a, "b": b}
    if fn in ("gamma", "digamma"):
        pt = args.z if x is None else x
        if pt is None:
            raise DomainError(f"eval {fn} requires --z (the argument)")
        op = gamma if fn == "gamma" else digamma
        return "z", pt, op(pt), {}
    raise DomainError(f"unknown function selector {fn!r}")


def _csv_header(fn: str, params: dict) -> str:
    cells = [fn] + [_f17(params[k]) if k in params else ""
                    for k in ("a", "b", "c")]
    head = "# " + ",".join(cells) + "\n"
    if "K" in params:
        head += "# K," + _f17(params["K"]) + "\n"
    return head


def _emit_point(args, fn: str, params: dict, pt_name: str, pt, res: EvalResult,
                extra: dict | None = None) -> int:
    """Write one evaluated point as text, CSV or JSON; `extra` fields go to
    text and JSON only."""
    extra = extra or {}
    if args.format == "json":
        out = {"fn": fn, **params, pt_name: pt, "value": res.value,
               "abs_err_est": res.abs_err_est, "method": res.method.value, **extra}
        text = _json_text(out)
    elif args.format == "csv":
        text = _csv_header(fn, params) + ",".join(
            (_f17(pt), _f17(res.value), _f17(res.abs_err_est))) + "\n"
    else:
        lines = [_f12(res.value), "abs_err_est = " + _f12(res.abs_err_est),
                 "method = " + res.method.value]
        lines += [f"{k} = " + (_f12(v) if isinstance(v, float) else str(v))
                  for k, v in extra.items()]
        text = "\n".join(lines) + "\n"
    _write_out(text, args.out)
    return 0


# --------------------------------------------------------------------------
# verbs

def _cmd_eval(args) -> int:
    pt_name, pt, res, params = _eval_point(args.fn, args)
    return _emit_point(args, args.fn, params, pt_name, pt, res)


def _cmd_tabulate(args) -> int:
    if args.grid is None:
        raise DomainError("tabulate requires --grid lo:hi:count:scale")
    dim = _parse_grid(args.grid)
    rows = []
    params = {}
    for x in dim.points():
        _, pt, res, params = _eval_point(args.fn, args, float(x))
        rows.append((pt, res))
    if args.format == "json":
        body = {"fn": args.fn}
        body.update(params)
        body["rows"] = [
            {"x": pt, "value": r.value, "abs_err_est": r.abs_err_est}
            for pt, r in rows]
        _write_out(_json_text(body), args.out)
        return 0
    text = _csv_header(args.fn, params)
    for pt, r in rows:
        text += ",".join((_f17(pt), _f17(r.value), _f17(r.abs_err_est))) + "\n"
    _write_out(text, args.out)
    return 0


def _cmd_invert(args) -> int:
    _need(args, "invert", "a", "c", "p")
    p = modulus_params_ac(args.a, args.c)
    r = mu_inv(p, args.p)
    residual = abs(mu(p, r).value - args.p) if 0.0 < r < 1.0 else 0.0
    slope = abs(mu_deriv(p, r).value) if 0.0 < r < 1.0 else math.inf
    res = EvalResult(r, residual / slope + 1e-16, Method.SOLVER)
    return _emit_point(args, "mu_inv", {"a": p.a, "b": p.b, "c": p.c}, "mu", args.p,
                       res, {"mu_residual": residual})


def _cmd_phi(args) -> int:
    _need(args, "phi", "a", "c", "K", "r")
    p = modulus_params_ac(args.a, args.c)
    res = _phi_eval(args.a, args.c, args.K, args.r)
    params = {"a": p.a, "b": p.b, "c": p.c, "K": args.K}
    return _emit_point(args, "phi", params, "r", args.r, res)


def _cmd_solve(args) -> int:
    """Solve mu(s) = p * mu(r): the degree-p modular equation."""
    _need(args, "solve", "a", "c", "p", "r")
    pm = modulus_params_ac(args.a, args.c)
    m = Modulus.from_r(args.r)
    s = phi_k_m(pm, DegreeK(1.0 / args.p), m)
    mu_r = mu_m(pm, m)
    mu_s = mu_m(pm, s)
    residual = abs(mu_s.value - args.p * mu_r.value)
    extra = {"mu_r": mu_r.value, "mu_s": mu_s.value, "residual": residual,
             "s_comp": s.r_comp}
    params = {"a": pm.a, "b": pm.b, "c": pm.c, "degree": args.p}
    return _emit_point(args, "solve", params, "r", args.r, _solved(s), extra)


def _cmd_verify(args) -> int:
    which = args.checks
    if len(which) == 1 and which[0] in ("all", "conjectures"):
        which = which[0]
    try:
        specs = select(which)
    except KeyError as exc:
        sys.stderr.write(f"unknown check id: {exc.args[0]}\n")
        return 4
    if not specs:
        sys.stderr.write("selection matched no checks\n")
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

    if args.format == "json" and not args.out:
        sys.stdout.write(_json_text(report))
        return code
    if args.out:
        _write_out(_json_text(report), args.out)
    if args.format == "csv":
        text = "# verify," + run_id + "\n"
        for spec, rep, dt in entries:
            text += ",".join((rep.id, rep.verdict, _f17(rep.worst_margin),
                              str(rep.samples))) + "\n"
        sys.stdout.write(text)
        return code
    tally = {"pass": 0, "fail": 0, "inconclusive": 0}
    for spec, rep, dt in entries:
        tally[rep.verdict] += 1
        tag = "" if spec.gating else " [non-gating]"
        line = (f"{rep.id}: {rep.verdict}{tag} "
                f"(worst margin {rep.worst_margin:.3e}, "
                f"{rep.samples} samples, {dt:.2f}s)\n")
        sys.stdout.write(line)
        if rep.verdict != "pass" and rep.witness:
            sys.stdout.write(f"    witness: {rep.witness}\n")
    sys.stdout.write(
        f"{tally['pass']} passed, {tally['fail']} failed, "
        f"{tally['inconclusive']} inconclusive; run_id {run_id}\n")
    if args.out:
        sys.stdout.write(f"report written to {args.out}\n")
    return code


def _cmd_list_checks(args) -> int:
    reg = registry()
    if args.format == "json":
        body = [{"id": s.id, "kind": s.kind, "gating": s.gating,
                 "claim": s.claim} for s in reg.values()]
        _write_out(_json_text(body), args.out)
        return 0
    if args.format == "csv":
        text = "# list-checks\n"
        for s in reg.values():
            text += ",".join((s.id, s.kind,
                              "gating" if s.gating else "non-gating")) + "\n"
        _write_out(text, args.out)
        return 0
    text = ""
    for s in reg.values():
        tag = "gating" if s.gating else "non-gating"
        text += f"{s.id:24s} {tag:11s} {s.kind:15s} {s.claim}\n"
    _write_out(text, args.out)
    return 0


# --------------------------------------------------------------------------

def _add_common(sub) -> None:
    sub.add_argument("--a", type=float)
    sub.add_argument("--b", type=float)
    sub.add_argument("--c", type=float)
    sub.add_argument("--r", type=float)
    sub.add_argument("--z", type=float)
    sub.add_argument("--K", type=float)
    sub.add_argument("--p", type=float)
    sub.add_argument("--grid", type=str,
                     help="lo:hi:count:scale (scale: linear|log|logit)")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--out", type=str)
    sub.add_argument("--format", choices=("text", "csv", "json"),
                     default="text")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="genellip",
        description="Generalized elliptic integrals, the generalized "
                    "modulus, the modular function, and a verification "
                    "registry for their monotonicity and inequality "
                    "properties.")
    subs = ap.add_subparsers(dest="verb", required=True)

    p_eval = subs.add_parser("eval", help="evaluate one function at a point")
    p_eval.add_argument("fn", choices=EVAL_FNS)
    _add_common(p_eval)

    p_tab = subs.add_parser("tabulate", help="evaluate over a grid as CSV")
    p_tab.add_argument("fn", choices=TAB_FNS)
    _add_common(p_tab)

    p_inv = subs.add_parser("invert", help="invert mu: find r with "
                                           "mu(r) = --p")
    _add_common(p_inv)

    p_phi = subs.add_parser("phi", help="modular function phi_K(r)")
    _add_common(p_phi)

    p_solve = subs.add_parser("solve", help="solve mu(s) = p mu(r) "
                                            "(degree --p)")
    _add_common(p_solve)

    p_ver = subs.add_parser("verify", help="run verification checks")
    p_ver.add_argument("checks", nargs="+",
                       help="check ids, or 'all' / 'conjectures'")
    p_ver.add_argument("--non-gating", action="store_true",
                       help="exit 0 regardless of verdicts")
    _add_common(p_ver)

    p_list = subs.add_parser("list-checks", help="list registry checks")
    _add_common(p_list)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "eval": _cmd_eval,
        "tabulate": _cmd_tabulate,
        "invert": _cmd_invert,
        "phi": _cmd_phi,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
        "list-checks": _cmd_list_checks,
    }[args.verb]
    try:
        return handler(args)
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
