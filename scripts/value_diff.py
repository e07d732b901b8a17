"""How far each value moved between two dumps of `scripts/output_digest.py`,
in units of its error estimates.

    python3 scripts/output_digest.py --dump PARENT_DIR   # in the parent checkout
    python3 scripts/output_digest.py --dump CHANGE_DIR   # in the change
    python3 scripts/value_diff.py PARENT_DIR CHANGE_DIR

For each group (one ``.jsonl`` file of the dump) it prints one line: the
number of values whose bits moved (``moved=``), of those that carry no
estimate on either side (``no_est=``: solved roots, verify limits and worst
margins; counted, not judged), of estimates that moved (``est_moved=``),
the largest move in units of the parent's ``abs_err_est`` and of the
change's (``max_parent=``, ``max_change=``; ``-`` where no moved value
carries one), and the median and 90th percentile (nearest rank) of the
change's estimate over the parent's (``est_ratio_p50=``,
``est_ratio_p90=``), over the values whose value or estimate moved and
whose two estimates are positive (``-`` where there is none), which shows
whether a change loosened its estimates.  Under it, one line per finding:

- ``past``: a value moved by more than the sum of its two estimates, so
  one of them is not a bound (an estimate missing on one side counts as 0);
- ``raised``: a call raised on one side only, or raised another type or
  message;
- ``verdict`` and ``samples``: a verify check whose verdict or sample count
  changed;
- ``call``: the two sides made different calls at one position, which
  leaves the rest of the group unpaired.

Groups found in one directory only are named at the end.  A last line sums
the counts.  The exit status is 1 if any ``past`` finding was printed, else 0.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path


def _read(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _bits(x) -> str | None:
    return None if x is None else float(x).hex()


def _units(move: float, est) -> float | None:
    """move in units of est; None without an estimate, inf for an estimate of 0."""
    if est is None:
        return None
    return move / est if est > 0.0 else (0.0 if move == 0.0 else math.inf)


def compare(parent: list, change: list) -> tuple[dict, list]:
    """The counts of one group's two streams and its findings, each a line."""
    counts = {"n": len(change), "moved": 0, "no_est": 0, "est_moved": 0, "max_parent": None,
              "max_change": None, "est_ratio_p50": None, "est_ratio_p90": None}
    findings = []
    ratios = []
    for i, (p, c) in enumerate(zip(parent, change)):
        if p["call"] != c["call"]:
            findings.append(f"call {i}: {p['call']} | {c['call']}")
            break
        for key in ("verdict", "samples"):
            if p.get(key) != c.get(key):
                findings.append(f"{key} {c['call']}: {p.get(key)!r} -> {c.get(key)!r}")
        if "raised" in p or "raised" in c:
            if p.get("raised") != c.get("raised"):
                findings.append(f"raised {c['call']}: {p.get('raised', p.get('out'))} -> "
                                f"{c.get('raised', c.get('out'))}")
            continue
        for (pv, pe), (cv, ce) in zip(p["out"], c["out"]):
            value_moved = _bits(pv) != _bits(cv)
            if _bits(pe) != _bits(ce):
                counts["est_moved"] += 1
            elif not value_moved:
                continue
            if (pe or 0.0) > 0.0 and (ce or 0.0) > 0.0:
                ratios.append(ce / pe)
            if not value_moved:
                continue
            counts["moved"] += 1
            move = abs(cv - pv)
            for side, est in (("max_parent", pe), ("max_change", ce)):
                units = _units(move, est)
                if units is not None:
                    counts[side] = max(counts[side] or 0.0, units)
            if pe is None and ce is None:
                counts["no_est"] += 1
            elif not move <= (pe or 0.0) + (ce or 0.0):  # a NaN move too
                findings.append(f"past {c['call']}: {pv!r} +- {pe!r} -> {cv!r} +- {ce!r}")
    if len(parent) != len(change):
        findings.append(f"call count: {len(parent)} -> {len(change)}")
    if ratios:
        ratios.sort()
        counts["est_ratio_p50"] = statistics.median(ratios)
        counts["est_ratio_p90"] = ratios[math.ceil(0.9 * len(ratios)) - 1]
    return counts, findings


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.3g}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)
    names = {p.name for p in args.parent.glob("*.jsonl")}
    change_names = {p.name for p in args.change.glob("*.jsonl")}
    total = {"groups": 0, "moved": 0, "no_est": 0, "est_moved": 0, "past": 0, "findings": 0}
    for name in sorted(names & change_names):
        counts, findings = compare(_read(args.parent / name), _read(args.change / name))
        print(f"{name[:-len('.jsonl')]} n={counts['n']} moved={counts['moved']} "
              f"no_est={counts['no_est']} est_moved={counts['est_moved']} "
              f"max_parent={_fmt(counts['max_parent'])} max_change={_fmt(counts['max_change'])} "
              f"est_ratio_p50={_fmt(counts['est_ratio_p50'])} "
              f"est_ratio_p90={_fmt(counts['est_ratio_p90'])}")
        for line in findings:
            print(f"  {line}")
        total["groups"] += 1
        for key in ("moved", "no_est", "est_moved"):
            total[key] += counts[key]
        total["past"] += sum(line.startswith("past ") for line in findings)
        total["findings"] += len(findings)
    for side, only in (("parent", names - change_names), ("change", change_names - names)):
        for name in sorted(only):
            print(f"only in {side}: {name}")
    print(" ".join(f"{k}={v}" for k, v in total.items()))
    return 1 if total["past"] else 0


if __name__ == "__main__":
    sys.exit(main())
