"""Alternating A/B runs of the benchmark on two checkouts.

    python3 scripts/ab_bench.py PARENT CHANGE --workload modular-solve eval-sweep \\
        --seeds 1 2 3 4 5 6 7 8 9 10 [--pairs 10] [--seconds 40]

PARENT and CHANGE are the roots of two checkouts (say, one made with
`git archive` of the parent commit).  Both get `python3 -m compileall -q src`
first, so neither run pays for byte-compiling.  Pair i runs
`python3 bench/run.py --workload W --seed S --seconds T --trace 0` in each
checkout, with S = seeds[i % len(seeds)]; the parent runs first in even
pairs and the change first in odd ones.  With several workloads, pair i of
each runs before pair i+1 of any, so every workload sees the same phases of
a host whose speed drifts.  Each run's result is the last JSON line it
prints.  For each workload and every end-to-end metric of BENCHMARK.json
the script prints each side's median and quartiles, how many pairs the
change won (ties count for neither side), and two verdicts: `gain` when the
change won at least 9 of every 10 pairs and the medians differ by more than
the parent's interquartile range, and `worse` when the change's median is
worse than the parent's by more than the metric's bound.  It only reads
`bench/`; the runs themselves may fill each checkout's `.bench_cache/`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _compile(root: Path) -> None:
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src"], cwd=root, check=True)


def _run(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run in `root`; its last JSON line."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"ab_bench: bench/run.py failed in {root} (exit {proc.returncode}):\n"
                 f"{proc.stderr}")
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith("{"):
            return json.loads(line)
    sys.exit(f"ab_bench: no JSON result in the output of {root}")


def _quartiles(xs: list[float]) -> tuple[float, float, float]:
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def summarize(runs: list[dict[str, dict]], spec: list[dict]) -> list[str]:
    """One line per end-to-end metric for pairs runs[i] = {side: result}."""
    lines = []
    n = len(runs)
    for metric in spec:
        name, higher = metric["name"], metric["better"] == "higher"
        vals = {s: [r[s]["metrics"][name]["value"] for r in runs] for s in SIDES}
        wins = sum((c > p) if higher else (c < p)
                   for p, c in zip(vals["parent"], vals["change"]))
        ties = sum(p == c for p, c in zip(vals["parent"], vals["change"]))
        (pq1, pmed, pq3), (cq1, cmed, cq3) = (_quartiles(vals[s]) for s in SIDES)
        gain = wins >= 0.9 * n and abs(cmed - pmed) > pq3 - pq1 \
            and (cmed > pmed if higher else cmed < pmed)
        worse = (pmed - cmed if higher else cmed - pmed) > metric["bound"] * abs(pmed)
        lines.append(
            f"{name} [{metric['unit']}, {metric['better']} is better]: "
            f"parent {pmed:.6g} (q1 {pq1:.6g}, q3 {pq3:.6g}, IQR {pq3 - pq1:.3g}) -> "
            f"change {cmed:.6g} (q1 {cq1:.6g}, q3 {cq3:.6g}); "
            f"ratio {cmed / pmed:.4g}; change wins {wins} of {n}, ties {ties}; "
            f"gain={'yes' if gain else 'no'} worse={'yes' if worse else 'no'}")
    for s in SIDES:
        failed = [r[s]["failed"] for r in runs]
        attempted = [r[s]["attempted"] for r in runs]
        correct = all(r[s]["correct"] for r in runs)
        lines.append(f"{s}: failed {failed} of {attempted} per run; all correct={correct}")
    return lines


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", nargs="+", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=None,
                    help="number of pairs (default: one per seed)")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: run_seconds of BENCHMARK.json)")
    args = ap.parse_args(argv)
    roots = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((roots["parent"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    pairs = args.pairs or len(args.seeds)
    for root in roots.values():
        _compile(root)
    runs = {w: [] for w in args.workload}
    for i in range(pairs):
        seed = args.seeds[i % len(args.seeds)]
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        for w in args.workload:
            pair = {s: _run(roots[s], w, seed, seconds) for s in order}
            runs[w].append(pair)
            print(f"pair {i + 1} {w} seed {seed} ({order[0]} first): " + "; ".join(
                f"{s} " + " ".join(f"{k}={v['value']:.6g}" for k, v in pair[s]["metrics"].items())
                for s in SIDES), flush=True)
    for w in args.workload:
        print(f"# {w}, {pairs} pairs of {seconds} s runs")
        for line in summarize(runs[w], bench["end_to_end"]):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
