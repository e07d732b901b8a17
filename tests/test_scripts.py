"""Tests of the tools in scripts/: they keep running against the package
they measure, and ab_bench reads its pairs by the rules its docstring
states."""

import importlib.util
import math
import pathlib
import re

import genellip as g


def _load(name):
    path = pathlib.Path(__file__).parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_counts_every_kernel_evaluation():
    # routes= splits every kernel evaluation: the misses of _eval_pair and
    # the modulus solver's uncached calls of _kernel
    digest = _load("output_digest")
    P, Q = g.ModulusParams(0.3, 0.7, 1.0), g.ModulusParams(1.2, 0.9, 1.5)
    calls = [(g.phi_k, (P, 3.0, 0.6)), (g.phi_k, (Q, 0.5, 0.3)),
             (g.mu_inv, (P, 2.0)), (g.mu_inv, (Q, 5.0))]
    # lngamma= and params= of the verify-all line count while _built is active
    with digest._built() as built:
        outs, work = digest._outputs(calls)
        g.mu(g.modulus_params_ac(0.5, 1.0), 0.5)
    g.ModulusParams(0.5, 0.5, 1.0)
    assert built["params"] == 1  # P and Q were built before
    assert built["lngamma"] >= 6  # B(a,b)/2 of each cold triple: a, b and a+b
    fields = dict(field.split("=", 1) for field in work.split())
    routes = sum(map(int, re.findall(r":(\d+)", fields["routes"])))
    assert int(fields["pair_misses"]) == 4  # mu(r) of each phi_k
    assert int(fields["solver_evals"]) >= 4 * 2 * 5
    assert routes == int(fields["pair_misses"]) + int(fields["solver_evals"])
    assert fields["solves"] == "4"
    assert outs == [f(*args) for f, args in calls]


def _summary(parent, change, better="lower", bound=0.25):
    """ab_bench.summarize of synthetic pairs of one metric "m": its line as
    (wins, ties, gain, worse), and the two failed/attempted lines."""
    def side(value, i):
        return {"metrics": {"m": {"value": value}}, "failed": i, "attempted": 1600,
                "correct": True}
    runs = [{"parent": side(p, i), "change": side(c, 2 * i)}
            for i, (p, c) in enumerate(zip(parent, change))]
    spec = [{"name": "m", "unit": "us", "better": better, "bound": bound}]
    line, *failed = _load("ab_bench").summarize(runs, spec)
    wins, ties = map(int, re.search(r"change wins (\d+) of \d+, ties (\d+)", line).groups())
    gain, worse = re.search(r"gain=(yes|no) worse=(yes|no)$", line).groups()
    return (wins, ties, gain == "yes", worse == "yes"), failed


def test_ab_bench_ties_count_for_neither_side():
    assert _summary([1.0, 2.0, 3.0, 4.0], [1.0, 2.0, 3.0, 5.0])[0] == (0, 3, False, False)
    assert _summary([5.0] * 10, [5.0] * 9 + [6.0], better="higher")[0] == (1, 9, False, False)


def test_ab_bench_gain_needs_nine_of_ten_wins_and_medians_past_the_iqr():
    parent = [100.0 + i % 3 for i in range(10)]  # median 101, IQR 2
    assert _summary(parent, [200.0] + [90.0] * 9)[0] == (9, 0, True, False)
    assert _summary(parent, [200.0, 200.0] + [90.0] * 8)[0] == (8, 0, False, False)
    # nine wins, but the medians lie 0.5 apart, inside the parent's IQR
    assert _summary(parent, [p - 0.5 for p in parent[:9]] + [200.0])[0] == (9, 0, False, False)
    higher = [200.0 - p for p in parent]
    assert _summary(higher, [0.0] + [110.0] * 9, better="higher")[0] == (9, 0, True, False)


def test_ab_bench_worse_only_past_the_bound():
    past = math.nextafter(125.0, math.inf)
    assert _summary([100.0] * 3, [125.0] * 3)[0][3] is False  # exactly 25% higher
    assert _summary([100.0] * 3, [past] * 3)[0][3] is True
    assert _summary([100.0] * 3, [75.0] * 3, better="higher")[0][3] is False
    assert _summary([100.0] * 3, [math.nextafter(75.0, 0.0)] * 3, better="higher")[0][3] is True


def test_ab_bench_prints_failed_of_attempted_per_run():
    _, failed = _summary([1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    assert failed == ["parent: failed [0, 1, 2] of [1600, 1600, 1600] per run; all correct=True",
                      "change: failed [0, 2, 4] of [1600, 1600, 1600] per run; all correct=True"]
