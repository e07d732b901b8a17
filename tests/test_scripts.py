"""Tests of the tools in scripts/: they keep running against the package
they measure, and ab_bench reads its pairs by the rules its docstring
states."""

import importlib.util
import json
import math
import pathlib
import re

import genellip as g
from genellip.hypergeom import _Triple


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
             (g.mu_inv, (P, 2.0)), (g.mu_inv, (Q, 5.0)), (g.modulus_params_ac, (0.5, 1.0))]
    outs, work = digest._outputs(calls)
    fields = dict(field.split("=", 1) for field in work.split())
    # lngamma= and params= count within the calls, as beside every digest
    assert fields["params"] == "1"  # P and Q were built before
    assert int(fields["lngamma"]) >= 6  # B(a,b)/2 of each cold triple: a, b and a+b
    routes = sum(map(int, re.findall(r":(\d+)", fields["routes"])))
    assert int(fields["pair_misses"]) == 4  # mu(r) of each phi_k
    assert int(fields["solver_evals"]) >= 4 * 2 * 5
    assert routes == int(fields["pair_misses"]) + int(fields["solver_evals"])
    assert fields["solves"] == "4"
    assert outs == [f(*args) for f, args in calls]


def test_output_digest_reaches_the_evaluators_no_workload_calls():
    digest = _load("output_digest")
    named = digest._unreached_calls([1])
    names = [name for name, _ in named]
    assert {name: names.count(name) for name in names} == dict.fromkeys(
        ("phi_deriv", "phi_deriv_closed", "m_value_elliptic", "ell_derivatives", "hyp2f1",
         "m_value", "mu_deriv", "hyp2f1_integer_d"), 8)
    # mu_deriv near r = 1 with a+b > c, where M and F blow up
    for q, r in (args for name, (_, args) in named if name == "mu_deriv"):
        assert q.a + q.b > q.c and 1.0 - 1e-2 <= r <= 1.0 - 1e-12
    outs, work = digest._outputs([call for _, call in named])
    fields = dict(field.split("=", 1) for field in work.split())
    assert re.search(r"(^|,)terminating:\d+", fields["routes"])  # M's (a-1, b, c)
    # every call's parameter object was built before the pass; its triples' ln Gamma was not
    assert fields["params"] == "0" and int(fields["lngamma"]) > 0
    # the near-balanced kernel of each hyp2f1 triple would meet a pole of Gamma
    hyp = [args[0] for name, (_, args) in named if name == "hyp2f1"]
    assert {_Triple(p.a, p.b, p.c).route for p in hyp} == {"series"}
    # integer c-a-b past the |c-a-b| = 1 that verify reaches, a and b up to 30
    for p, z in (args for name, (_, args) in named if name == "hyp2f1_integer_d"):
        assert _Triple(p.a, p.b, p.c).route == "integer_d" and max(p.a, p.b) <= 30.0
        assert 2 <= abs(round(p.c - p.a - p.b)) <= 10 and 0.75 <= z < 1.0
    assert outs == digest._outputs([call for _, call in named])[0]


def test_output_digest_keeps_the_pair_lines_apart_from_the_valid_lines():
    # eval K|E --z near 1 get their own cli-pair digest, so that cli-valid
    # stays comparable across a change to the pair --z builds
    digest = _load("output_digest")
    assert not set(digest.PAIR_LINES) & set(digest.CLI_LINES)
    assert {line.split()[1] for line in digest.PAIR_LINES} == {"K", "E"}
    outs = digest._cli_outputs(digest.PAIR_LINES)
    assert len(outs) == 3 * len(digest.PAIR_LINES)
    for line, fmt, out, err, _, code in outs:
        assert (code, err) == (0, "") and out, (line, fmt)


def test_output_digest_keeps_the_solved_lines_apart_from_the_valid_lines():
    # tabulate phi, invert, phi and solve get their own cli-solved digest, so
    # that cli-valid stays comparable across a change to a solved modulus or
    # to the error put on it
    digest = _load("output_digest")
    def solved(line):
        return line.split()[0] in ("invert", "phi", "solve") or line.startswith("tabulate phi ")
    assert not [line for line in digest.CLI_LINES if solved(line)]
    assert all(map(solved, digest.SOLVED_LINES))
    assert {line.split()[0] for line in digest.SOLVED_LINES} == {"tabulate", "invert", "phi",
                                                                 "solve"}
    outs = digest._cli_outputs(digest.SOLVED_LINES)
    assert len(outs) == 3 * len(digest.SOLVED_LINES)
    for line, fmt, out, err, _, code in outs:
        assert (code, err) == (0, "") and out, (line, fmt)


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


def _write_dump(root, groups):
    root.mkdir()
    for name, records in groups.items():
        (root / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return root


def _value_diff(capsys, parent, change):
    code = _load("value_diff").main([str(parent), str(change)])
    return code, capsys.readouterr().out.splitlines()


_GROUP = [{"call": "mu(0.5)", "out": [[1.5, 1e-15]]},
          {"call": "phi_k(0.5)", "out": [[0.25, None]]},
          {"call": "mu(1e-300)", "raised": ["SaturationError", "mu overflows"]}]


def test_value_diff_reports_no_move_between_equal_dumps(tmp_path, capsys):
    parent = _write_dump(tmp_path / "parent", {"g": _GROUP, "verify-all": [
        {"call": "c-1", "verdict": "pass", "samples": 9, "out": [[0.1, None]]}]})
    change = _write_dump(tmp_path / "change", {"g": _GROUP, "verify-all": [
        {"call": "c-1", "verdict": "pass", "samples": 9, "out": [[0.1, None]]}]})
    code, lines = _value_diff(capsys, parent, change)
    assert code == 0
    assert lines == ["g n=3 moved=0 no_est=0 est_moved=0 max_parent=- max_change=- "
                     "est_ratio_p50=- est_ratio_p90=-",
                     "verify-all n=1 moved=0 no_est=0 est_moved=0 max_parent=- max_change=- "
                     "est_ratio_p50=- est_ratio_p90=-",
                     "groups=2 moved=0 no_est=0 est_moved=0 past=0 findings=0"]


def test_value_diff_flags_a_move_past_both_estimates(tmp_path, capsys):
    parent = _write_dump(tmp_path / "parent", {"g": _GROUP, "verify-all": [
        {"call": "c-1", "verdict": "pass", "samples": 9, "out": [[0.1, None]]}]})
    change = _write_dump(tmp_path / "change", {"g": [
        # 1.5 +- 1e-15 moves by 4e-15 with an estimate of 2e-15: past the sum
        {"call": "mu(0.5)", "out": [[1.5 + 4e-15, 2e-15]]},
        {"call": "phi_k(0.5)", "out": [[0.25 + 1e-16, None]]},  # no estimate: counted only
        {"call": "mu(1e-300)", "raised": ["DomainError", "mu is not representable"]}],
        "verify-all": [{"call": "c-1", "verdict": "inconclusive", "samples": 8,
                        "out": [[0.1, None]]}]})
    code, lines = _value_diff(capsys, parent, change)
    assert code == 1
    head, *findings = lines[:4]
    assert head == ("g n=3 moved=2 no_est=1 est_moved=1 max_parent=4 max_change=2 "
                    "est_ratio_p50=2 est_ratio_p90=2")
    assert findings[0].startswith("  past mu(0.5): 1.5 +- 1e-15 -> 1.500000000000004 +- 2e-15")
    assert findings[1] == ("  raised mu(1e-300): ['SaturationError', 'mu overflows'] -> "
                           "['DomainError', 'mu is not representable']")
    assert "  verdict c-1: 'pass' -> 'inconclusive'" in lines
    assert "  samples c-1: 9 -> 8" in lines
    assert lines[-1] == "groups=2 moved=2 no_est=1 est_moved=1 past=1 findings=4"


def test_value_diff_reports_how_far_estimates_moved(tmp_path, capsys):
    # nine estimates that grow 1.1 ... 1.9 times (f(0)'s stays), a value that
    # moves by one ulp inside its estimate, two estimates that move but are
    # not both positive (not counted) and one value where nothing moves
    parent = [{"call": f"f({i})", "out": [[1.0, 1e-15]]} for i in range(10)]
    change = [{"call": f"f({i})", "out": [[1.0, (1.0 + i / 10) * 1e-15]]} for i in range(10)]
    parent.append({"call": "g", "out": [[2.0, 2e-15], [3.0, 0.0], [4.0, None], [5.0, 1e-15]]})
    change.append({"call": "g", "out": [[2.0 + 2.0 ** -51, 2e-15], [3.0, 1e-15], [4.0, 1e-15],
                                        [5.0, 1e-15]]})
    code, lines = _value_diff(capsys, _write_dump(tmp_path / "parent", {"g": parent}),
                              _write_dump(tmp_path / "change", {"g": change}))
    assert code == 0
    # ten ratios, 1.0 (the value that moved) and 1.1 ... 1.9: median 1.45,
    # 90th percentile (nearest rank) the ninth, 1.8
    assert lines[0] == ("g n=11 moved=1 no_est=0 est_moved=11 max_parent=0.222 "
                        "max_change=0.222 est_ratio_p50=1.45 est_ratio_p90=1.8")


def test_output_digest_dumps_what_value_diff_reads(tmp_path, capsys):
    digest = _load("output_digest")
    P = g.ModulusParams(0.3, 0.7, 1.0)
    calls = [(g.mu, (P, 0.5)), (g.phi_k, (P, 2.0, 0.5)), (g.mu, (P, 1e-320))]
    for side in ("parent", "change"):
        outs, _ = digest._outputs(calls)
        (tmp_path / side).mkdir()
        digest._dump(tmp_path / side, "mu/phi", [digest._call(*c) for c in calls], outs)
    records = [json.loads(line) for line in (tmp_path / "parent" / "mu_phi.jsonl").open()]
    mu = g.mu(P, 0.5)
    assert records[0] == {"call": f"mu{(P, 0.5)!r}", "out": [[mu.value, mu.abs_err_est]]}
    assert records[1]["out"] == [[g.phi_k(P, 2.0, 0.5), None]]
    assert records[2]["raised"][0] == "DomainError"  # r^2 underflows to 0
    assert _value_diff(capsys, tmp_path / "parent", tmp_path / "change")[0] == 0
