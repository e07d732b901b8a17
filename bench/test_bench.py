"""Self-tests of the benchmark: seeded draws and the correctness checkers."""

from __future__ import annotations

import math
import sys
from pathlib import Path

import pytest

_HERE = Path(__file__).resolve().parent
for _p in (_HERE.parent / "src", _HERE):
    if str(_p) not in sys.path:
        sys.path.insert(0, str(_p))

import golden  # noqa: E402
import passes  # noqa: E402
import workloads as wl  # noqa: E402
from genellip import EvalResult, Method  # noqa: E402
from genellip.verify.engine import CheckReport  # noqa: E402


def test_eval_draw_is_deterministic_and_seeded():
    a, b = wl.eval_sweep_points(7), wl.eval_sweep_points(7)
    assert a == b
    assert a != wl.eval_sweep_points(8)
    assert len(a) == wl.EVAL_OPS
    assert len({(p.kind, p.a, p.b, p.c, p.x) for p in a}) == len(a)


def test_eval_draw_keeps_shares_and_the_worst_band():
    pts = wl.eval_sweep_points(3)
    counts = wl.eval_counts()
    assert sum(counts.values()) == wl.EVAL_OPS
    for (kind, regime), k in counts.items():
        assert sum(p.kind == kind and p.regime == regime for p in pts) == k
    for r, k in wl.COVERAGE.items():
        assert counts[("hyp2f1", r)] >= k
    worst = [p for p in pts if p.band == "worst"]
    assert len(worst) >= 50
    for p in worst:
        assert 1e-6 <= p.c - p.a - p.b <= 1e-4 * (1 + 1e-9) and 0.97 <= p.x < 1.0
    assert max(p.x for p in pts if p.kind == "hyp2f1") <= 1.0 - wl.Z_COMP_MIN


def test_hyp2f1_points_take_the_branch_they_are_labelled_with():
    for p in wl.eval_sweep_points(4):
        if p.kind == "hyp2f1":
            assert wl.regime(p.a, p.b, p.c, p.x) == p.regime, p


def test_solve_draw_is_deterministic_and_seeded():
    a, b = wl.solve_draws(5), wl.solve_draws(5)
    assert a == b
    assert a != wl.solve_draws(6)
    assert {d["kind"] for d in a} == {"phi_k", "mu_inv"}
    assert sum(d["kind"] == "mu_inv" for d in a) == wl.solve_counts()["mu_inv"]
    ks = [c[4] for d in a if d["kind"] != "mu_inv" for c in d["cands"]]
    assert min(ks) < 1.0 < max(ks) and all(1e-2 <= k <= 1e2 for k in ks)


def test_eval_checker_flags_a_perturbed_value():
    ref = [[2.0, 0.0], [2.0, 0.0], [2.0, 0.0], [2.0, 0.0]]
    outs = [EvalResult(2.0, 1e-15, Method.SERIES),
            EvalResult(2.0 * (1 + 1e-9), 1e-8, Method.SERIES),
            EvalResult(2.0 * (1 + 1e-12), 1e-15, Method.SERIES),
            ValueError("raised")]
    chk = passes.check_eval(ref, outs)
    assert chk.failed == {1, 3}
    assert chk.gross == 1
    assert chk.notes["bound_miss"] == {2}


def test_verify_checker_flags_a_changed_verdict_and_sample_count():
    gold = golden.load()
    assert sum(g["samples"] for g in gold.values()) == 53_500
    assert [k for k, g in gold.items() if g["verdict"] != "pass"] == ["funcineq1-2-printed"]
    g = gold["ekmonot-1"]
    same = CheckReport("ekmonot-1", "pass", g["worst_margin"] + 0.5 * g["margin_tol"], None,
                       g["samples"])
    verdict = CheckReport("ekmonot-1", "inconclusive", g["worst_margin"], {}, g["samples"])
    samples = CheckReport("ekmonot-1", "pass", g["worst_margin"], None, g["samples"] - 1)
    margin = CheckReport("ekmonot-1", "pass", g["worst_margin"] + 2 * g["margin_tol"], None,
                         g["samples"])
    chk = passes.check_verify(gold, [same, verdict, samples, margin])
    assert chk.failed == {1, 2, 3}
    assert chk.gross == 3


def test_margin_tol_replays_every_check_kind():
    from genellip.verify import registry, run_check
    gold, specs = golden.load(), registry()
    # the cheapest check of each kind; funcineq1-2-printed stops at its failure
    for cid in ("sqrtk-2-sharp", "mprop-5", "funcineq1-2-printed", "mextra-2",
                "mextra-1", "ambm-2", "mprop-3"):
        passes.reset()
        tracker = golden.Tracker(record=True)
        rep = run_check(golden.instrument(specs[cid], tracker))
        assert rep.worst_margin == gold[cid]["worst_margin"]
        assert golden.margin_tol(specs[cid], tracker, rep.worst_margin) == gold[cid]["margin_tol"]


def test_margin_tol_is_on_the_scale_of_the_margin():
    # a tolerance far above its margin would let any margin pass; a few
    # checks have neighbouring samples whose estimates exceed their margin
    for cid, g in golden.load().items():
        assert g["margin_tol"] <= 10.0 * abs(g["worst_margin"]), cid


def test_call_counter_counts_with_or_without_the_cache_and_restores():
    import genellip as g
    from genellip import elliptic, hypergeom, modulus
    passes.reset()
    P = g.ModulusParams(0.3, 0.4, 0.7)
    with passes.CallCounter() as counter:
        g.phi_k(P, 3.0, 0.6)
        g.phi_k(P, 3.0, 0.6)
    m = passes.cache_metrics(counter)
    info = passes._PAIR.cache_info()
    assert counter.pairs == info.hits + info.misses == m["hypergeom.calls"]
    assert counter.solves == 2 and m["modulus.solves"] == 1
    assert m["modulus.solver_cache_hit_ratio"] == 0.5
    assert hypergeom._eval_pair is elliptic._eval_pair is modulus._eval_pair is passes._PAIR
    assert modulus._solve_log_mu is passes._SOLVE


def test_removing_the_caches_shows_as_worse_counts(monkeypatch):
    import genellip as g
    from genellip import elliptic, hypergeom, legendre_m, modulus
    for mod in (hypergeom, elliptic, legendre_m, modulus):
        monkeypatch.setattr(mod, "_eval_pair", passes._PAIR.__wrapped__)
    monkeypatch.setattr(modulus, "_solve_log_mu", passes._SOLVE.__wrapped__)
    monkeypatch.setattr(passes, "_PAIR", passes._PAIR.__wrapped__)
    monkeypatch.setattr(passes, "_SOLVE", passes._SOLVE.__wrapped__)
    P = g.ModulusParams(0.3, 0.4, 0.7)
    with passes.CallCounter() as counter:
        g.phi_k(P, 3.0, 0.6)
        g.phi_k(P, 3.0, 0.6)
    m = passes.cache_metrics(counter)
    assert m["hypergeom.calls"] > 0 and m["hypergeom.cache_hit_ratio"] == 0.0
    assert m["modulus.solves"] == 2 and m["modulus.solver_cache_hit_ratio"] == 0.0


def test_every_pass_runs_the_collector_at_the_same_calls():
    import gc
    calls = passes.eval_calls(wl.eval_sweep_points(3)[:400])
    counts = []
    for _ in range(3):
        before = [s["collections"] for s in gc.get_stats()]
        passes.time_ops(calls)
        counts.append([s["collections"] - n for s, n in zip(gc.get_stats(), before)])
    assert counts[0] == counts[1] == counts[2] and counts[0][0] > 0


def test_solve_checker_flags_an_over_budget_residual(monkeypatch):
    pts = [wl.SolvePoint("mu_inv", 0.5, 0.5, 0.6, 0.0, 1.0, 2.0)] * 3
    residuals = iter([5e-14, 2e-13, math.inf])
    monkeypatch.setattr(passes, "solve_residual", lambda p, out: next(residuals))
    chk = passes.check_solve(pts, [0.5, 0.5, 0.5])
    assert chk.failed == {1, 2}
    assert chk.gross == 1
    assert chk.notes["residual_max"] == math.inf


def test_solve_residual_rejects_a_returned_r_off_the_pair():
    import genellip as g
    p = wl.SolvePoint("phi_k", 0.3, 0.4, 0.7, 0.6, 3.0, 0.0)
    s = g.phi_k(g.ModulusParams(p.a, p.b, p.c), p.K, p.r)
    assert passes.solve_residual(p, s) <= passes.RESIDUAL_TOL
    assert passes.solve_residual(p, s * (1 + 1e-12)) == math.inf


def test_tail_level_keeps_ten_samples_beyond():
    import run
    assert run.tail_level(100) == 0.9
    assert run.tail_level(10_000) == 0.99
    assert run.tail_level(85) == 75 / 85


def test_reference_is_converged_on_the_hard_bands():
    import mpmath as mp
    import reference
    pts = wl.eval_sweep_points(3)
    hard = [p for p in pts if p.band in ("worst", "snap", "band-edge", "near-int")][:40]
    hard += [p for p in pts if p.kind == "m_value"][:10]
    for p in hard:
        with mp.workdps(reference.DPS):
            lo = reference._ref_eval(p)
        with mp.workdps(reference.DPS + 30):
            hi = reference._ref_eval(p)
        assert abs(lo - hi) <= 1e-30 * abs(hi)


def test_hd_quantile_is_a_smooth_order_statistic():
    import run
    assert run.hd_quantile([2.0] * 85, 0.88) == pytest.approx(2.0)
    assert run.hd_quantile(list(range(101)), 0.5) == pytest.approx(50.0)
    v = run.hd_quantile(list(range(10_000)), 0.99)
    assert abs(v - 9899) < 2
    # a swap of two neighbours near the quantile moves it by far less than their gap
    xs = [float(i) for i in range(85)]
    ys = xs[:74] + [xs[74] + 20.0] + xs[75:]
    assert run.hd_quantile(ys, 0.8824) - run.hd_quantile(xs, 0.8824) < 5.0


def test_timed_run_counts_each_call_once_however_many_passes(monkeypatch):
    import gc
    import run
    outputs = iter([[1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 2.5, 3.0]])

    class FakePasses:
        same_outputs = staticmethod(passes.same_outputs)

        @staticmethod
        def time_ops(calls):
            return passes.Pass(0.3, [0.1, 0.1, 0.1], next(outputs))

    class NoSetup:
        def between_passes(self):
            pass

    clock = iter([0.0, 0.5, 1.5, 2.5])
    monkeypatch.setattr(run.time, "perf_counter", lambda: next(clock))
    monkeypatch.setattr(run, "_op_workload",
                        lambda P, name, seed: ([None] * 3, lambda outs: passes.Check({0})))
    r = run.Run()
    try:
        run.run_timed(FakePasses, "eval-sweep", 1, 2, r, NoSetup())
    finally:
        gc.unfreeze()
    assert r.notes["passes"] == 3
    # call 0 is wrong in the first pass and call 1 changes in the third
    assert (r.attempted, r.failed, r.correct) == (3, 2, False)
