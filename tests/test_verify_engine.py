"""Verification engine and registry tests.

A(0.3, 0.8, t=2) was frozen from the Gamma oracle; it reduces to the
rational 25/48 (Gamma(2.5)Gamma(0.8)/(Gamma(2.8)Gamma(0.5)), where both
Gamma(0.8) factors cancel through the recurrence).
"""

import collections
import math

import pytest

from genellip import modulus_params_ac, mu, mu_deriv
from genellip.errors import DomainError, ParameterError
from genellip.verify import (
    CheckReport,
    CheckSpec,
    GridDim,
    GridSpec,
    finite_diff,
    pab,
    registry,
    run_check,
    select,
)
from oracles import DECLARATIONS, declaration_digests

P_CL = modulus_params_ac(0.5, 1.0)


# --------------------------------------------------------------------------
# grids

def test_grid_points_linear():
    d = GridDim("x", 0.0, 1.0, 5, "linear")
    assert list(d.points()) == pytest.approx([0.0, 0.25, 0.5, 0.75, 1.0])


def test_grid_points_log():
    d = GridDim("x", 0.01, 100.0, 5, "log")
    pts = list(d.points())
    assert pts[0] == pytest.approx(0.01)
    assert pts[-1] == pytest.approx(100.0)
    ratios = [pts[i + 1] / pts[i] for i in range(4)]
    assert max(ratios) == pytest.approx(min(ratios), rel=1e-9)


def test_grid_points_logit_symmetric():
    d = GridDim("r", 0.001, 0.999, 9, "logit")
    pts = list(d.points())
    assert pts[0] == pytest.approx(0.001)
    assert pts[-1] == pytest.approx(0.999)
    # logit spacing is symmetric about 1/2
    for lo, hi in zip(pts, reversed(pts)):
        assert lo == pytest.approx(1.0 - hi, abs=1e-12)


def test_grid_pinned_values():
    d = GridDim("K", 0.0, 0.0, 1, "linear", values=(2.0, 5.0))
    assert tuple(d.points()) == (2.0, 5.0)
    with pytest.raises(ParameterError):
        GridDim("K", 0.0, 0.0, 1, "linear", values=())


def test_grid_validation():
    with pytest.raises(ParameterError):
        GridDim("x", 1.0, 0.0, 5, "linear")  # lo >= hi
    with pytest.raises(ParameterError):
        GridDim("x", 0.0, 1.0, 2, "linear")  # count < 3
    with pytest.raises(ParameterError):
        GridDim("x", 0.0, 1.0, 5, "cubic")   # unknown scale


def test_gridspec_combos():
    g = GridSpec((GridDim("a", 0.0, 1.0, 3, "linear"),
                  GridDim("b", 0.0, 0.0, 1, "linear", values=(7.0,))))
    combos = list(g.combos())
    assert len(combos) == 3
    assert combos[0] == {"a": 0.0, "b": 7.0}


# --------------------------------------------------------------------------
# pab notation

def test_pab_at_zero_shift():
    n = pab(0.3, 0.8, 0.0)
    assert n.A == 1.0
    assert n.B_t == pytest.approx(0.0, abs=1e-15)


def test_pab_frozen_gamma_oracle():
    n = pab(0.3, 0.8, 2.0)
    assert n.A == pytest.approx(0.5208333333333333, rel=1e-13)
    assert n.A == pytest.approx(25.0 / 48.0, rel=1e-13)


def test_pab_bt_increasing():
    vals = [pab(0.3, 0.8, t).B_t for t in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(x < y for x, y in zip(vals, vals[1:]))
    assert vals[0] == pytest.approx(0.0, abs=1e-15)


def test_pab_validation():
    with pytest.raises(ParameterError):
        pab(0.8, 0.3, 1.0)  # needs a < c
    with pytest.raises(ParameterError):
        pab(0.3, 0.8, -1.0)


# --------------------------------------------------------------------------
# finite differences

def test_finite_diff_square():
    d = finite_diff(lambda x: x * x, 3.0, 1e-4)
    assert d.first == pytest.approx(6.0, rel=1e-9)


def test_finite_diff_constant():
    d = finite_diff(lambda x: 4.2, 1.0, 1e-4)
    assert d.first == pytest.approx(0.0, abs=1e-9)


def test_finite_diff_matches_mu_deriv():
    d = finite_diff(lambda r: mu(P_CL, r).value, 0.4, 1e-5)
    assert d.first == pytest.approx(mu_deriv(P_CL, 0.4).value, rel=1e-9)


# --------------------------------------------------------------------------
# run_check on hand-built specs

R_GRID = GridSpec((GridDim("r", 0.01, 0.99, 17, "logit"),))
A_CASES = GridSpec((GridDim("a", 0.0, 0.0, 1, "linear", values=(0.5,)),))


def test_identity_check_passes():
    # M(0.5, 0.5, 1, r^2) = 1/pi as an engine identity check
    from genellip import MPoint, m_value

    def lhs(d, r):
        v = m_value(MPoint(0.5, 0.5, 1.0, r * r))
        return v.value, v.abs_err_est

    spec = CheckSpec(
        id="t-classical-m", kind="identity",
        claim="classical M is the constant 1/pi",
        param_grid=A_CASES, arg_grid=R_GRID, tolerance=1e-10,
        fn=lhs, rhs=lambda d, r: (1.0 / math.pi, 0.0))
    rep = run_check(spec)
    assert rep.verdict == "pass"
    assert rep.worst_margin <= 1e-10
    assert rep.samples >= 17


def test_inverted_predicate_fails_with_witness():
    # deliberately wrong: mu is decreasing, claim increasing
    def f(d, r):
        v = mu(P_CL, r)
        return v.value, v.abs_err_est

    spec = CheckSpec(
        id="t-mu-increasing", kind="monotone", direction=1,
        claim="deliberately inverted: mu increasing",
        param_grid=A_CASES, arg_grid=R_GRID, tolerance=1e-9, fn=f)
    rep = run_check(spec)
    assert rep.verdict == "fail"
    assert rep.witness is not None
    assert "r" in rep.witness or "arg" in rep.witness


def test_quotient_c_dependence_check():
    # F(a,b;c;x)/F(a,b;c;y) with x<y, decreasing in c; direct evaluation
    from genellip import HypParams, hyp2f1

    def quot(d, c):
        num = hyp2f1(HypParams(0.4, 0.6, c), 0.2)
        den = hyp2f1(HypParams(0.4, 0.6, c), 0.7)
        v = num.value / den.value
        e = (num.abs_err_est / den.value
             + abs(v) * den.abs_err_est / den.value)
        return v, e

    spec = CheckSpec(
        id="t-quot-c", kind="monotone", direction=-1,
        claim="x<y: F(c;x)/F(c;y) strictly increasing in c toward 1",
        param_grid=A_CASES,
        arg_grid=GridSpec((GridDim("c", 0.45, 10.0, 25, "log"),)),
        tolerance=1e-9,
        fn=lambda d, c: (lambda v, e: (-v, e))(*quot(d, c)))
    rep = run_check(spec)
    assert rep.verdict == "pass"


def test_report_shape():
    rep = run_check(select("mutheorem-1")[0])
    assert isinstance(rep, CheckReport)
    assert rep.id == "mutheorem-1"
    assert rep.verdict in ("pass", "fail", "inconclusive")
    assert rep.samples > 0


def _cold_lngammas(monkeypatch, check_id):
    """The report of one check run on cold caches, and the ln Gamma
    evaluations it made."""
    import gc

    from genellip import hypergeom, modulus, scalar_special
    calls = [0]

    def counted(x, _f=scalar_special._lngamma_raw):
        calls[0] += 1
        return _f(x)
    monkeypatch.setattr(scalar_special, "_lngamma_raw", counted)
    hypergeom._eval_pair.cache_clear()
    modulus._solve_log_mu.cache_clear()
    gc.collect()
    return run_check(select(check_id)[0]), calls[0]


def test_ekmonot_4_reads_half_beta_once_per_triple_not_per_sample(monkeypatch):
    # ekmonot-4 makes one ell_k per sample, so B(a,b)/2 must come from the
    # triple's table, not three ln Gamma values at each of its 2345 samples
    rep, lngammas = _cold_lngammas(monkeypatch, "ekmonot-4")
    assert (rep.verdict, rep.samples) == ("pass", 2345)
    assert lngammas < 1000


def test_hyper_2_reads_b_from_the_triples_table(monkeypatch):
    # hyper-2 reads B(a,b)/2 at every sample and B(a,b) in both limits; each
    # comes from the table of the combo's triple (3135 ln Gamma values when
    # each was built from ln Gamma, 210 from the table)
    rep, lngammas = _cold_lngammas(monkeypatch, "hyper-2")
    assert rep.verdict == "pass"
    assert lngammas < 500


def test_a_cold_check_builds_one_parameter_object_per_combo(monkeypatch):
    # the points of a combo share one EllipticParams, so B(a,b)/2 is read
    # once per combo; when each sample built its own, ell_e, which evaluates
    # (a-1, b, c), kept no (a, b, c) triple alive between samples, and a cold
    # ekmonot-3 evaluated ln Gamma 7,687 times for its 2,345 samples
    from genellip import errors
    spec = select("ekmonot-3")[0]
    combos = sum(spec.param_map(d) is not None for d in spec.param_grid.combos())
    built, init = collections.Counter(), errors._Params.__init__

    def counted(self, *args):
        built[type(self).__name__] += 1
        init(self, *args)
    monkeypatch.setattr(errors._Params, "__init__", counted)
    rep, lngammas = _cold_lngammas(monkeypatch, "ekmonot-3")
    assert (rep.verdict, rep.samples) == ("pass", 2345)
    assert set(built) == {"EllipticParams"} and built["EllipticParams"] <= combos
    assert lngammas <= 700


# --------------------------------------------------------------------------
# registry catalog properties

def test_registry_size_and_ids():
    reg = registry()
    assert len(reg) >= 40
    assert len(set(reg)) == len(reg)
    for cid, spec in reg.items():
        assert spec.id == cid
        assert spec.kind in ("monotone", "convex_concave", "range_endpoints",
                             "inequality", "identity", "derivative_match",
                             "limit")
        assert spec.claim



def test_registry_declarations_are_frozen():
    # ids, kinds, tolerances, claims, grids, parameter maps and probes of
    # every check, in order; tests/oracles.py prints the table anew
    got = declaration_digests()
    assert list(got) == list(DECLARATIONS)
    moved = [cid for cid, digest in got.items() if digest != DECLARATIONS[cid]]
    assert not moved, f"declarations moved: {moved}"


def test_conjectures_not_gating():
    for spec in select("conjectures"):
        assert not spec.gating


def test_select_semantics():
    assert len(select("all")) == len(registry())
    assert [s.id for s in select(["ekmonot-1", "hyper-1"])] == \
        ["ekmonot-1", "hyper-1"]
    with pytest.raises(KeyError):
        select("no-such-id")


def test_spot_checks_pass():
    # a cheap cross-section; the full registry run is the acceptance suite
    for cid in ("hyper-1", "mprop-1", "mutheorem-1", "linconj-g"):
        rep = run_check(select(cid)[0])
        assert rep.verdict == "pass", (cid, rep.witness)



# --------------------------------------------------------------------------
# every verdict path of every check kind, frozen report for report
#
# Cheap closed-form evaluators over two parameter combos drive each kind
# down its fail, inconclusive, pass and evaluation-error paths.  The whole
# report (verdict, worst_margin, witness, samples) is compared exactly, so a
# change to how the engine samples, notes margins or picks witnesses shows.

_INF = math.inf
_X9 = GridSpec((GridDim("x", 0.1, 0.9, 9, "linear"),))
_TWO = GridSpec((GridDim("p", 0.0, 0.0, 1, values=(1.0, 2.0)),))


def _spec(kind, fn, **kw):
    kw.setdefault("param_grid", _TWO)
    return CheckSpec(id=f"t-{kind}", claim="hand-built", kind=kind, arg_grid=_X9,
                     tolerance=kw.pop("tolerance", 1e-9), fn=fn, **kw)


def _raises_above(limit, value):
    def fn(d, x):
        if x > limit:
            raise DomainError(f"x={x!r} out of range")
        return value(d, x)
    return fn


_PATH_SPECS = {
    "monotone-fail": _spec("monotone", lambda d, x: (d["p"] * x, 1e-15), direction=-1),
    "monotone-flat": _spec("monotone", lambda d, x: (d["p"], 1e-12), direction=1),
    "monotone-raise": _spec("monotone", _raises_above(0.5, lambda d, x: (x, 0.0)),
                            direction=1),
    "convex-fail": _spec("convex_concave", lambda d, x: (x * x, 1e-15), direction=-1),
    "convex-flat": _spec("convex_concave", lambda d, x: (d["p"] * x, 1e-9), direction=1),
    "range-pass": _spec("range_endpoints", lambda d, x: (d["p"] * x, 1e-15),
                        lo_limit=lambda d: 0.0, hi_limit=lambda d: d["p"],
                        lo_probe=lambda d: 1e-6, hi_probe=lambda d: 1.0 - 1e-6),
    "range-unattained": _spec("range_endpoints", lambda d, x: (math.sqrt(x), 1e-15),
                              lo_limit=lambda d: -1.0, hi_limit=lambda d: _INF,
                              lo_probe=lambda d: 0.05, hi_probe=lambda d: 0.95),
    "range-raise": _spec("range_endpoints", _raises_above(0.95, lambda d, x: (x, 0.0)),
                         lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
                         lo_probe=lambda d: 1e-9, hi_probe=lambda d: 0.999),
    "monotone-nonfinite": _spec("monotone", lambda d, x: (x if x < 0.5 else _INF, 0.0),
                                direction=1),
    "range-outside": _spec("range_endpoints", lambda d, x: (x + 0.5, 1e-15),
                           lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
                           lo_probe=lambda d: 1e-9, hi_probe=lambda d: 0.99),
    "range-below": _spec("range_endpoints", lambda d, x: (x - 0.5, 1e-15),
                         lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
                         lo_probe=lambda d: 1e-9, hi_probe=lambda d: 0.99),
    "range-nonfinite": _spec("range_endpoints", lambda d, x: (x if x < 0.5 else _INF, 0.0),
                             lo_limit=lambda d: 0.0, hi_limit=lambda d: _INF,
                             lo_probe=lambda d: 1e-9, hi_probe=lambda d: 0.99),
    "range-raise-grid": _spec("range_endpoints", _raises_above(0.5, lambda d, x: (x, 0.0)),
                              lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0,
                              lo_probe=lambda d: 1e-9, hi_probe=lambda d: 0.2),
    "monotone-onto": _spec("monotone", lambda d, x: (x / d["p"], 1e-15), direction=1,
                           lo_limit=lambda d: 0.0, hi_limit=lambda d: 1.0 / d["p"],
                           lo_probe=lambda d: 1e-7, hi_probe=lambda d: 0.99),
    "inequality-fail": _spec("inequality", lambda d, x: (x - 0.25 * d["p"], 1e-15)),
    "inequality-strict": _spec("inequality", lambda d, x: (1e-13 * x, 1e-12)),
    # p = 1 is inconclusive and p = 2 fails: the fail's own point is the witness
    "inequality-fail-after-weak": _spec(
        "inequality", lambda d, x: (1e-13 * x if d["p"] == 1.0 else x - 0.5, 1e-12)),
    "inequality-nonstrict": _spec("inequality", lambda d, x: (1e-13 * x, 1e-12),
                                  strict=False),
    "inequality-raise": _spec("inequality", _raises_above(0.6, lambda d, x: (x, 0.0))),
    "identity-fail": _spec("identity", lambda d, x: (x, 1e-15),
                           rhs=lambda d, x: (x + 1e-3 * d["p"], 0.0)),
    "identity-inside": _spec("identity", lambda d, x: (x, 1e-2),
                             rhs=lambda d, x: (x + 1e-3, 0.0)),
    "identity-raise": _spec("identity", lambda d, x: (x, 0.0),
                            rhs=_raises_above(0.3, lambda d, x: (x, 0.0))),
    "derivative-fail": _spec("derivative_match", lambda d, x: (d["p"] * x * x, 1e-15),
                             rhs=lambda d, x: (3.0 * x, 0.0), tolerance=1e-6),
    "derivative-noisy": _spec("derivative_match", lambda d, x: (x, 0.0),
                              rhs=lambda d, x: (2.0, 0.0), tolerance=1e-6, fd_h=1e-12),
    "derivative-pass": _spec("derivative_match", lambda d, x: (math.exp(d["p"] * x), 0.0),
                             rhs=lambda d, x: (d["p"] * math.exp(d["p"] * x), 0.0),
                             tolerance=1e-6),
    "derivative-raise": _spec("derivative_match", _raises_above(0.45, lambda d, x: (x, 0.0)),
                              rhs=lambda d, x: (1.0, 0.0), tolerance=1e-6),
    "limit-fail": _spec("limit", lambda d, x: (x, 1e-15),
                        rhs=lambda d, x: (0.5 * d["p"], 0.0), tolerance=1e-3),
    "limit-pass": _spec("limit", lambda d, x: (1.0 + 1e-4 * x * d["p"], 1e-15),
                        rhs=lambda d, x: (1.0, 0.0), tolerance=1e-3),
    "limit-raise": _spec("limit", _raises_above(0.2, lambda d, x: (1.0, 0.0)),
                         rhs=lambda d, x: (1.0, 0.0), tolerance=1e-3),
}

_PATH_REPORTS = {
    "monotone-fail": ("fail", -0.100000000000002, 9,
        {"p": 1.0, "arg": 0.1, "value": 0.1, "next_arg": 0.2, "next_value": 0.2}),
    "monotone-flat": ("inconclusive", -2e-12, 18,
        {"p": 1.0, "note": "deltas inside error bounds", "strict_pairs": 0, "pairs": 8}),
    "monotone-raise": ("inconclusive", 0.0, 12,
        {"p": 1.0, "arg": 0.6, "note": "evaluation failed: x=0.6 out of range"}),
    "convex-fail": ("fail", -2.0000000000003983, 9,
        {"p": 1.0, "arg": 0.2, "value": 0.04000000000000001,
         "second_diff": 1.9999999999999982}),
    "convex-flat": ("inconclusive", -4.000000284217097e-07, 18,
        {"p": 1.0, "note": "second differences inside error bounds", "strict_pairs": 0,
         "pairs": 7}),
    "range-pass": ("pass", 0.0, 22, None),
    "range-unattained": ("inconclusive", 0.0, 22,
        {"p": 1.0, "arg": 0.05, "value": 0.22360679774997896, "target": -1.0,
         "note": "lo endpoint approach unresolved"}),
    "range-raise": ("inconclusive", 0.0, 22,
        {"p": 1.0, "arg": 0.999, "note": "endpoint probe failed: x=0.999 out of range"}),
    "monotone-nonfinite": ("inconclusive", 0.0, 10,
        {"p": 1.0, "arg": 0.5, "value": _INF, "note": "non-finite sample"}),
    # range_endpoints samples its grid as the shape kinds do: a value outside
    # finite limits fails and an inf downgrades, before the endpoint probes
    "range-outside": ("fail", -0.10000000000000009, 9,
        {"p": 1.0, "arg": 0.6, "value": 1.1, "bound": 1.0}),
    "range-below": ("fail", -0.4, 9,
        {"p": 1.0, "arg": 0.1, "value": -0.4, "bound": 0.0}),
    "range-nonfinite": ("inconclusive", 0.0, 10,
        {"p": 1.0, "arg": 0.5, "value": _INF, "note": "non-finite sample"}),
    "range-raise-grid": ("inconclusive", 0.0, 12,
        {"p": 1.0, "arg": 0.6, "note": "evaluation failed: x=0.6 out of range"}),
    "monotone-onto": ("pass", 0.04999999999999799, 22, None),
    "inequality-fail": ("fail", -0.15, 1,
        {"p": 1.0, "arg": 0.1, "margin": -0.15}),
    "inequality-strict": ("inconclusive", 1.0000000000000002e-14, 18,
        {"p": 1.0, "note": "margins inside error bounds", "strict_pairs": 0, "pairs": 9}),
    "inequality-fail-after-weak": ("fail", -0.4, 10, {"p": 2.0, "arg": 0.1, "margin": -0.4}),
    "inequality-nonstrict": ("pass", 1.0000000000000002e-14, 18, None),
    "inequality-raise": ("inconclusive", 0.1, 14,
        {"p": 1.0, "arg": 0.7000000000000001,
         "note": "evaluation failed: x=0.7000000000000001 out of range"}),
    "identity-fail": ("fail", -0.000999999000000001, 2,
        {"p": 1.0, "arg": 0.1, "lhs": 0.1, "rhs": 0.101}),
    "identity-inside": ("inconclusive", -0.000999999000000001, 4,
        {"p": 1.0, "arg": 0.1, "lhs": 0.1, "rhs": 0.101,
         "note": "difference inside error bounds"}),
    "identity-raise": ("inconclusive", 1e-09, 10,
        {"p": 1.0, "arg": 0.30000000000000004,
         "note": "evaluation failed: x=0.30000000000000004 out of range"}),
    "derivative-fail": ("fail", -0.3333323333323777, 6,
        {"p": 1.0, "arg": 0.1, "fd": 0.20000000000028673, "formula": 0.30000000000000004}),
    "derivative-noisy": ("inconclusive", -0.49999618307225296, 12,
        {"p": 1.0, "arg": 0.1, "fd": 1.0000056338554941, "formula": 2.0,
         "note": "finite-difference error too large"}),
    "derivative-pass": ("pass", 9.9997210671429e-07, 108, None),
    "derivative-raise": ("inconclusive", 9.9999359845404e-07, 50,
        {"p": 1.0, "arg": 0.5, "note": "evaluation failed: x=0.50001 out of range"}),
    "limit-fail": ("fail", -0.399, 1,
        {"p": 1.0, "arg": 0.1, "value": 0.1, "target": 0.5}),
    "limit-pass": ("pass", 0.000819999999999931, 18, None),
    "limit-raise": ("inconclusive", 0.001, 6,
        {"p": 1.0, "arg": 0.30000000000000004,
         "note": "evaluation failed: x=0.30000000000000004 out of range"}),
}


@pytest.mark.parametrize("name", sorted(_PATH_SPECS))
def test_every_kind_and_path_gives_its_frozen_report(name):
    verdict, worst, samples, witness = _PATH_REPORTS[name]
    spec = _PATH_SPECS[name]
    report = run_check(spec)
    assert report == CheckReport(spec.id, verdict, worst, witness, samples)
    assert type(report.worst_margin) is float

