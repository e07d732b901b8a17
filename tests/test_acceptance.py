"""Acceptance gate: one test per shipped guarantee, each printing a
pass/fail line.

The fourteen criteria certify, in order: the classical Wronskian constant
1/pi, the constant a+b=c=1 family sin(pi a)/pi, the a+b+1=2c power closed
form, M-symmetry under z -> 1-z, the mu round trip and complement product,
the modular functional equation mu(phi_K) = mu/K, the two-sided power
bounds on phi_K, analytic derivative formulas against Richardson central
differences, the M-functions slope bound, the log-odds linearization
bounds, monotone dependence on the c parameter, the midpoint inequality
for mu, the gating verification registry, and agreement of the two
independent M-function evaluation routes.

Default sampling follows the library-wide conventions: 33 logit-spaced
points on (0.001, 0.999) for moduli/arguments, a = {0.1,0.25,0.5,0.75,0.9}c
with c in {0.3,0.5,0.7,0.9,1.0} for the reduced parameter family, and
K in {1.25,2,5,10} for degrees.  "Fixed random" point sets are drawn once
from seeded generators declared inline.
"""

import json
import math
import time

import numpy as np
import pytest

import genellip.cli as cli
from genellip import (DegreeK, EllipticParams, Modulus, MPoint, ModulusParams,
                      ell_derivatives, ell_e, ell_e_minus_rc2k, ell_k,
                      ell_k_minus_e, m_deriv, m_value, m_value_elliptic,
                      modulus_params_ac, mu, mu_deriv, mu_deriv_closed, mu_inv,
                      mu_m, phi_deriv, phi_deriv_closed, phi_k, phi_k_m,
                      phi_logodds, ramanujan_r)
from genellip.verify import GridDim, finite_diff

R33 = [float(r) for r in GridDim("r", 0.001, 0.999, 33, "logit").points()]
Z33 = R33
C_VALS = (0.3, 0.5, 0.7, 0.9, 1.0)
A_FRACS = (0.1, 0.25, 0.5, 0.75, 0.9)
K_VALS = (1.25, 2.0, 5.0, 10.0)


def _announce(num, ok, desc, detail):
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {desc} ({detail})")
    return ok


def test_criterion_01_classical_constant():
    # |M(0.5,0.5,1,r^2) - 1/pi| <= 1e-10 on 33 logit points in under 1 s
    pts = GridDim("r", 0.01, 0.99, 33, "logit").points()
    t0 = time.perf_counter()
    worst = max(abs(m_value(MPoint(0.5, 0.5, 1.0, float(r) ** 2)).value
                    - 1.0 / math.pi) for r in pts)
    dt = time.perf_counter() - t0
    ok = worst <= 1e-10 and dt < 1.0
    assert _announce(1, ok, "classical M constant 1/pi",
                     f"worst {worst:.2e} <= 1e-10, {dt * 1e3:.0f} ms")


def test_criterion_02_sine_constant():
    # |M(a,1-a,1,z) - sin(pi a)/pi| <= 1e-9 for a in {0.1,...,0.9}
    worst = 0.0
    for a in [0.1 * i for i in range(1, 10)]:
        want = math.sin(math.pi * a) / math.pi
        for z in Z33:
            worst = max(worst, abs(m_value(MPoint(a, 1.0 - a, 1.0, z)).value
                                   - want))
    ok = worst <= 1e-9
    assert _announce(2, ok, "constant family sin(pi a)/pi",
                     f"worst {worst:.2e} <= 1e-9")


def test_criterion_03_power_closed_form():
    # a+b+1=2c: M(z) = d (z(1-z))^(1-c), d = Gamma(c)^2/(Gamma(a)Gamma(b))
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        a = float(rng.uniform(0.15, 1.2))
        b = float(rng.uniform(0.15, 1.2))
        c = 0.5 * (a + b + 1.0)
        d = math.exp(2.0 * math.lgamma(c) - math.lgamma(a) - math.lgamma(b))
        for z in Z33:
            got = m_value(MPoint(a, b, c, z)).value
            want = d * (z * (1.0 - z)) ** (1.0 - c)
            worst = max(worst, abs(got - want) / got)
    ok = worst <= 1e-8
    assert _announce(3, ok, "power-family closed form",
                     f"worst rel {worst:.2e} <= 1e-8")


def test_criterion_04_symmetry():
    # |M(x) - M(1-x)| <= 1e-11 M(x) across parameter families
    triples = [(0.5, 0.5, 1.0), (0.3, 0.5, 0.9), (0.25, 0.75, 1.0),
               (0.3, 0.4, 0.6), (0.9, 1.1, 1.5), (0.2, 1.3, 0.8)]
    worst = 0.0
    for a, b, c in triples:
        for x in Z33:
            mx = m_value(MPoint(a, b, c, x)).value
            m1x = m_value(MPoint(a, b, c, 1.0 - x)).value
            worst = max(worst, abs(mx - m1x) / mx)
    ok = worst <= 1e-11
    assert _announce(4, ok, "M symmetric under z -> 1-z",
                     f"worst rel {worst:.2e} <= 1e-11")


def test_criterion_05_mu_round_trip_and_product():
    # |mu_inv(mu(r)) - r| <= 1e-10 and mu(r)mu(r') = (B/2)^2 to 1e-9 rel
    worst_rt = 0.0
    worst_prod = 0.0
    for c in C_VALS:
        for f in A_FRACS:
            p = modulus_params_ac(f * c, c)
            target = p.half_beta ** 2
            for r in R33:
                m = Modulus.from_r(r)
                y = mu_m(p, m).value
                worst_rt = max(worst_rt, abs(mu_inv(p, y) - r))
                prod = y * mu_m(p, m.complement).value
                worst_prod = max(worst_prod, abs(prod - target) / target)
    ok = worst_rt <= 1e-10 and worst_prod <= 1e-9
    assert _announce(5, ok, "mu round trip and complement product",
                     f"round trip {worst_rt:.2e} <= 1e-10, "
                     f"product rel {worst_prod:.2e} <= 1e-9")


def test_criterion_06_modular_functional_equation():
    # mu(phi_K(r)) = mu(r)/K to 1e-9 relative for K in {1.25,2,5,10}.
    # Composed through the exact (r^2, r'^2) pair API: beyond K ~ 5 the
    # solution's complement falls below float resolution of 1-s.
    worst = 0.0
    for c in C_VALS:
        for f in A_FRACS:
            p = modulus_params_ac(f * c, c)
            for K in K_VALS:
                d = DegreeK(K)
                for r in R33:
                    m = Modulus.from_r(r)
                    lhs = mu_m(p, phi_k_m(p, d, m)).value
                    rhs = mu_m(p, m).value / K
                    worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-9
    assert _announce(6, ok, "modular equation mu(phi_K) = mu/K",
                     f"worst rel {worst:.2e} <= 1e-9")


def test_criterion_07_phi_power_bounds():
    # r^(1/K) < phi_K(r) < e^((1-1/K)R/2) r^(1/K), strict beyond the
    # combined error estimate
    cases = ((0.3, 0.8), (0.5, 1.0), (0.7, 0.9))
    worst = math.inf
    for a, c in cases:
        p = modulus_params_ac(a, c)
        growth = math.exp(0.5 * ramanujan_r(a, c - a).value)
        for K in K_VALS:
            d = DegreeK(K)
            for r in R33:
                s = phi_k_m(p, d, Modulus.from_r(r))
                lo = r ** (1.0 / K)
                hi = growth ** (1.0 - 1.0 / K) * lo
                err = 1e-12 * (1.0 + hi) + 5e-13 * s.r
                worst = min(worst, s.r - lo - err, hi - s.r - err)
    ok = worst > 0.0
    assert _announce(7, ok, "two-sided power bounds on phi_K",
                     f"min margin beyond error {worst:.2e} > 0")


def test_criterion_08_derivative_formulas():
    # analytic derivatives vs Richardson central differences, 1e-7 relative,
    # at 20 fixed sample points (plus the power-family closed forms)
    rng = np.random.default_rng(2024)
    pts = []
    for _ in range(20):
        c = float(rng.uniform(0.5, 1.0))
        a = float(rng.uniform(0.2, 0.8)) * c
        b = (c - a) + float(rng.uniform(0.05, 0.95)) * a
        r = float(rng.uniform(0.15, 0.85))
        pts.append((a, b, c, r))

    def rel(got, want):
        return abs(got - want) / max(abs(want), 1e-12)

    worst = 0.0
    for a, b, c, r in pts:
        ep = EllipticParams(a, b, c)
        mp = ModulusParams(a, b, c)
        m = Modulus.from_r(r)
        der = ell_derivatives(ep, m)
        for got, fn in ((der.dK_dr, ell_k), (der.dE_dr, ell_e),
                        (der.dKmE_dr, ell_k_minus_e),
                        (der.dEmr2K_dr, ell_e_minus_rc2k)):
            fd = finite_diff(
                lambda x: fn(ep, Modulus.from_r(x)).value, r, 1e-4).first
            worst = max(worst, rel(got, fd))
        z = r * r
        fd = finite_diff(
            lambda x: m_value(MPoint(a, b, c, x)).value, z, 1e-4).first
        worst = max(worst, rel(m_deriv(MPoint(a, b, c, z)).value, fd))
        fd = finite_diff(lambda x: mu(mp, x).value, r, 1e-4).first
        worst = max(worst, rel(mu_deriv(mp, r).value, fd))
        fd = finite_diff(lambda x: phi_k(mp, 2.0, x), r, 1e-4).first
        worst = max(worst, rel(phi_deriv(mp, 2.0, r).value, fd))
    # closed forms on the a+b+1=2c family
    for (a, b, c), (_, _, _, r) in zip(
            ((0.5, 0.5, 1.0), (0.3, 0.9, 1.1), (0.25, 0.75, 1.0)), pts):
        mp = ModulusParams(a, b, c)
        fd = finite_diff(lambda x: mu(mp, x).value, r, 1e-4).first
        worst = max(worst, rel(mu_deriv_closed(mp, r).value, fd))
        fd = finite_diff(lambda x: phi_k(mp, 2.0, x), r, 1e-4).first
        worst = max(worst, rel(phi_deriv_closed(mp, 2.0, r).value, fd))
    ok = worst <= 1e-7
    assert _announce(8, ok, "derivative formulas vs central differences",
                     f"worst rel {worst:.2e} <= 1e-7")


def test_criterion_09_m_slope_bound():
    # M(r^2) - 2 r^2 M'(r^2) >= (c-a)a - 1e-9 on the b=c-a family
    worst = math.inf
    for c in C_VALS:
        for f in A_FRACS:
            a = f * c
            for r in R33:
                z = r * r
                pt = MPoint(a, c - a, c, z)
                v = (m_value(pt).value - 2.0 * z * m_deriv(pt).value
                     - (c - a) * a)
                worst = min(worst, v)
    ok = worst >= -1e-9
    assert _announce(9, ok, "M slope bound M - 2zM' >= (c-a)a",
                     f"min margin {worst:.2e} >= -1e-9")


def test_criterion_10_logodds_linearization():
    # g(x) >= Kx (x >= 0) and >= x/K (x < 0); h(x) <= x/K (x >= 0) and
    # <= Kx (x < 0); margins >= -1e-9 for K in {2,5} on [-20,20]
    cases = ((0.3, 0.8), (0.5, 1.0), (0.7, 0.9))
    xs = [float(x) for x in np.linspace(-20.0, 20.0, 41)]
    worst = math.inf
    for a, c in cases:
        p = modulus_params_ac(a, c)
        for K in (2.0, 5.0):
            for x in xs:
                g = phi_logodds(p, K, x)
                g_bound = K * x if x >= 0.0 else x / K
                h = phi_logodds(p, DegreeK(1.0 / K), x)
                h_bound = x / K if x >= 0.0 else K * x
                worst = min(worst, g - g_bound, h_bound - h)
    ok = worst >= -1e-9
    assert _announce(10, ok, "log-odds linearization bounds",
                     f"min margin {worst:.2e} >= -1e-9")


def test_criterion_11_dependence_on_c():
    # mu_{a,c}(r) strictly decreasing in c on (a+0.05, 10] (33 log points);
    # phi_K strictly decreasing in c on (a, 1] for K = 2
    ok_mu = True
    ok_phi = True
    for a in (0.3, 0.6):
        cs = [float(x) for x in
              GridDim("c", a + 0.05, 10.0, 33, "log").points()]
        cs_phi = [float(x) for x in np.linspace(a + 0.02, 1.0, 17)]
        for r in (0.2, 0.5, 0.8):
            seq = [mu(modulus_params_ac(a, c), r).value for c in cs]
            ok_mu &= all(x > y for x, y in zip(seq, seq[1:]))
            seq = [phi_k(modulus_params_ac(a, c), 2.0, r) for c in cs_phi]
            ok_phi &= all(x > y for x, y in zip(seq, seq[1:]))
    ok = ok_mu and ok_phi
    assert _announce(11, ok, "strict monotone dependence on c",
                     f"mu decreasing {ok_mu}, phi decreasing {ok_phi}")


def test_criterion_12_midpoint_inequality():
    # mu(1-sqrt((1-u)(1-t))) < (mu(u)+mu(t))/2 < mu(sqrt(ut)) at 200 fixed
    # pairs, strict whenever |u-t| > 1e-3 (by construction all pairs are)
    rng = np.random.default_rng(7)
    pairs = []
    while len(pairs) < 200:
        u, t = rng.uniform(0.02, 0.98, size=2)
        if abs(u - t) > 1e-3:
            pairs.append((float(u), float(t)))
    worst = math.inf
    for a, c in ((0.3, 0.8), (0.5, 1.0), (0.2, 0.4)):
        p = modulus_params_ac(a, c)
        for u, t in pairs:
            mean = 0.5 * (mu(p, u).value + mu(p, t).value)
            left = mu(p, 1.0 - math.sqrt((1.0 - u) * (1.0 - t))).value
            right = mu(p, math.sqrt(u * t)).value
            worst = min(worst, mean - left, right - mean)
    ok = worst > 0.0
    assert _announce(12, ok, "midpoint inequality for mu",
                     f"min strict margin {worst:.2e} > 0")


def test_criterion_13_verification_registry(tmp_path, capsys):
    # `verify all` exits 0 with >= 40 gating passes and no gating failure;
    # conjecture checks report verdicts without gating the exit code
    out = tmp_path / "report.json"
    code = cli.main(["verify", "all", "--out", str(out)])
    capsys.readouterr()
    rep = json.loads(out.read_text())
    from genellip.verify import registry
    reg = registry()
    gating_pass = sum(1 for e in rep["checks"]
                      if reg[e["id"]].gating and e["verdict"] == "pass")
    gating_fail = sum(1 for e in rep["checks"]
                      if reg[e["id"]].gating and e["verdict"] == "fail")
    conj = [e for e in rep["checks"] if not reg[e["id"]].gating]
    ok = (code == 0 and gating_pass >= 40 and gating_fail == 0
          and len(conj) > 0
          and all(e["verdict"] in ("pass", "fail", "inconclusive")
                  for e in conj))
    assert _announce(13, ok, "gating verification registry",
                     f"exit {code}, {gating_pass} passed, {gating_fail} "
                     f"failed, {len(conj)} non-gating reported")


def test_criterion_14_m_route_agreement():
    # contiguous-combination route vs elliptic-integral route, 1e-9
    # relative, at 100 fixed points
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        c = float(rng.uniform(0.45, 1.0))
        a = float(rng.uniform(0.15, 0.85)) * c
        b = (c - a) + float(rng.uniform(0.05, 0.95)) * a
        r = float(rng.uniform(0.05, 0.95))
        via_f = m_value(MPoint(a, b, c, r * r)).value
        via_ke = m_value_elliptic(EllipticParams(a, b, c),
                                  Modulus.from_r(r)).value
        worst = max(worst, abs(via_f - via_ke) / abs(via_f))
    ok = worst <= 1e-9
    assert _announce(14, ok, "two M-function routes agree",
                     f"worst rel {worst:.2e} <= 1e-9")
