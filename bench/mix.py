"""The call mix of one `genellip verify all` pass, which sets the traffic
shares of eval-sweep and modular-solve (workloads.TRAFFIC, REGIME_TRAFFIC,
SOLVE_TRAFFIC).

    PYTHONPATH=src python3 bench/mix.py

Both LRU caches start cold, as in a CLI run.  Every public function the
checks call is counted at its outermost call, and a call counts as working
when it did work no cache could spare it: a 2F1 evaluation that missed the
``_eval_pair`` cache, a positive series (K-E, E-r'^2K), or a modulus solve.
The 2F1 evaluations that missed are also counted by routing regime, apart
for the solver's and for everything else.  Takes about 20 s.
"""

from __future__ import annotations

import collections
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as wl  # noqa: E402

# The eval-sweep or modular-solve kind each public function counts toward.
KIND_OF = {
    "ell_k": "ell_k", "ell_k_comp": "ell_k", "ell_e": "ell_e",
    "ell_k_minus_e": "ell_k_minus_e", "ell_e_minus_rc2k": "ell_k_minus_e",
    "m_value": "m_value", "m_scaled": "m_value", "mu": "mu", "mu_m": "mu",
    "hyp2f1_pair": "hyp2f1",
    "phi_k": "phi_k", "phi_k_m": "phi_k", "phi_logodds": "phi_k", "mu_inv_m": "mu_inv",
}


def measure() -> dict:
    import genellip.verify.registry  # noqa: F401  (the module, not the function)
    from genellip import elliptic, hypergeom, legendre_m, modulus
    from genellip.verify import registry, run_check

    reg = sys.modules["genellip.verify.registry"]
    pair, solve, series = hypergeom._eval_pair, modulus._solve_log_mu, elliptic._positive_series
    work = [0]  # misses, series and solves since the start
    regimes = {"solver": collections.Counter(), "other": collections.Counter()}

    def counted_pair(a, b, c, z, zc):
        before = pair.cache_info().misses
        out = pair(a, b, c, z, zc)
        if pair.cache_info().misses > before:
            work[0] += 1
            caller = sys._getframe(1).f_code.co_name
            regimes["solver" if caller == "_log_mu_pair" else "other"][
                wl.regime(a, b, c, z)] += 1
        return out

    def counted_series(*args):
        work[0] += 1
        return series(*args)

    def counted_solve(*args):
        before = solve.cache_info().misses
        out = solve(*args)
        work[0] += solve.cache_info().misses > before
        return out

    calls, working = collections.Counter(), collections.Counter()
    depth = [0]

    def outermost(name, f):
        def counted(*args, **kw):
            if depth[0]:
                return f(*args, **kw)
            depth[0] += 1
            before = work[0]
            try:
                return f(*args, **kw)
            finally:
                depth[0] -= 1
                calls[name] += 1
                working[name] += work[0] > before
        return counted

    for mod in (hypergeom, elliptic, legendre_m, modulus):
        mod._eval_pair = counted_pair
    elliptic._positive_series = counted_series
    modulus._solve_log_mu = counted_solve
    for name, f in list(vars(reg).items()):
        if getattr(f, "__module__", None) in (
                "genellip.elliptic", "genellip.hypergeom", "genellip.legendre_m",
                "genellip.modulus", "genellip.scalar_special") and callable(f) \
                and not isinstance(f, type):
            setattr(reg, name, outermost(name, f))
    pair.cache_clear()
    solve.cache_clear()
    for spec in registry().values():
        run_check(spec)
    kinds = collections.Counter()
    for name, n in working.items():
        kinds[KIND_OF.get(name, "other")] += n
    return {"calls": dict(calls), "working": dict(working), "kinds": dict(kinds),
            "regimes": {k: dict(v) for k, v in regimes.items()},
            "pair": pair.cache_info()._asdict(), "solve": solve.cache_info()._asdict()}


def main() -> None:
    m = measure()
    print(f"{'public function':20s} {'calls':>8s} {'working':>8s}  kind")
    for name, n in sorted(m["calls"].items(), key=lambda kv: -kv[1]):
        print(f"{name:20s} {n:8d} {m['working'].get(name, 0):8d}  "
              f"{KIND_OF.get(name, 'other')}")
    print("working calls by kind:", dict(sorted(m["kinds"].items(), key=lambda kv: -kv[1])))
    for who, counts in m["regimes"].items():
        print(f"2F1 cache misses by regime, {who}:", dict(sorted(counts.items())))
    print("_eval_pair:", m["pair"])
    print("_solve_log_mu:", m["solve"])


if __name__ == "__main__":
    main()
