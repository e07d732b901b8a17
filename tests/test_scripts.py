"""Smoke tests of the tools in scripts/, so that they keep running against
the package they measure."""

import importlib.util
import pathlib
import re

import genellip as g


def test_output_digest_counts_every_kernel_evaluation():
    # routes= splits every kernel evaluation: the misses of _eval_pair and
    # the modulus solver's uncached calls of _kernel
    path = pathlib.Path(__file__).parents[1] / "scripts" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    P, Q = g.ModulusParams(0.3, 0.7, 1.0), g.ModulusParams(1.2, 0.9, 1.5)
    calls = [(g.phi_k, (P, 3.0, 0.6)), (g.phi_k, (Q, 0.5, 0.3)),
             (g.mu_inv, (P, 2.0)), (g.mu_inv, (Q, 5.0))]
    outs, work = digest._outputs(calls)
    fields = dict(field.split("=", 1) for field in work.split())
    routes = sum(map(int, re.findall(r":(\d+)", fields["routes"])))
    assert int(fields["pair_misses"]) == 4  # mu(r) of each phi_k
    assert int(fields["solver_evals"]) >= 4 * 2 * 5
    assert routes == int(fields["pair_misses"]) + int(fields["solver_evals"])
    assert fields["solves"] == "4"
    assert outs == [f(*args) for f, args in calls]
