"""Package-wide contracts: one parameter validator, one scalar-argument
check, one result type, one version string."""

import ast
import dataclasses
import math
import pathlib
import pickle
import re

import pytest

import genellip
from genellip import (DegreeK, EllipticParams, EvalResult, HypParams, Method, MPoint,
                      Modulus, ModulusParams, arth, gamma, hyp2f1, hyp2f1_pair,
                      modulus_params_ac, mu, mu_inv, phi_k, q_modulus)
from genellip.errors import DomainError, ParameterError
from genellip.verify import pab

# each constructor with a valid argument list; slot i is replaced below
VALID = [
    (HypParams, (0.5, 0.5, 1.0)),
    (EllipticParams, (0.5, 0.5, 0.8)),
    (lambda a, b, c: MPoint(a, b, c, 0.5), (0.5, 0.5, 1.0)),
    (ModulusParams, (0.5, 0.5, 1.0)),
    (modulus_params_ac, (0.3, 0.8)),
]
BAD = [True, False, math.nan, math.inf, -math.inf, "0.5", None, 0.0, -0.5]


@pytest.mark.parametrize("make, args", VALID, ids=[
    "HypParams", "EllipticParams", "MPoint", "ModulusParams", "modulus_params_ac"])
@pytest.mark.parametrize("bad", BAD, ids=repr)
def test_every_parameter_type_rejects_non_reals_alike(make, args, bad):
    make(*args)
    for i in range(len(args)):
        with pytest.raises(ParameterError):
            make(*args[:i], bad, *args[i + 1:])


def test_parameter_cap_only_where_it_was():
    for make in (HypParams, ModulusParams, lambda a, b, c: MPoint(a, b, c, 0.5)):
        with pytest.raises(ParameterError, match="50"):
            make(0.5, 0.5, 51.0)
    assert EllipticParams(0.9, 60.0, 60.5).b == 60.0


P = ModulusParams(0.5, 0.5, 1.0)
# each scalar argument: a call taking it, and an int it must accept (None
# where no int lies in its domain)
SCALARS = {
    "DegreeK.K": (lambda v: DegreeK(v).K, 2),
    "phi_k.K": (lambda v: phi_k(P, v, 0.5), 2),
    "phi_k.r": (lambda v: phi_k(P, 2.0, v), None),
    "mu.r": (lambda v: mu(P, v).value, None),
    "mu_inv.y": (lambda v: mu_inv(P, v), 2),
    "hyp2f1.z": (lambda v: hyp2f1(HypParams(0.5, 0.5, 1.0), v).value, 0),
    "Modulus.from_r": (Modulus.from_r, 1),
    "Modulus.from_r_comp": (Modulus.from_r_comp, 1),
    "Modulus.r": (lambda v: Modulus(v, 1.0), 0),
    "MPoint.z": (lambda v: MPoint(0.5, 0.5, 1.0, v), None),
    "q_modulus.x": (q_modulus, 3),
    "gamma.x": (lambda v: gamma(v).value, 3),
    "hyp2f1_pair.z_comp": (lambda v: hyp2f1_pair(HypParams(0.5, 0.5, 1.0), 0.0, v).value, 1),
    "pab.a": (lambda v: pab(v, 2.0, 0.5), 1),
    "pab.c": (lambda v: pab(0.5, v, 0.5), 2),
    "arth.r": (arth, 0),
    "arth.r_comp": (lambda v: arth(0.0, v), 1),
}


@pytest.mark.parametrize("call, ok_int", SCALARS.values(), ids=SCALARS.keys())
def test_scalar_arguments_reject_bools_and_accept_ints(call, ok_int):
    for bad in (True, False):
        with pytest.raises(DomainError):
            call(bad)
    if ok_int is not None:
        assert call(ok_int) == call(float(ok_int))


def test_arth_rejects_nan():
    for args in ((math.nan,), (math.nan, 0.5), (0.5, math.nan)):
        with pytest.raises(DomainError):
            arth(*args)


def test_eval_result_keeps_its_dataclass_contract():
    r = EvalResult(1.5, 0.25, Method.SERIES)
    assert r == EvalResult(value=1.5, abs_err_est=0.25, method=Method.SERIES)
    assert r != EvalResult(1.5, 0.5, Method.SERIES)
    assert hash(r) == hash((1.5, 0.25, Method.SERIES))
    assert repr(r) == "EvalResult(value=1.5, abs_err_est=0.25, method=<Method.SERIES: 'series'>)"
    assert [(f.name, f.type) for f in dataclasses.fields(r)] == [
        ("value", "float"), ("abs_err_est", "float"), ("method", "Method")]
    assert dataclasses.astuple(r) == (1.5, 0.25, Method.SERIES)
    assert dataclasses.replace(r, value=2.0) == EvalResult(2.0, 0.25, Method.SERIES)
    assert pickle.loads(pickle.dumps(r)) == r
    assert float(r) == 1.5 and math.isfinite(r.value)
    with pytest.raises(dataclasses.FrozenInstanceError):
        r.value = 2.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del r.method
    for bad in (-1.0, math.nan):
        with pytest.raises(ValueError, match="nonnegative"):
            EvalResult(1.0, bad, Method.SERIES)
    assert not math.isfinite(EvalResult(math.inf, 0.0, Method.CLOSED_FORM).value)


def test_version_matches_pyproject():
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert genellip.__version__ == re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)[1]


def _references(path: pathlib.Path) -> set:
    """The names a module reads, as a name or an attribute, outside the
    definition of the same name; imports, comments and strings do not
    count."""
    refs = set()

    def visit(node, defining):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defining = defining | {node.name}
        elif isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load):
            name = node.id if isinstance(node, ast.Name) else node.attr
            if name not in defining:
                refs.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, defining)

    visit(ast.parse(path.read_text()), frozenset())
    return refs


def test_every_export_has_a_caller_beyond_its_unit_tests():
    # an export whose only caller is its own unit test is dead code, and an
    # import that nothing reads is no caller
    root = pathlib.Path(__file__).parents[1]
    package = root / "src" / "genellip"
    paths = [p for p in package.rglob("*.py") if p != package / "__init__.py"]
    paths += [*(root / "bench").glob("*.py"), *(root / "scripts").glob("*.py"),
              root / "tests" / "test_acceptance.py"]
    refs = set().union(*map(_references, paths))
    assert sorted(set(genellip.__all__) - refs) == []
