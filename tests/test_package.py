"""Package-wide contracts: one parameter validator, one scalar-argument
check, one result type, one version string."""

import ast
import dataclasses
import inspect
import itertools
import math
import pathlib
import pickle
import re

import pytest
from hypothesis import given, settings, strategies as st

import genellip
from genellip import (DegreeK, EllipticParams, EvalResult, HypParams, Method, MPoint,
                      Modulus, ModulusParams, arth, gamma, hyp2f1, hyp2f1_pair,
                      modulus_params_ac, mu, mu_inv, phi_k, q_modulus)
from genellip.errors import DomainError, ParameterError, SaturationError
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


def test_parameter_cap_on_every_parameter_type():
    # past the cap K was garbage: K(0.5, 999.6, 1000; r = 0.9) came out
    # 1.5e78 against 0.0643
    for make in (HypParams, EllipticParams, ModulusParams,
                 lambda a, b, c: MPoint(a, b, c, 0.5)):
        with pytest.raises(ParameterError, match="50"):
            make(0.9, 50.5, 51.0)
        assert make(0.9, 49.5, 50).c == 50.0
    with pytest.raises(ParameterError, match="50"):
        EllipticParams(0.5, 999.6, 1000.0)


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


# well-typed hostile scalars: every scalar argument of the fuzz below is one
HOSTILE = (0, -0.0, -1, 0.5, 1, 1e-300, 1e300, math.nan, math.inf, -math.inf, True)
_SCALAR = st.sampled_from(HOSTILE)
# a valid triple of each parameter type (the second ModulusParams is a+b+1 = 2c,
# the case of the closed-form derivatives), or three hostile scalars
_VALID_ABC = {
    "HypParams": [(0.5, 0.5, 1.0), (1.2, 0.9, 0.5)],
    "EllipticParams": [(0.5, 0.5, 0.8), (0.3, 0.6, 0.7)],
    "ModulusParams": [(0.5, 0.5, 1.0), (0.3, 0.9, 1.1)],
}
_RECORDS = {"EvalResult", "Method"}  # result types, not evaluations


def _argument(annotation):
    """A strategy for one argument: a hostile scalar, or (constructor,
    arguments) for a parameter object or a modulus, built in the test."""
    if annotation in _VALID_ABC:
        cls = getattr(genellip, annotation)
        return st.tuples(st.just(cls), st.one_of(
            st.sampled_from(_VALID_ABC[annotation]), st.tuples(_SCALAR, _SCALAR, _SCALAR)))
    if annotation == "MPoint":
        return st.tuples(st.just(MPoint), st.one_of(
            st.tuples(st.just(0.5), st.just(0.5), st.just(1.0), _SCALAR),
            st.tuples(_SCALAR, _SCALAR, _SCALAR, _SCALAR)))
    if annotation == "Modulus":
        return st.one_of(st.tuples(st.sampled_from([Modulus.from_r, Modulus.from_r_comp]),
                                   st.tuples(_SCALAR)),
                         st.tuples(st.just(Modulus), st.tuples(_SCALAR, _SCALAR)))
    return _SCALAR


_PUBLIC = [getattr(genellip, name) for name in genellip.__all__
           if name not in _RECORDS and not (
               isinstance(getattr(genellip, name), type)
               and issubclass(getattr(genellip, name), Exception))]


@st.composite
def _arguments(draw, fn):
    args = []
    for param in inspect.signature(fn).parameters.values():
        if param.default is not param.empty and draw(st.booleans()):
            break
        args.append(draw(_argument(param.annotation)))
    return tuple(args)


def _build(arg):
    return arg[0](*arg[1]) if isinstance(arg, tuple) else arg


def test_calls_that_crashed_raise_package_errors():
    # each of these ended in a bare OverflowError, ZeroDivisionError or
    # ValueError before Gamma, B and the modulus got their range checks
    for x, endpoint in ((172.0, math.inf), (-5e-324, -math.inf)):
        with pytest.raises(SaturationError) as exc:
            gamma(x)
        assert exc.value.endpoint == endpoint
    with pytest.raises(SaturationError):
        genellip.beta(1e-320, 1e-320)
    with pytest.raises(DomainError, match="underflows"):
        genellip.mu_deriv_closed(ModulusParams(0.3, 0.9, 1.1), 1e-300)
    with pytest.raises(DomainError, match="underflows"):
        genellip.p_logit(Modulus(1.0, 1e-300))
    with pytest.raises(ParameterError):
        genellip.m_scaled_limit(1e300, 1e300, 0.5)
    # x - floor(x) rounds to 1.0 here, so sin(pi x) came out 0
    assert gamma(-1e-17).value == pytest.approx(-1e17, rel=1e-14)
    # parameters near 0 inside (0, 50]: an intermediate left the float range
    # (a NaN error estimate, or an OverflowError) or cancelled to 0
    g = genellip
    for call, error in (
            (lambda: mu_inv(ModulusParams(0.5, 0.5, 1e-300), 1e-300), SaturationError),
            (lambda: g.mu_deriv(ModulusParams(1.0, 1.0, 1e-300), 0.5), SaturationError),
            (lambda: g.phi_deriv(ModulusParams(0.5, 1.0, 1e-300), 2.0, 0.5), SaturationError),
            (lambda: g.m_deriv(MPoint(0.5, 0.5, 1e-300, 1e-300)), SaturationError),
            (lambda: g.m_value_elliptic(EllipticParams(0.5, 0.5, 1.0), Modulus(1e-300, 1.0)),
             DomainError),
            (lambda: g.mu_deriv(ModulusParams(1.0, 1e-300, 0.5), 0.5), DomainError),
            (lambda: g.m_value(MPoint(1.0, 1.0, 0.5, 1e-300)), SaturationError),
            (lambda: g.m_deriv(MPoint(50.0, 50.0, 1e-300, 1e-300)), SaturationError),
            # D = (Gamma(a)Gamma(b)Gamma(c))^2/(4 Gamma(a+b)^3) exceeds the float range
            (lambda: g.mu_deriv_closed(ModulusParams(1e-300, 1.0, 1.0), 0.5), SaturationError),
            # the triple (a-1, b, c) = (-0.5, 0.5, 1e-300) once named Gamma's pole at 0
            (lambda: g.m_value(MPoint(0.5, 0.5, 1e-300, 0.8)), SaturationError),
            # r^(2c-1) r'^(2c) K(r)^2 underflowed to 0 in the closed form
            # (ZeroDivisionError); the derivative lies past the float range
            (lambda: g.mu_deriv(ModulusParams(0.3, 2.7, 2.0), 1e-150), SaturationError),
            (lambda: g.mu_deriv_closed(ModulusParams(0.3, 2.7, 2.0), 1e-150), SaturationError),
            # M's polynomial F(10, -9; 11; 1) and its kin ran to the Maclaurin
            # term cap (ConvergenceError); the derivative lies past the float range
            *((lambda f=f, p=p: f(ModulusParams(*p), 1e-50), SaturationError)
              for f in (g.mu_deriv, g.mu_deriv_closed)
              for p in ((1.0, 20.0, 11.0), (5.0, 20.0, 13.0), (20.0, 1.0, 11.0), (20.0, 5.0, 13.0)))):
        with pytest.raises(error):
            call()
    # a denominator that underflows where the derivative itself fits: the
    # closed form is then taken in logs (mpmath, 40 digits: -3.92482616096012e+268)
    p = ModulusParams(49.5, 49.5, 50.0)
    assert g.mu_deriv(p, 1e-3).value == pytest.approx(-3.92482616096012e+268, rel=1e-12)
    assert g.mu_deriv_closed(p, 1e-3).value == pytest.approx(-3.92482616096012e+268, rel=1e-12)


_TINY = (1e-300, 1e-9, 0.5, 1.0, 50.0)  # each of a, b and c
# and tiny a with b = c + 1 exactly, so that the contiguous triple (a-1, b, c)
# of M lies beside c = a+b with c-b = -1, a pole of Gamma(c-b)
_TINY_ROWS = (*itertools.product(_TINY, repeat=3),
              *((a, c + 1.0, c) for a in (1e-300, 1e-9, 1e-8) for c in (0.7, 2.5, 6.3, 49.0)))
_TINY_ARGS = (1e-300, 0.3, 0.9, 1.0 - 1e-12)  # r or z
_TINY_CALLS = {
    "mu": lambda a, b, c, x: genellip.mu(ModulusParams(a, b, c), x),
    "mu_deriv": lambda a, b, c, x: genellip.mu_deriv(ModulusParams(a, b, c), x),
    "phi_deriv": lambda a, b, c, x: genellip.phi_deriv(ModulusParams(a, b, c), 3.0, x),
    "m_value": lambda a, b, c, x: genellip.m_value(MPoint(a, b, c, x)),
    "m_deriv": lambda a, b, c, x: genellip.m_deriv(MPoint(a, b, c, x)),
    "m_scaled": lambda a, b, c, x: genellip.m_scaled(MPoint(a, b, c, x)),
    "hyp2f1": lambda a, b, c, x: hyp2f1(HypParams(a, b, c), x),
}


# The top of (0, 50]: A&S 15.3.12 cancels to a value with no correct digit,
# often of the wrong sign (F(30, 30; 50; z) for z in [0.75, 0.85]); mu
# underflows below r = 1 on (49, 50, 50) and (49.5, 49.5, 50); and the closed
# form (1-z)^-50 of (10, 50, 10) nears the top of the float range.  The log
# of such a value must not escape as a bare ValueError, nor its bound be inf
# or, for mu, 0.
_LARGE_ROWS = ((30.0, 30.0, 50.0), (20.0, 20.0, 30.0), (49.0, 50.0, 50.0),
               (49.5, 49.5, 50.0), (10.0, 50.0, 10.0))
_LARGE_ARGS = (0.5, 0.9999993, 0.9999995, 0.999999)  # r or z
_LARGE_CALLS = {
    "mu": _TINY_CALLS["mu"],
    "mu_inv": lambda a, b, c, x: mu_inv(ModulusParams(a, b, c), 100.0 * x),
    "phi_k(2)": lambda a, b, c, x: phi_k(ModulusParams(a, b, c), 2.0, x),
    "phi_k(1/2)": lambda a, b, c, x: phi_k(ModulusParams(a, b, c), 0.5, x),
    "phi_deriv": lambda a, b, c, x: genellip.phi_deriv(ModulusParams(a, b, c), 2.0, x),
    # a ParameterError where a+b+1 != 2c
    "phi_deriv_closed": lambda a, b, c, x: genellip.phi_deriv_closed(
        ModulusParams(a, b, c), 2.0, x),
    "hyp2f1": _TINY_CALLS["hyp2f1"],
}


def _contract_breaches(rows, args, calls) -> list:
    """Each call that raised a bare exception, returned an infinite or NaN
    value or bound, or returned mu with a bound of 0 (mu is positive, and a
    bound that underflowed to 0 bounds nothing)."""
    bad = []
    for (a, b, c), x in itertools.product(rows, args):
        for name, call in calls.items():
            try:
                r = call(a, b, c, x)
            except genellip.GenellipError:
                continue
            except Exception as exc:  # a bare exception is the failure
                bad.append((name, a, b, c, x, type(exc).__name__))
                continue
            value, err = float(r), getattr(r, "abs_err_est", 0.0)
            if not (math.isfinite(value) and math.isfinite(err)) or (name == "mu" and err == 0.0):
                bad.append((name, a, b, c, x, value, err))
    return bad


def test_tiny_parameters_give_a_finite_result_or_a_package_error():
    # Parameters at the bottom of (0, 50] push M, mu and their derivatives
    # past the float range, or cancel them to NaN; each such call must say
    # so with a package error, not return inf or NaN or raise a bare one.
    bad = _contract_breaches(_TINY_ROWS, _TINY_ARGS, _TINY_CALLS)
    assert not bad, bad


def test_large_parameters_give_a_finite_result_or_a_package_error():
    bad = _contract_breaches(_LARGE_ROWS, _LARGE_ARGS, _LARGE_CALLS)
    assert not bad, bad


@pytest.mark.parametrize("fn", _PUBLIC, ids=lambda fn: fn.__name__)
@settings(max_examples=7, derandomize=True, deadline=None)
@given(data=st.data())
def test_public_callables_raise_only_package_errors_on_hostile_scalars(fn, data):
    args = data.draw(_arguments(fn))
    try:
        fn(*map(_build, args))
    except genellip.GenellipError:
        pass
