"""Package-wide contracts: one parameter validator, one version string."""

import math
import pathlib
import re

import pytest

import genellip
from genellip import (EllipticParams, HypParams, MPoint, ModulusParams,
                      modulus_params_ac, reduced_params)
from genellip.errors import ParameterError

# each constructor with a valid argument list; slot i is replaced below
VALID = [
    (HypParams, (0.5, 0.5, 1.0)),
    (EllipticParams, (0.5, 0.5, 0.8)),
    (lambda a, b, c: MPoint(a, b, c, 0.5), (0.5, 0.5, 1.0)),
    (ModulusParams, (0.5, 0.5, 1.0)),
    (reduced_params, (0.3, 0.8)),
    (modulus_params_ac, (0.3, 0.8)),
]
BAD = [True, False, math.nan, math.inf, -math.inf, "0.5", None, 0.0, -0.5]


@pytest.mark.parametrize("make, args", VALID, ids=[
    "HypParams", "EllipticParams", "MPoint", "ModulusParams", "reduced_params",
    "modulus_params_ac"])
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


def test_version_matches_pyproject():
    text = (pathlib.Path(__file__).parents[1] / "pyproject.toml").read_text()
    assert genellip.__version__ == re.search(r'^version\s*=\s*"([^"]+)"', text, re.M)[1]
