"""Evaluation result carrying a value, an error estimate and a method tag."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError, SaturationError


class Method(enum.Enum):
    """How a value was produced; useful when auditing accuracy claims."""

    SERIES = "series"
    RECURRENCE_SHIFT = "recurrence_shift"
    ASYMPTOTIC = "asymptotic"
    REFLECTION = "reflection"
    TRANSFORM_NEAR_ONE = "transform_near_one"
    CLOSED_FORM = "closed_form"
    SOLVER = "solver"


@dataclass(frozen=True, init=False)
class EvalResult:
    """A computed value with a conservative absolute error estimate.

    ``value`` may be ``math.inf`` for quantities whose endpoint value is
    defined as a limit (for example the complete integral at r=1); the
    infinity marker is a legitimate result, not an error.
    """

    value: float
    abs_err_est: float
    method: Method

    def __init__(self, value: float, abs_err_est: float, method: Method):
        # Written by hand: the generated frozen __init__ goes through
        # object.__setattr__ per field, and results are built on every call.
        if abs_err_est < 0 or math.isnan(abs_err_est):
            raise ValueError("abs_err_est must be nonnegative")
        d = self.__dict__
        d["value"] = value
        d["abs_err_est"] = abs_err_est
        d["method"] = method

    def __float__(self) -> float:
        return self.value


def _finite(value: float, err: float, method: Method, what: str, a, b, c) -> EvalResult:
    """The result `what` at (a, b, c) of an M-family or modulus function:
    SaturationError if its value overflowed, DomainError if its value or
    its error bound is NaN or its bound is infinite."""
    if math.isinf(value):
        raise SaturationError(f"{what} exceeds the float range at (a,b,c)=({a!r},{b!r},{c!r})",
                              endpoint=value)
    if not (math.isfinite(value) and math.isfinite(err)):
        raise DomainError(f"{what} is not representable at (a,b,c)=({a!r},{b!r},{c!r})")
    return EvalResult(value, err, method)


def _part(what: str, fn, *args, endpoint: float | None = None):
    """fn(*args), a part of `what`.  A SaturationError of the part names the part's
    end: it becomes `what`'s own at `endpoint`, or a DomainError where `what` has none."""
    try:
        return fn(*args)
    except SaturationError as exc:
        if endpoint is None:
            raise DomainError(f"{what} is not representable: {exc}") from None
        raise SaturationError(str(exc), endpoint=endpoint) from None
