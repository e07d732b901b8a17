"""Exception hierarchy shared by all evaluation modules, and the one domain
rule: `checked` for a single argument, and `_Params`, the constructor that
the four (a, b, c) types share.

The CLI maps these onto process exit codes: domain-type errors (bad inputs,
poles, out-of-range degree) exit with 2, convergence failures with 3.
"""

import functools
import math
from dataclasses import dataclass


class GenellipError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(GenellipError):
    """An argument lies outside the domain of the requested function."""


class ParameterError(DomainError):
    """A parameter tuple violates its validity constraints."""


class PoleError(DomainError):
    """Evaluation requested at a pole (gamma at a nonpositive integer)."""


class SaturationError(DomainError):
    """A result saturates in double precision: the degree K lies outside
    [1e-3, 1e3], so the modular function would round to 0 or 1; a target
    of mu_inv lies beyond the representable moduli; or a value of Gamma,
    B or 2F1 exceeds the float range.  The saturated endpoint (0, 1 or an
    infinity) is carried in ``endpoint`` so callers can decide to use it
    explicitly."""

    def __init__(self, message: str, endpoint: float):
        super().__init__(message)
        self.endpoint = endpoint


class ConvergenceError(GenellipError):
    """An iteration budget was exhausted before reaching tolerance."""


@functools.cache
def _ends(interval: str) -> tuple[float, float]:
    """The ends of an interval spelled like "(0, 1]", both made open: a
    closed end moves one ulp outward, which admits the end itself and
    nothing past it, for ints and floats alike."""
    lo, hi = (float(s) for s in interval[1:-1].split(","))
    return (math.nextafter(lo, -math.inf) if interval[0] == "[" else lo,
            math.nextafter(hi, math.inf) if interval[-1] == "]" else hi)


def checked(name: str, v, interval: str, error: type = DomainError) -> float:
    """`v` as a float if it is an int or a float (not a bool) in `interval`,
    such as "[0, 1)" or "(0, inf)"; otherwise `error` names the argument.

    An open infinite end excludes the infinity, and NaN lies in no interval.
    """
    lo, hi = _ends(interval)
    if isinstance(v, (int, float)) and v.__class__ is not bool and lo < v < hi:
        return float(v)
    raise error(f"{name} must be a real in {interval}, got {v!r}")


_CAP = "(0, 50]"  # the domain of each of a, b and c


@dataclass(frozen=True, init=False)
class _Params:
    """Parameters (a, b, c), each a real in (0, 50]; a subclass adds its
    own relations between them in `_relate`."""

    a: float
    b: float
    c: float

    def __init__(self, a: float, b: float, c: float):
        d = self.__dict__  # not object.__setattr__, which a frozen __init__ uses
        d["a"] = checked("a", a, _CAP, ParameterError)
        d["b"] = checked("b", b, _CAP, ParameterError)
        d["c"] = checked("c", c, _CAP, ParameterError)
        self._relate()

    def _relate(self) -> None:
        pass
