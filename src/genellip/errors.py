"""Exception hierarchy shared by all evaluation modules, and the one
validator for the parameters (a, b, c) that every parameter type uses.

The CLI maps these onto process exit codes: domain-type errors (bad inputs,
poles, out-of-range degree) exit with 2, convergence failures with 3.
"""

import math


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
    of mu_inv lies beyond the representable moduli; or a 2F1 value exceeds
    the float range as z -> 1.  The saturated endpoint (0, 1 or an
    infinity) is carried in ``endpoint`` so callers can decide to use it
    explicitly."""

    def __init__(self, message: str, endpoint: float):
        super().__init__(message)
        self.endpoint = endpoint


class ConvergenceError(GenellipError):
    """An iteration budget was exhausted before reaching tolerance."""


def is_real(v) -> bool:
    """True for an int or a float (or a subclass) that is not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def check_params(cap: float | None = None, **params) -> tuple[float, ...]:
    """The named parameters as floats, in the order given.

    Each must be an int or float (not a bool), finite, positive, and at
    most `cap` when one is given; otherwise ParameterError names it.
    """
    out = []
    for name, v in params.items():
        if (not is_real(v) or not 0.0 < v < math.inf
                or (cap is not None and v > cap)):
            where = "(0, inf)" if cap is None else f"(0, {cap:g}]"
            raise ParameterError(f"{name} must be a finite real in {where}, got {v!r}")
        out.append(float(v))
    return tuple(out)
