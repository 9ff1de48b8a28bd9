"""Exception hierarchy.

Two branches matter for exit codes: DomainError (bad field / bad input,
CLI exit 4) and NumericalError (an evaluation that cannot be completed
at the requested point or tolerance, CLI exit 3).
"""

from __future__ import annotations


class FibZetaError(Exception):
    """Base class for all package errors."""


class DomainError(FibZetaError):
    """Invalid mathematical input (field construction, preconditions)."""


class NotSquarefreeError(DomainError):
    def __init__(self, d: int, factor: int):
        super().__init__(f"D={d} is divisible by {factor}^2; a squarefree D is required")
        self.d = d
        self.factor = factor


class NormPlusOneError(DomainError):
    """Operation requires a fundamental unit of norm -1."""


class NumericalError(FibZetaError):
    """Evaluation failed for numerical reasons (pole, region, convergence)."""


class PoleProximityError(NumericalError):
    """Requested point is inside the guard radius of a lattice pole."""

    def __init__(self, s: complex, location: complex, k: int, m: int, distance: float):
        super().__init__(
            f"s={s} is {distance:.3e} away from the pole at {location} (k={k}, m={m})"
        )
        self.s = s
        self.location = location
        self.k = k
        self.m = m
        self.distance = distance


class PoleAtNonpositiveIntegerError(NumericalError):
    def __init__(self, index: int):
        super().__init__(f"gamma has a pole at the nonpositive integer {index}")
        self.index = index


class PoleAtOneError(NumericalError):
    def __init__(self):
        super().__init__("zeta has a pole at s=1")


class OutOfRegionError(NumericalError):
    """Series requested outside its half-plane of convergence."""


class NearOneSingularityError(NumericalError):
    """Never raised: the even Poisson pair sum runs only at Re s < 1/2, far
    from s = 1.  Kept because bench/tracing.py counts it as
    poisson.even.strip_fallback."""


class FactorOverflowError(NumericalError):
    """A factor of a formula leaves double range at the requested point,
    although the value it belongs to may not."""

    def __init__(self, factor: str, s: complex):
        super().__init__(f"the factor {factor} leaves double range at s={s}")
        self.factor = factor
        self.s = s


class TooSlowConvergenceError(NumericalError):
    def __init__(self, needed: float, cap: int):
        super().__init__(
            f"estimated {needed:.3e} terms needed, above the cap of {cap}; "
            "the requested tolerance is unreachable with plain truncation here"
        )
        self.needed = needed
        self.cap = cap
