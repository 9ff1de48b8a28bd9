"""Zeta functions of quadratic-field Fibonacci sequences.

For a squarefree D >= 2 with fundamental unit eps, the trace sequences
F(n) = Tr(eps^n / sqrt(q)) and L(n) = Tr(eps^n) generalize the Fibonacci
and Lucas numbers (D = 5 reproduces them).  This package evaluates the
Dirichlet series over F and its odd/even-indexed halves, and continues
them meromorphically to all of C by independent routes - binomial series,
Poisson summation, and square-detecting shifted convolutions - so that
each value can be cross-validated.  evaluate(field, s, parity, method, tol)
is the single entry point that picks the route and guards the poles; the
route functions themselves are unguarded kernels of their modules.

Importing the package loads no verification module: the four crosscheck
exports (pole_lattice with its PoleSpec record, residue_numeric and
special_value, the exact rational at each negative odd integer) import it
on first access, through the module __getattr__ below (PEP 562).
"""

from .continuation import (
    METHOD_BINOMIAL,
    METHOD_DIRECT,
    METHOD_POISSON,
    METHOD_SHIFTED,
    PARITY_COMBINED,
    PARITY_EVEN,
    PARITY_ODD,
    ZetaEvaluation,
    nearest_lattice_pole,
)
from .dispatch import evaluate
from .errors import (
    DomainError,
    FactorOverflowError,
    FibZetaError,
    NormPlusOneError,
    NotSquarefreeError,
    NumericalError,
    OutOfRegionError,
    PoleAtNonpositiveIntegerError,
    PoleAtOneError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .poisson import RegionSelector, zeta_functional_reconstruction
from .quadfield import (
    MEMBER,
    MEMBER_EVEN_INDEX,
    MEMBER_ODD_INDEX,
    NOT_MEMBER,
    MembershipResult,
    QuadraticField,
    SequenceTerm,
    UnitElement,
    fib,
    fib_upto,
    is_fib,
    iter_sequence,
    lucas,
    make_field,
    r1,
    sequence_terms,
)

__version__ = "0.1.0"

_CROSSCHECK_EXPORTS = (
    "PoleSpec",
    "pole_lattice",
    "residue_numeric",
    "special_value",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + ["crosscheck", *_CROSSCHECK_EXPORTS]
)


def __getattr__(name: str):
    if name == "crosscheck" or name in _CROSSCHECK_EXPORTS:
        from importlib import import_module

        crosscheck = import_module(".crosscheck", __name__)
        return crosscheck if name == "crosscheck" else getattr(crosscheck, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
