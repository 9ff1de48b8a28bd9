"""Zeta functions of quadratic-field Fibonacci sequences.

For a squarefree D >= 2 with fundamental unit eps, the trace sequences
F(n) = Tr(eps^n / sqrt(q)) and L(n) = Tr(eps^n) generalize the Fibonacci
and Lucas numbers (D = 5 reproduces them).  This package evaluates the
Dirichlet series over F and its odd/even-indexed halves, and continues
them meromorphically to all of C by independent routes - binomial series,
Poisson summation, and square-detecting shifted convolutions - so that
each value can be cross-validated.  evaluate(field, s, parity, method, tol)
is the single entry point that picks the route.
"""

from .config import Settings, default_settings
from .continuation import (
    METHOD_BINOMIAL,
    METHOD_DIRECT,
    METHOD_POISSON,
    METHOD_SHIFTED,
    PARITY_COMBINED,
    PARITY_EVEN,
    PARITY_ODD,
    SeriesTail,
    ZetaEvaluation,
    nearest_lattice_pole,
    zeta_combined_binomial,
    zeta_direct,
    zeta_even_binomial,
    zeta_norm_plus_one,
    zeta_odd_binomial,
)
from .crosscheck import (
    EvenMinusOneValue,
    PoleSpec,
    pole_lattice,
    residue_numeric,
    shifted_convolution_even,
    shifted_convolution_odd,
    special_value_even_minus_one,
)
from .dispatch import evaluate
from .errors import (
    ContourThroughPoleError,
    DomainError,
    FactorOverflowError,
    FibZetaError,
    NearOneSingularityError,
    NormMinusOneError,
    NormPlusOneError,
    NotSquarefreeError,
    NumericalError,
    OutOfRegionError,
    PoleAtNonpositiveIntegerError,
    PoleAtOneError,
    PoleProximityError,
    TooSlowConvergenceError,
)
from .poisson import (
    RegionSelector,
    fourier_coefficient_odd,
    regularized_fourier_integral,
    zeta_even_poisson,
    zeta_functional_reconstruction,
    zeta_odd_poisson,
)
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

__all__ = [name for name in dir() if not name.startswith("_")]
