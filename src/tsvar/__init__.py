"""Delta calculus on time scales, Jensen-type integral inequalities, and
closed-form variational solvers with brute-force optimality certification."""

from .errors import (
    AdmissibilityError,
    BudgetError,
    ClassificationError,
    ConstructionError,
    DegenerateProblemError,
    DomainError,
    FeasibilityError,
    ParameterError,
    PreconditionError,
    SchemaError,
    TsvarError,
)
from .functions import (
    Affine,
    Constant,
    Exp,
    Identity,
    Log,
    Polynomial,
    Power,
    ScalarFunction,
    Transformed,
    XLogX,
    classify_convexity,
)
from .jensen import (
    InequalityReport,
    jensen_gap,
    quasi_arithmetic_gap,
    special_case_gap,
    weighted_jensen_gap,
)
from .solvers import (
    Solution,
    VariationalProblem,
    admissible,
    evaluate_functional,
    solve,
)
from .timescale import (
    GridFunction,
    TimeScale,
    custom,
    q_scale,
    real_interval,
    uniform,
)
from .validation import (
    OracleReport,
    WscReport,
    exhaustive_verify,
    perturbation_verify,
    random_verify,
    wsc_counterexample,
)

__version__ = "0.1.0"
