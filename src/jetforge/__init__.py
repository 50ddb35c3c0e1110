"""Symbolic calculus on jet bundles with exact arithmetic.

The package computes prolongations of nonlinear differential operators,
their symbols and Spencer cohomology, runs a formal-integrability
criterion for scalar equations, builds truncated formal power-series
solutions, and manipulates projective-limit towers of jet spaces.  All
core arithmetic is rational and exact; sampled checks say so in their
reports.
"""

from .mindex import (
    MultiIndex,
    GradedIndexRange,
    enumerate_indices,
    dim_F,
    factorial,
    multinomial,
    sorted_graded_lex,
)
from .symexpr import (
    Expr,
    BaseVar,
    JetVar,
    ParamVar,
    CovectorVar,
    ExprError,
    ParseError,
    EvaluationError,
    EvalZeroDivision,
    ExprContext,
    ZERO,
    ONE,
    as_expr,
    base,
    jet,
    param,
    covector,
    prim,
    register_primitive,
    differentiate,
    substitute,
    evaluate,
    parse_expr,
    format_expr,
    clear_denominators,
    is_identically_zero,
    inverse,
)
from .jetcalc import (
    JetChartSpec,
    JetPoint,
    DiffOp,
    SectionPoly,
    jet_of_section,
    total_derivative,
    prolong_op,
    iota_reindex,
    IotaReindex,
    classical_to_bundle,
    bundle_to_classical,
    residual_of_section,
)
from .spencer import (
    RationalMatrix,
    spencer_delta,
    restricted_delta,
    SymbolicSystem,
    SymbolZeroError,
    symbolic_system_at,
    full_system,
    prolong_system,
    cohomology_dims,
)
from .symbols import (
    SymbolPoly,
    symbol_of,
    symbol_linear,
    check_linear_symbol_diagram,
    SymbolProlongMatrix,
    symbol_prolong1,
    characteristic_test,
    sample_variety_points,
    SamplerError,
    RankReport,
    rank_profile,
)
from .integrability import (
    MetricSpec,
    KleinGordonOp,
    make_klein_gordon,
    LiftObstructionError,
    LiftResult,
    lift_point,
    lift_system_at,
    sample_prolonged_points,
    IntegrabilityReport,
    check_conditions,
    CodimReport,
    variety_codim,
)
from .formal import (
    TruncSeries,
    series_mul,
    series_compose_scalar,
    FormalSolution,
    formal_solve,
    ResidualReport,
    verify_residual,
)
from .pfd import (
    TowerSpec,
    Thread,
    ThreadError,
    TangentThread,
    JetTower,
    make_jet_tower,
    thread_check_extend,
    borel_realize,
    LocalFunction,
    pullback_local_function,
    LocalVectorField,
    total_derivative_field,
    vf_apply,
    lie_bracket,
    LocalForm,
    d,
    wedge,
    contract,
    EquationSubtower,
    equation_subtower,
    LinearTower,
    tower_splitting,
    TowerSplitting,
    tensor_tower,
    TensorTowerResult,
    verify_equivalence,
)
from .cli import (
    ProblemSpec,
    ProblemError,
    parse_problem_file,
    format_problem,
    run_command,
    emit_report,
    CliFlags,
    Report,
)

__version__ = "0.1.0"
