"""fuzzdec: decomposing fuzzy binary relations into strict preference and
indifference components via triangular norms and conorms."""

from .verdicts import TriState, Verdict, fails, holds, unknown
from .operators import (
    EPSILON,
    BinaryOp,
    Kind,
    check_collapse_implies_absorption,
    check_first_coordinate_continuity,
    check_norm_axioms,
    check_strict_near_zero,
    check_strictly_increasing_first,
    degree_grid,
    find_collapse_witness,
    make_conorm,
    make_custom,
    make_family,
    make_norm,
    parse_op_spec,
)
from .divisors import (
    DegreeInterval,
    bisection_one_interval,
    bisection_zero_interval,
    existence,
    one_interval,
    strong_existence,
    strong_uniqueness,
    uniqueness,
    zero_interval,
)
from .relations import (
    FuzzyRelation,
    RelationParseError,
    crisp_decompose,
    format_relation,
    is_crisp,
    is_t_transitive,
    load_operator_table,
    load_relation,
    parse_relation,
    save_relation,
)
from .decompose import (
    Decomposition,
    DecompositionError,
    bisection_residual,
    canonical_decompose,
    residual,
    residual_array,
    strong_decompose,
    verify_strong,
    verify_weak,
)
from .preferences import (
    FPReport,
    PreferenceTriplet,
    RuleClass,
    RuleClassification,
    audit_fp,
    classify_rule,
    mj_counterexample,
    triplet_from_decomposition,
)
from .regions import (
    RegionGrid,
    restricted_decomposability,
    strong_region,
    t_transitive_closure,
    weak_region,
)
from .tables import (
    TableCell,
    diff_against_reference,
    generate_table1,
    generate_table2,
    render_table,
)

__version__ = "0.1.0"
