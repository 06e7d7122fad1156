"""splicemult: exact multiplicities of abelian covers of splice quotient
surface singularities, computed from the weighted dual graph of the
resolution and a subgroup of the discriminant group."""

from .errors import (
    CapExceededError,
    ConditionError,
    InputError,
    InternalError,
    SpliceMultError,
)
from .graph import (
    BlowupEvent,
    GraphHistory,
    ResolutionGraph,
    blowup_edge,
    blowup_end_point,
    branches,
    graph_from_dict,
    is_minimal,
    parse_and_validate,
)
from .lattice import (
    DiscriminantGroup,
    DualBasis,
    SubgroupData,
    discriminant_group,
    dual_cycles,
    enumerate_subgroups,
    flat_subgroup,
    full_subgroup,
    subgroup,
    trivial_subgroup,
)
from .linalg import (
    SnfResult,
    determinant,
    invert_rational_matrix,
    is_negative_definite,
    smith_normal_form,
)
from .monomial import (
    HilbertBasis,
    MonomialCycle,
    ZeroSumSearch,
    base_point_set,
    gcd_cycle,
    hilbert_basis,
    monomial_condition,
    neumann_wahl_system,
    require_monomial_condition,
)
from .pipeline import (
    EdgeCheckResult,
    EndDecision,
    PipelineReport,
    check_gcd_condition,
    run_pipeline,
)

__version__ = "0.1.0"
