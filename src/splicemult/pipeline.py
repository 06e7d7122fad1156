"""The multiplicity pipeline: base points, GCD condition, blowup loop.

One run computes the multiplicity of the abelian cover attached to a
subgroup H1 of the discriminant group: rounds that find the gcd cycle Z
and the local checks by shortest zero-sum searches alternate with blowups
until every local check passes, and the answer is |H/H1| * (-Z.Z).
Everything is exact; a non-integer result is an internal error, never
something to round.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import CapExceededError, ConditionError, InputError, InternalError
from .graph import GraphHistory, is_minimal
from .lattice import DualBasis, full_subgroup, intersect, to_dual_coordinates
from .monomial import ZeroSumSearch, base_point_set, monomial_string

MODE_STRICT = "strict"
MODE_OPTIMIZED = "optimized"


@dataclass(frozen=True)
class PipelineConfig:
    mode: str = MODE_OPTIMIZED
    max_blowups: int = 64
    allow_non_minimal: bool = False

    def __post_init__(self):
        if self.mode not in (MODE_STRICT, MODE_OPTIMIZED):
            raise InputError(f"unknown mode {self.mode!r}")
        if self.max_blowups <= 0:
            raise InputError(
                f"max_blowups must be positive, got {self.max_blowups}")


@dataclass(frozen=True)
class EdgeCheckResult:
    """Local gcd check at one edge: passed iff a single monomial cycle
    attains both coefficient minima (it is then a Hilbert-basis generator,
    since all coefficients are positive)."""

    edge: tuple
    passed: bool
    witness: object  # monomial string of a witness, or None
    pruned_by_zero: bool

    def to_dict(self):
        return {
            "edge": list(self.edge),
            "passed": self.passed,
            "witness": self.witness,
            "pruned_by_zero": self.pruned_by_zero,
        }


@dataclass(frozen=True)
class EndDecision:
    """Outcome of the base-point analysis at one end in one round."""

    end: int  # original end index
    action: str  # 'witness' | 'not_base_point' | 'blowup' | 'strict_blowup'
    witness: object = None  # monomial string for action == 'witness'

    def to_dict(self):
        return {"end": self.end, "action": self.action, "witness": self.witness}


@dataclass
class RoundRecord:
    graph: object
    z: object  # QCycle
    z_dual: tuple
    end_decisions: tuple = ()
    edge_checks: tuple = ()
    blowup: object = None  # BlowupEvent or None

    def to_dict(self):
        return {
            "Z_vertex": _cycle_json(self.z),
            "Z_dual": _dual_json(self.graph, self.z_dual),
            "end_decisions": [d.to_dict() for d in self.end_decisions],
            "edge_checks": [c.to_dict() for c in self.edge_checks],
            "blowup": self.blowup.to_dict() if self.blowup else None,
        }


@dataclass
class PipelineReport:
    graph: object
    mode: str
    det: int
    invariant_factors: tuple
    order: int
    h1_order: int
    index: int
    history: object  # GraphHistory
    rounds: list
    base_point_decisions: tuple
    z_final: object  # QCycle on the final graph
    zz: Fraction
    multiplicity: int
    input_minimal: bool = True

    def to_dict(self):
        return {
            "det": self.det,
            "H_invariant_factors": list(self.invariant_factors),
            "H1_order": self.h1_order,
            "index": self.index,
            "mode": self.mode,
            "input_minimal": self.input_minimal,
            "rounds": [r.to_dict() for r in self.rounds],
            "Z_final": {
                "vertex": _cycle_json(self.z_final),
                "dual": _dual_json(self.z_final.graph,
                                   self.rounds[-1].z_dual),
            },
            "ZZ": str(self.zz),
            "multiplicity": self.multiplicity,
            "trace": [e.to_dict() for e in self.history.events],
        }


def _cycle_json(cycle):
    return {str(v): str(c) for v, c in cycle.as_dict().items()}


def _dual_json(graph, coords):
    return {str(v): str(c) for v, c in zip(graph.vertex_ids, coords)}


def check_gcd_condition(g, z, z_dual, search):
    """Edge-by-edge gcd check; z_dual holds Z's dual coordinates,
    (-Z . E_v)_v, and search is the round's ZeroSumSearch.

    An edge (v, w) passes when the lexicographically least (M_v, M_w) over
    the monoid is (M_v(Z), M_w(Z)): one member, a generator, attains both
    minima.  Edges with Z . E_v = 0 or Z . E_w = 0 are additionally marked
    pruned_by_zero: the gcd condition holds along the whole curve there,
    so a witness must exist anyway (the full test still runs and the two
    answers are cross-checked by the test suite).
    """
    zero_dot = {v: x == 0 for v, x in zip(g.vertex_ids, z_dual)}
    results = []
    for v, w in g.edges:
        (mv, mw), exps = search.least((v, w))
        if mv != z.coefficient(v):
            raise InternalError(
                f"edge search at ({v}, {w}) found M_{v} = {mv}, "
                f"but Z_{v} = {z.coefficient(v)}")
        witness = monomial_string(exps) if mw == z.coefficient(w) else None
        pruned = zero_dot[v] or zero_dot[w]
        results.append(EdgeCheckResult(edge=(v, w),
                                       passed=witness is not None or pruned,
                                       witness=witness,
                                       pruned_by_zero=pruned))
    return results


def _optimized_end_decisions(history, basis, z, search):
    """Per-end acceptance test after Z is known (cheap blowup avoidance).

    An end is safe when some member with exponent zero there attains the
    minimum of M_v at its vertex v (that generator's monomial does not
    vanish at the end-curve point), or when the end is not a base point
    at all.  Otherwise the point must be blown up and the round restarted.
    """
    g = history.current
    end_map = history.end_map
    base_vertices = None
    decisions = []
    blow_label = None
    for label in sorted(end_map):
        v = end_map[label]
        found = search.least((v,), without=label)
        if found is not None and found[0][0] == z.coefficient(v):
            decisions.append(EndDecision(label, "witness",
                                         monomial_string(found[1])))
            continue
        if base_vertices is None:
            base_vertices = base_point_set(g, basis)
        if v not in base_vertices:
            decisions.append(EndDecision(label, "not_base_point"))
            continue
        decisions.append(EndDecision(label, "blowup"))
        blow_label = label
        break
    return decisions, blow_label


def resolve_base_points(graph_or_history, basis, z, search, config):
    """Base-point stage of one round, in the configured mode.

    Strict mode ignores z/search and blows up every base point of the current
    graph once (done before any monoid computation).  Optimized mode applies
    the per-end acceptance test and performs at most the first required
    blowup; the caller restarts the round when the history has grown.
    Returns (history, decisions).
    """
    history = (graph_or_history if isinstance(graph_or_history, GraphHistory)
               else GraphHistory(graph_or_history))
    if config.mode == MODE_STRICT:
        g = history.current
        blown = base_point_set(g, basis)
        labels = sorted(label for label, v in history.end_map.items()
                        if v in blown)
        decisions = []
        for label in labels:
            history.blowup_end(label)
            decisions.append(EndDecision(label, "strict_blowup"))
        return history, decisions
    decisions, blow_label = _optimized_end_decisions(history, basis, z,
                                                     search)
    if blow_label is not None:
        history.blowup_end(blow_label)
    return history, decisions


def run_pipeline(g, h1, config=None):
    """Full multiplicity computation for the cover attached to H1.

    Rounds: Z on the current graph, base-point stage, then edge checks;
    the lexicographically least failing edge is blown up and the next round
    starts.  Nothing is rebuilt from scratch after a blowup: the dual basis
    starts as h1.group.basis and is pulled back through each new event in
    O(n^2) (DualBasis.pulled_back), and one ZeroSumSearch serves every
    round, searching again only for the new vertex, its edges and a moved
    end.
    Terminates with multiplicity = |H/H1| * (-Z.Z), always a positive
    integer.
    """
    config = config or PipelineConfig()
    minimal = is_minimal(g)
    if not minimal and not config.allow_non_minimal:
        raise ConditionError(
            "input graph has a blow-downable (-1)-vertex; pass the override "
            "to proceed anyway")
    if h1.group.graph != g:
        raise InternalError("subgroup was built on a different graph")

    history = GraphHistory(g)
    basis = h1.group.basis
    base_decisions = []
    if config.mode == MODE_STRICT:
        history, base_decisions = resolve_base_points(
            history, basis, None, None, config)

    rounds = []
    search = None
    pulled = 0  # events already applied to basis
    while True:
        events = history.events
        current = history.current
        if len(events) > config.max_blowups:
            raise CapExceededError(
                f"more than {config.max_blowups} blowups (the graph has "
                f"grown to {len(current)} vertices)")
        for event in events[pulled:]:
            basis = DualBasis.pulled_back(history, event, basis)
        pulled = len(events)
        if search is None:
            search = ZeroSumSearch(basis, h1, history.end_map)
        else:
            search.advance(basis, history.end_map)
        z = search.z()
        record = RoundRecord(graph=current, z=z,
                             z_dual=to_dual_coordinates(z))

        if config.mode == MODE_OPTIMIZED:
            before = len(history.events)
            history, decisions = resolve_base_points(
                history, basis, z, search, config)
            record.end_decisions = tuple(decisions)
            base_decisions.extend(decisions)
            if len(history.events) > before:
                record.blowup = history.events[-1]
                rounds.append(record)
                continue

        checks = check_gcd_condition(current, z, record.z_dual, search)
        record.edge_checks = tuple(checks)
        failing = sorted(c.edge for c in checks if not c.passed)
        if failing:
            event = history.blowup_edge(*failing[0])
            record.blowup = event
            rounds.append(record)
            continue
        rounds.append(record)
        break

    zz = intersect(z, z)
    multiplicity = h1.index * (-zz)
    if multiplicity <= 0 or multiplicity.denominator != 1:
        raise InternalError(
            f"|H/H1| * (-Z.Z) = {multiplicity} is not a positive integer; "
            "this is a bug or a violated input assumption")

    return PipelineReport(
        graph=g,
        mode=config.mode,
        det=h1.group.det,
        invariant_factors=h1.group.invariant_factors,
        order=h1.group.order,
        h1_order=h1.order,
        index=h1.index,
        history=history,
        rounds=rounds,
        base_point_decisions=tuple(base_decisions),
        z_final=z,
        zz=zz,
        multiplicity=int(multiplicity),
        input_minimal=minimal,
    )


def multiplicity_of_quotient(g, config=None, group=None):
    """Multiplicity of the underlying singularity itself (H1 = H)."""
    from .lattice import discriminant_group

    config = config or PipelineConfig()
    if group is None:
        group = discriminant_group(g)
    return run_pipeline(g, full_subgroup(group), config)
