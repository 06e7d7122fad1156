"""The multiplicity pipeline: base points, GCD condition, blowup loop.

One run computes the multiplicity of the abelian cover attached to a
subgroup H1 of the discriminant group: rounds that find the gcd cycle Z
and the local checks by shortest zero-sum searches alternate with blowups
until every local check passes, and the answer is |H/H1| * (-Z.Z).
Everything is exact; a non-integer result is an internal error, never
something to round.  The loop runs in integers over den = |H|: Z as
|H| * Z_v, its dual coordinates as |H| * (-Z.E_v) and Z.Z as |H|^2 * Z.Z.
A Fraction is built only when a report's rational values are read.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import CapExceededError, ConditionError, InputError, InternalError
from .graph import GraphHistory, is_minimal
from .lattice import DualBasis, QCycle, _FractionText, full_subgroup
from .monomial import ZeroSumSearch, base_point_set, monomial_string

MAX_BLOWUPS = 64  # default cap on the blowups of one run


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
    action: str  # 'witness' | 'not_base_point' | 'blowup'
    witness: object = None  # monomial string for action == 'witness'

    def to_dict(self):
        return {"end": self.end, "action": self.action, "witness": self.witness}


@dataclass
class RoundRecord:
    """One round of the loop on `graph`.  Z is carried as the integers
    |H| * Z_v and its dual coordinates as |H| * (-Z.E_v), both in vertex
    order over den = |H|; `z` and `z_dual` build the rational values when
    they are read."""

    graph: object
    den: int
    z_num: tuple
    z_dual_num: tuple
    end_decisions: tuple = ()
    edge_checks: tuple = ()
    blowup: object = None  # BlowupEvent or None

    @property
    def z(self):
        """Z as a QCycle on this round's graph."""
        return QCycle(self.graph, [Fraction(x, self.den) for x in self.z_num])

    @property
    def z_dual(self):
        """Z's dual coordinates (-Z.E_v)_v."""
        return tuple(Fraction(x, self.den) for x in self.z_dual_num)

    def to_dict(self, text=None):
        """The JSON form; `text` is a report's shared numerator-to-string
        map (see _FractionText), a fresh one when omitted."""
        if text is None:
            text = _FractionText(self.den)
        return {
            "Z_vertex": _json_map(self.graph, self.z_num, text),
            "Z_dual": _json_map(self.graph, self.z_dual_num, text),
            "end_decisions": [d.to_dict() for d in self.end_decisions],
            "edge_checks": [c.to_dict() for c in self.edge_checks],
            "blowup": self.blowup.to_dict() if self.blowup else None,
        }


@dataclass
class PipelineReport:
    graph: object
    det: int
    invariant_factors: tuple
    order: int  # |H|, the denominator of every round's numerators
    h1_order: int
    index: int
    history: object  # GraphHistory
    rounds: list
    zz_num: int  # |H|^2 * Z.Z
    multiplicity: int
    input_minimal: bool = True

    @property
    def z_final(self):
        """Z on the final graph, as a QCycle."""
        return self.rounds[-1].z

    @property
    def zz(self):
        """Z.Z as a Fraction."""
        return Fraction(self.zz_num, self.order ** 2)

    @property
    def base_point_decisions(self):
        """Every round's end decisions, in order."""
        return tuple(d for r in self.rounds for d in r.end_decisions)

    def to_dict(self):
        text = _FractionText(self.order)
        last = self.rounds[-1]
        return {
            "det": self.det,
            "H_invariant_factors": list(self.invariant_factors),
            "H1_order": self.h1_order,
            "index": self.index,
            "input_minimal": self.input_minimal,
            "rounds": [r.to_dict(text) for r in self.rounds],
            "Z_final": {
                "vertex": _json_map(last.graph, last.z_num, text),
                "dual": _json_map(last.graph, last.z_dual_num, text),
            },
            "ZZ": str(self.zz),
            "multiplicity": self.multiplicity,
            "trace": [e.to_dict() for e in self.history.events],
        }


def _json_map(graph, nums, text):
    return {str(v): text[x] for v, x in zip(graph.vertex_ids, nums)}


def _dual_numerators(g, z):
    """|H| * (-Z.E_v) in vertex order, from |H| * Z_v: one integer pass
    of the intersection form."""
    at = dict(zip(g.vertex_ids, z))
    return tuple(-g.weight(v) * at[v] - sum(at[u] for u in g.neighbors(v))
                 for v in g.vertex_ids)


def check_gcd_condition(g, z, z_dual, search, known=None):
    """Edge-by-edge gcd check.  z and z_dual hold |H| * Z_v and
    |H| * (-Z.E_v) in vertex order, and search is the run's ZeroSumSearch.

    An edge (v, w) passes when the lexicographically least (M_v, M_w) over
    the monoid is (M_v(Z), M_w(Z)): one member, a generator, attains both
    minima.  Edges with Z . E_v = 0 or Z . E_w = 0 are additionally marked
    pruned_by_zero: the gcd condition holds along the whole curve there,
    so a witness must exist anyway (the full test still runs and the two
    answers are cross-checked by the test suite).

    `known` maps (edge, pruned_by_zero) to the result of an earlier round
    of the same run and is filled in here.  Vertex ids persist through
    blowups, and an old vertex keeps its minima (see ZeroSumSearch), so a
    result depends only on its edge and that flag.
    """
    if known is None:
        known = {}
    at = dict(zip(g.vertex_ids, z))
    zero_dot = dict(zip(g.vertex_ids, [x == 0 for x in z_dual]))
    results = []
    for v, w in g.edges:
        key = ((v, w), zero_dot[v] or zero_dot[w])
        result = known.get(key)
        if result is None:
            (mv, mw), exps = search.least((v, w))
            if mv != at[v]:
                raise InternalError(
                    f"edge search at ({v}, {w}) found |H| * M_{v} = {mv}, "
                    f"but |H| * Z_{v} = {at[v]}")
            witness = monomial_string(exps) if mw == at[w] else None
            result = known[key] = EdgeCheckResult(
                edge=(v, w), passed=witness is not None or key[1],
                witness=witness, pruned_by_zero=key[1])
        results.append(result)
    return results


def _end_decisions(history, basis, z, search):
    """Per-end test of one round, after Z (|H| * Z_v in vertex order) is
    known.

    An end is settled when some member with exponent zero there attains
    the minimum of M_v at its vertex v (that generator's monomial does not
    vanish at the end-curve point), or when the end is not a base point
    at all.  The first end that is neither is blown up, and the round ends
    there.  Returns (decisions, the blowup event or None).
    """
    current = history.current
    end_map = history.end_map
    base_vertices = None
    decisions = []
    for label in sorted(end_map):
        v = end_map[label]
        found = search.least((v,), without=label)
        if found is not None and found[0][0] == z[current.index(v)]:
            decisions.append(EndDecision(label, "witness",
                                         monomial_string(found[1])))
            continue
        if base_vertices is None:
            base_vertices = base_point_set(current, basis)
        if v not in base_vertices:
            decisions.append(EndDecision(label, "not_base_point"))
            continue
        decisions.append(EndDecision(label, "blowup"))
        return tuple(decisions), history.blowup_end(label)
    return tuple(decisions), None


def run_pipeline(g, h1, *, max_blowups=MAX_BLOWUPS, allow_non_minimal=False):
    """Full multiplicity computation for the cover attached to H1.

    Rounds: Z on the current graph, then the end tests, then the edge
    checks.  A round ends with a blowup at the first end that has no
    witness and is a base point, else at the lexicographically least
    failing edge, and the next round starts; it ends without one once
    every end has a witness or is not a base point and every edge passes.
    Nothing is rebuilt from scratch after a blowup: the dual basis
    starts as h1.group.basis and is pulled back through each new event in
    O(n^2) (DualBasis.pulled_back), one ZeroSumSearch serves every
    round, searching again only for the new vertex, its edges and a moved
    end, and an edge check is made again only for a new edge or a changed
    Z.E = 0 flag.
    Terminates with multiplicity = |H/H1| * (-Z.Z), always a positive
    integer.
    """
    if max_blowups <= 0:
        raise InputError(f"max_blowups must be positive, got {max_blowups}")
    minimal = is_minimal(g)
    if not minimal and not allow_non_minimal:
        raise ConditionError(
            "input graph has a blow-downable (-1)-vertex; pass the override "
            "to proceed anyway")
    if h1.group.graph != g:
        raise InternalError("subgroup was built on a different graph")

    history = GraphHistory(g)
    basis = h1.group.basis
    search = ZeroSumSearch(basis, h1, history.end_map)
    known_edges = {}  # check_gcd_condition's results, kept across rounds
    rounds = []
    while True:
        current = history.current
        z = search.z()
        record = RoundRecord(graph=current, den=basis.den, z_num=z,
                             z_dual_num=_dual_numerators(current, z))
        rounds.append(record)
        record.end_decisions, record.blowup = _end_decisions(
            history, basis, z, search)
        if record.blowup is None:
            checks = check_gcd_condition(current, z, record.z_dual_num,
                                         search, known_edges)
            record.edge_checks = tuple(checks)
            failing = sorted(c.edge for c in checks if not c.passed)
            if not failing:
                break
            record.blowup = history.blowup_edge(*failing[0])
        if len(history.events) > max_blowups:
            raise CapExceededError(
                f"more than {max_blowups} blowups (the graph has "
                f"grown to {len(history.current)} vertices)")
        basis = DualBasis.pulled_back(history, record.blowup, basis)
        search.advance(basis, history.end_map)

    # |H|^2 * Z.Z = -sum_v (|H| * Z_v) * (|H| * (-Z.E_v))
    zz_num = -sum(map(mul, record.z_num, record.z_dual_num))
    square = basis.den ** 2
    multiplicity, rest = divmod(-h1.index * zz_num, square)
    if multiplicity <= 0 or rest:
        raise InternalError(
            f"|H/H1| * (-Z.Z) = {Fraction(-h1.index * zz_num, square)} is "
            "not a positive integer; this is a bug or a violated input "
            "assumption")

    return PipelineReport(
        graph=g,
        det=h1.group.det,
        invariant_factors=h1.group.invariant_factors,
        order=h1.group.order,
        h1_order=h1.order,
        index=h1.index,
        history=history,
        rounds=rounds,
        zz_num=zz_num,
        multiplicity=multiplicity,
        input_minimal=minimal,
    )


def multiplicity_of_quotient(g, group=None):
    """Multiplicity of the underlying singularity itself (H1 = H)."""
    from .lattice import discriminant_group

    if group is None:
        group = discriminant_group(g)
    return run_pipeline(g, full_subgroup(group))
