"""The multiplicity pipeline: base points, GCD condition, blowup loop.

One run computes the multiplicity of the abelian cover attached to a
subgroup H1 of the discriminant group: rounds that find the gcd cycle Z
and the local checks by shortest zero-sum searches alternate with blowups
until every local check passes, and the answer is |H/H1| * (-Z.Z).
Everything is exact; a non-integer result is an internal error, never
something to round.  The loop runs in integers over den = |H|: Z as
|H| * Z_v, its dual coordinates as |H| * (-Z.E_v) and Z.Z as |H|^2 * Z.Z,
and a report keeps them so: the CLI writes them as "p/q" text.
"""

from dataclasses import dataclass
from operator import mul

from .errors import CapExceededError, ConditionError, InputError, InternalError
from .graph import GraphHistory, is_minimal
from .lattice import _apply_form, _form, _FractionText
from .monomial import ZeroSumSearch, is_base_point, monomial_string

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


@dataclass(frozen=True)
class EndDecision:
    """Outcome of the base-point analysis at one end in one round."""

    end: int  # original end index
    action: str  # 'witness' | 'not_base_point' | 'blowup'
    witness: object = None  # monomial string for action == 'witness'


@dataclass
class RoundRecord:
    """One round of the loop on `graph`.  Z is carried as the integers
    z_num = |H| * Z_v and its dual coordinates as z_dual_num =
    |H| * (-Z.E_v), both in `graph`'s vertex order over den = |H|."""

    graph: object
    den: int
    z_num: tuple
    z_dual_num: tuple
    end_decisions: tuple = ()
    edge_checks: tuple = ()
    blowup: object = None  # BlowupEvent or None


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


def _dual_at(g, z, v):
    """|H| * (-Z.E_v) from z = |H| * Z in g's vertex order: one row of the
    intersection form."""
    return (-g.weight(v) * z[g.index(v)]
            - sum(z[g.index(u)] for u in g.neighbors(v)))


def _not_antinef(round_number, v, x, den):
    """Raise the InternalError for a round whose Z has Z.E_v > 0."""
    raise InternalError(
        f"antinef check failed in round {round_number}: "
        f"-Z.E_{v} = {_FractionText(den)[x]} < 0")


def check_gcd_condition(g, z, z_dual, search, known=None):
    """Edge-by-edge gcd check over every edge of g, in g.edges order.  z
    and z_dual hold |H| * Z_v and |H| * (-Z.E_v) in vertex order, and
    search is the run's ZeroSumSearch.

    An edge (v, w) passes when the lexicographically least (M_v, M_w) over
    the monoid is (M_v(Z), M_w(Z)): one member, a generator, attains both
    minima.  Edges with Z . E_v = 0 or Z . E_w = 0 are additionally marked
    pruned_by_zero: the gcd condition holds along the whole curve there,
    so a witness must exist anyway (the full test still runs and the two
    answers are cross-checked by the test suite).

    `known` maps (edge, pruned_by_zero) to the result of an earlier round
    of the same run and is filled in here; the loop checks every edge in
    every round, and `known` answers each edge that a blowup did not
    change.  Vertex ids persist through blowups, and an old vertex keeps
    its minima (see ZeroSumSearch), so a result depends only on its edge
    and that flag.
    """
    if known is None:
        known = {}
    pos = g.positions
    results = []
    for edge in g.edges:
        v, w = edge
        i, j = pos[v], pos[w]
        key = (edge, not z_dual[i] or not z_dual[j])
        result = known.get(key)
        if result is None:
            (mv, mw), exps = search.least(edge)
            if mv != z[i]:
                raise InternalError(
                    f"edge search at ({v}, {w}) found |H| * M_{v} = {mv}, "
                    f"but |H| * Z_{v} = {z[i]}")
            witness = monomial_string(exps) if mw == z[j] else None
            result = known[key] = EdgeCheckResult(
                edge=edge, passed=witness is not None or key[1],
                witness=witness, pruned_by_zero=key[1])
        results.append(result)
    return results


def _end_decisions(history, z, search, decided):
    """Per-end test of one round, after Z (|H| * Z_v in vertex order) is
    known.

    An end is settled when some member with exponent zero there attains
    the minimum of M_v at its vertex v (that generator's monomial does not
    vanish at the end-curve point), or when the end is not a base point
    at all, read off v's row of end weights.  The first end that is
    neither is to be blown up, and the round ends there.  Returns
    (decisions, the label of that end or None).

    `decided` maps (label, vertex) to the decision of an earlier round of
    the same run and is filled in here: the vertex keeps its row and Z_v
    through blowups (see ZeroSumSearch), so the decision never changes.
    """
    pos = history.current.positions
    decisions = []
    for label, v in sorted(history.end_map.items()):
        decision = decided.get((label, v))
        if decision is None:
            found = search.least((v,), without=label)
            if found[0][0] == z[pos[v]]:
                decision = EndDecision(label, "witness",
                                       monomial_string(found[1]))
            elif not is_base_point(search.row(v), search.labels.index(label)):
                decision = EndDecision(label, "not_base_point")
            else:
                decision = EndDecision(label, "blowup")
            decided[label, v] = decision
        decisions.append(decision)
        if decision.action == "blowup":
            return tuple(decisions), label
    return tuple(decisions), None


def run_pipeline(g, h1, *, max_blowups=MAX_BLOWUPS, allow_non_minimal=False):
    """Full multiplicity computation for the cover attached to H1.

    Rounds: Z on the current graph, then the end tests, then the edge
    checks.  A round ends with a blowup at the first end that has no
    witness and is a base point, else at the lexicographically least edge
    whose check fails, and the next round starts; it ends without one once
    every end has a witness or is not a base point and every edge passes.
    Terminates with multiplicity = |H/H1| * (-Z.Z), always a positive
    integer.

    Each round asks every end and, unless it blows up an end, every edge;
    the run's caches `decided` (end decisions) and `known` (edge checks)
    answer whatever a blowup did not change.  They are valid by the
    pullback identities of ZeroSumSearch: vertex ids persist, and an old
    vertex keeps its row of end weights, its Z_v and its minima.  So one
    search serves every round and is carried by rows, with no dual basis
    past the input's; Z gains one entry, Z_u for the new vertex u, and
    Z.E_v changes only on the centre and u; and only an end at a new
    vertex, or an edge that is new or whose Z.E = 0 flag changed, is
    searched again.

    Z, a minimum of antinef monomial cycles, is antinef: -Z.E_v >= 0.  The
    first round's vector is checked once, then the at most three entries
    each blowup rewrites; a negative one is an InternalError.
    """
    if max_blowups <= 0:
        raise InputError(f"max_blowups must be positive, got {max_blowups}")
    minimal = is_minimal(g)
    if not minimal and not allow_non_minimal:
        raise ConditionError(
            "input graph has a blow-downable (-1)-vertex; pass "
            "allow_non_minimal=True (mult --allow-non-minimal) to proceed "
            "anyway")
    if h1.group.graph != g:
        raise InternalError("subgroup was built on a different graph")

    history = GraphHistory(g)
    search = ZeroSumSearch(h1)
    den = h1.group.order
    z = list(search.z())
    z_dual = _apply_form(_form(g), z)
    for v, x in zip(g.vertex_ids, z_dual):  # Z is antinef
        if x < 0:
            _not_antinef(1, v, x, den)
    decided = {}  # _end_decisions' results, kept across rounds
    known = {}  # check_gcd_condition's results, kept across rounds
    rounds = []
    while True:
        current = history.current
        record = RoundRecord(graph=current, den=den, z_num=tuple(z),
                             z_dual_num=tuple(z_dual))
        rounds.append(record)
        record.end_decisions, label = _end_decisions(
            history, z, search, decided)
        if label is not None:
            record.blowup = history.blowup_end(label)
        else:
            record.edge_checks = tuple(check_gcd_condition(
                current, z, z_dual, search, known))
            edge = next((c.edge for c in record.edge_checks
                         if not c.passed), None)
            if edge is None:
                break
            record.blowup = history.blowup_edge(*edge)
        if len(history.events) > max_blowups:
            raise CapExceededError(
                f"more than {max_blowups} blowups (the graph has "
                f"grown to {len(history.current)} vertices)")
        event, blown = record.blowup, history.current
        search.advance(event, label)
        u = event.new_vertex
        at = blown.index(u)
        z.insert(at, search.least((u,))[0][0])
        z_dual.insert(at, 0)
        for v in (*event.center, u):
            x = z_dual[blown.index(v)] = _dual_at(blown, z, v)
            if x < 0:
                _not_antinef(len(rounds) + 1, v, x, den)

    # |H|^2 * Z.Z = -sum_v (|H| * Z_v) * (|H| * (-Z.E_v))
    zz_num = -sum(map(mul, record.z_num, record.z_dual_num))
    square = den ** 2
    multiplicity, rest = divmod(-h1.index * zz_num, square)
    if multiplicity <= 0 or rest:
        value = _FractionText(square)[-h1.index * zz_num]
        raise InternalError(
            f"|H/H1| * (-Z.Z) = {value} is not a positive integer; this is "
            "a bug or a violated input assumption")

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

