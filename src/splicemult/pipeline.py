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

from collections import namedtuple
from functools import partial

from .errors import CapExceededError, ConditionError, InputError, InternalError
from .graph import GraphHistory, is_minimal
from .lattice import _apply_form, _form, _FractionText
from .monomial import ZeroSumSearch, _Record, is_base_point, monomial_string

MAX_BLOWUPS = 64  # default cap on the blowups of one run


class _OnFirstRead:
    """The witness field of EdgeCheckResult and EndDecision.  A record
    built by `_on_first_read` holds, in place of its witness, a function
    that finds it; the first read calls the function and stores what it
    returns as the field, which every later read, equality and repr
    included, finds first.  A record built with its witness never comes
    here."""

    def __get__(self, record, owner=None):
        if record is None:
            return self  # read on the class
        fields = vars(record)
        witness = fields["witness"] = fields["_find"]()
        del fields["_find"]
        return witness


def _on_first_read(cls, find, **fields):
    """A record of `cls` with the given fields whose witness is find(),
    called when the witness is first read."""
    record = object.__new__(cls)
    vars(record).update(fields, _find=find)
    return record


class EdgeCheckResult(_Record):
    """Local gcd check at one edge: passed iff a single monomial cycle
    attains both coefficient minima (it is then a Hilbert-basis generator,
    since all coefficients are positive), or Z.E = 0 at one of its
    vertices (pruned_by_zero).  The witness, the monomial string of that
    cycle or None, is found on first read (see check_gcd_condition)."""

    _fields = ("edge", "passed", "pruned_by_zero", "witness")
    witness = _OnFirstRead()

    def __init__(self, edge, passed, pruned_by_zero, witness=None):
        self.edge = edge
        self.passed = passed
        self.pruned_by_zero = pruned_by_zero
        self.witness = witness


class EndDecision(_Record):
    """Outcome of the base-point analysis at one end in one round: `end`
    is the original end index and `action` one of 'witness',
    'not_base_point' and 'blowup'.  The query behind the decision has run;
    the witness, the monomial string for 'witness', is written on first
    read."""

    _fields = ("end", "action", "witness")
    witness = _OnFirstRead()

    def __init__(self, end, action, witness=None):
        self.end = end
        self.action = action
        self.witness = witness


class RoundRecord(_Record):
    """One round of the loop on `graph`.  `z` is the run's one map from
    vertex id to |H| * Z_v, shared by every round: a blowup adds its new
    vertex and keeps every old vertex's Z_v, so the map restricted to
    `graph` is this round's Z.  A round stores no vector of its own.  The
    loop fills in the round's end decisions, edge checks and `blowup`, a
    BlowupEvent or None."""

    _fields = ("graph", "den", "z", "end_decisions", "edge_checks",
               "blowup")

    def __init__(self, graph, den, z, end_decisions=(), edge_checks=(),
                 blowup=None):
        self.graph = graph
        self.den = den
        self.z = z
        self.end_decisions = end_decisions
        self.edge_checks = edge_checks
        self.blowup = blowup

    @property
    def z_num(self):
        """|H| * Z_v in `graph`'s vertex order."""
        return tuple(map(self.z.__getitem__, self.graph.vertex_ids))

    @property
    def z_dual_num(self):
        """|H| * (-Z.E_v) in `graph`'s vertex order, one row of its form
        per vertex."""
        g, z = self.graph, self.z
        return tuple(_dual_at(g, z, v) for v in g.vertex_ids)


PipelineReport = namedtuple("PipelineReport", (
    "graph",
    "det",
    "invariant_factors",
    "order",  # |H|, the denominator of every round's numerators
    "h1_order",
    "index",
    "history",  # GraphHistory
    "rounds",
    "z_dual",  # vertex id -> |H| * (-Z.E_v) on the final graph
    "zz_num",  # |H|^2 * Z.Z
    "multiplicity",
    "input_minimal",
), defaults=(True,))


def _dual_at(g, z, v):
    """|H| * (-Z.E_v) on g from the map z: vertex id -> |H| * Z_v, one row
    of the intersection form."""
    return -g.weight(v) * z[v] - sum(map(z.__getitem__, g.neighbors(v)))


def _not_antinef(round_number, v, x, den):
    """Raise the InternalError for a round whose Z has Z.E_v > 0."""
    raise InternalError(
        f"antinef check failed in round {round_number}: "
        f"-Z.E_{v} = {_FractionText(den)[x]} < 0")


def _edge_witness(search, edge, zv, zw):
    """The monomial string of the least member at `edge` = (v, w) when it
    attains Z_w, else None; zv and zw are |H| * Z_v and |H| * Z_w.  It
    must attain Z_v, or this raises InternalError."""
    (mv, mw), exps = search.least(edge)
    if mv != zv:
        v, w = edge
        raise InternalError(f"edge search at ({v}, {w}) found |H| * M_{v} = "
                            f"{mv}, but |H| * Z_{v} = {zv}")
    return monomial_string(exps) if mw == zw else None


def check_gcd_condition(g, z, z_dual, search, known=None):
    """Edge-by-edge gcd check over every edge of g, in g.edges order.  z
    and z_dual map each vertex id of g to |H| * Z_v and |H| * (-Z.E_v),
    and search is the run's ZeroSumSearch.

    An edge (v, w) passes when the lexicographically least (M_v, M_w) over
    the monoid is (M_v(Z), M_w(Z)): one member, a generator, attains both
    minima.  An edge with Z . E_v = 0 or Z . E_w = 0 passes as
    pruned_by_zero with no query: the gcd condition holds along the whole
    curve there, so a witness must exist anyway.  Its witness is found on
    first read by the same query and the same check on M_v, which the
    test suite runs on every such edge.  A late read is exact: the search
    keeps every old vertex's row, minima and results across blowups (see
    ZeroSumSearch), and the function keeps the integers Z_v and Z_w of
    this round, not the map z.  Any other edge is queried here, since
    its verdict needs the query.

    `known` maps (edge, pruned_by_zero) to the result of an earlier round
    of the same run and is filled in here; the loop checks every edge in
    every round, and `known` answers each edge that a blowup did not
    change.  Vertex ids persist through blowups, and an old vertex keeps
    its minima (see ZeroSumSearch), so a result depends only on its edge
    and that flag.
    """
    if known is None:
        known = {}
    results = []
    for edge in g.edges:
        v, w = edge
        key = (edge, not z_dual[v] or not z_dual[w])
        result = known.get(key)
        if result is None:
            if key[1]:
                result = _on_first_read(
                    EdgeCheckResult,
                    partial(_edge_witness, search, edge, z[v], z[w]),
                    edge=edge, passed=True, pruned_by_zero=True)
            else:
                witness = _edge_witness(search, edge, z[v], z[w])
                result = EdgeCheckResult(
                    edge=edge, passed=witness is not None,
                    pruned_by_zero=False, witness=witness)
            known[key] = result
        results.append(result)
    return results


def _end_decisions(history, z, search, decided):
    """Per-end test of one round, after Z (the map z: vertex id ->
    |H| * Z_v) is known.

    An end is settled when some member with exponent zero there attains
    the minimum of M_v at its vertex v (that generator's monomial does not
    vanish at the end-curve point), or when the end is not a base point
    at all, read off v's row of end weights.  The first end that is
    neither is to be blown up, and the round ends there.  Returns
    (decisions, the label of that end or None).  Each decision's query
    runs here; a witness's monomial string is written on first read.

    `decided` maps (label, vertex) to the decision of an earlier round of
    the same run and is filled in here: the vertex keeps its row and Z_v
    through blowups (see ZeroSumSearch), so the decision never changes.
    """
    decisions = []
    for label, v in sorted(history.end_map.items()):
        decision = decided.get((label, v))
        if decision is None:
            found = search.least((v,), without=label)
            if found[0][0] == z[v]:
                decision = _on_first_read(
                    EndDecision, partial(monomial_string, found[1]),
                    end=label, action="witness")
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
    past the input's; and only an end at a new vertex, or an edge that is
    new or whose Z.E = 0 flag changed, is checked again.  The run keeps Z
    as one map, vertex id -> |H| * Z_v, and -Z.E as another, both built
    in round 1 and never copied: a blowup adds Z_u for the new vertex u
    and rewrites Z.E only at the centre and u.  Every round refers to the
    one `z` map, and the report keeps the final `z_dual`.

    The loop decides with what it needs and no more: an end's query, and
    an edge's query unless Z.E = 0 at one of its vertices, which passes
    it.  Every witness is found on first read (see check_gcd_condition):
    `mult --json` reads them all, `--trace` the ends' only, and `table`
    and plain `mult` none, so a failed witness check surfaces at the
    first read, as an InternalError, not in the loop.

    Z, a minimum of antinef monomial cycles, is antinef: -Z.E_v >= 0.  The
    first round's vector is checked once, then the at most three entries
    each blowup rewrites; a negative one is an InternalError.  The first
    round's vector also certifies the vertices that z() read off a node's
    member (ZeroSumSearch.z): Z.E_v = 0 at each, or an InternalError
    naming the vertex and the node.
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
    nums = search.z()
    z = dict(zip(g.vertex_ids, nums))
    z_dual = dict(zip(g.vertex_ids, _apply_form(_form(g), nums)))
    for v, x in z_dual.items():  # Z is antinef
        if x < 0:
            _not_antinef(1, v, x, den)
    for v, p in search.derived.items():  # the premise of z()'s lemma
        if x := z_dual[v]:
            raise InternalError(
                f"derived vertex check Z.E_{v} = 0 failed: Z_{v} was read "
                f"off node {p}'s member, but -Z.E_{v} = "
                f"{_FractionText(den)[x]}")
    decided = {}  # _end_decisions' results, kept across rounds
    known = {}  # check_gcd_condition's results, kept across rounds
    rounds = []
    while True:
        current = history.current
        record = RoundRecord(graph=current, den=den, z=z)
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
        if len(rounds) > max_blowups:
            raise CapExceededError(
                f"more than {max_blowups} blowups (the graph has "
                f"grown to {len(history.current)} vertices)")
        event, blown = record.blowup, history.current
        search.advance(event, label)
        u = event.new_vertex
        z[u] = search.least((u,))[0][0]
        for v in (*event.center, u):
            x = z_dual[v] = _dual_at(blown, z, v)
            if x < 0:
                _not_antinef(len(rounds) + 1, v, x, den)

    # |H|^2 * Z.Z = -sum_v (|H| * Z_v) * (|H| * (-Z.E_v))
    zz_num = -sum(z[v] * x for v, x in z_dual.items())
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
        z_dual=z_dual,
        zz_num=zz_num,
        multiplicity=multiplicity,
        input_minimal=minimal,
    )

