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
from functools import cached_property, partial

from .errors import CapExceededError, ConditionError, InputError, InternalError
from .graph import GraphHistory, is_minimal
from .lattice import _apply_form, _form, _FractionText
from .monomial import ZeroSumSearch, _Record, is_base_point, monomial_string

MAX_BLOWUPS = 64  # default cap on the blowups of one run


def _find_witness(record):
    """The witness of a record built with `find=`: find() on first read.
    functools.cached_property stores it as the field, which every later
    read, equality and repr included, finds first; a record built with
    its witness holds the field from the start and never comes here."""
    fields = vars(record)
    witness = fields["_find"]()
    del fields["_find"]
    return witness


class EdgeCheckResult(_Record):
    """Local gcd check at one edge: passed iff a single monomial cycle
    attains both coefficient minima (it is then a Hilbert-basis generator,
    since all coefficients are positive), or Z.E = 0 at one of its
    vertices (pruned_by_zero).  The witness is the monomial string of
    that cycle or None; a record built with `find=` in its place calls
    find() once, on the witness's first read (see check_gcd_condition)."""

    _fields = ("edge", "passed", "pruned_by_zero", "witness")

    def __init__(self, edge, passed, pruned_by_zero, witness=None, *,
                 find=None):
        self.edge = edge
        self.passed = passed
        self.pruned_by_zero = pruned_by_zero
        if find is None:
            self.witness = witness
        else:
            self._find = find

    witness = cached_property(_find_witness)


class EndDecision(_Record):
    """Outcome of the base-point analysis at one end in one round: `end`
    is the original end index and `action` one of 'witness',
    'not_base_point' and 'blowup'.  The query behind the decision has run;
    the witness, the monomial string for 'witness', is given or, built
    with `find=`, written on first read."""

    _fields = ("end", "action", "witness")

    def __init__(self, end, action, witness=None, *, find=None):
        self.end = end
        self.action = action
        if find is None:
            self.witness = witness
        else:
            self._find = find

    witness = cached_property(_find_witness)


class RoundRecord(_Record):
    """One round of the loop on `graph`.  `z` is the run's one map from
    vertex id to |H| * Z_v, shared by every round: a blowup adds its new
    vertex and keeps every old vertex's Z_v, so the map restricted to
    `graph` is this round's Z.  A round stores no vector of its own, and
    its equality, hash and repr read `z_num`, that restriction, not the
    shared map.  The loop fills in the end decisions and edge checks the
    round made, which after round 1 are only what the blowup before it
    changed (whole_rounds rebuilds the rest), and `blowup`, a BlowupEvent
    or None."""

    _fields = ("graph", "den", "z_num", "end_decisions", "edge_checks",
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


def check_gcd_condition(edges, z, z_dual, search):
    """Edge-by-edge gcd check over `edges`, in that order.  z and z_dual
    map each vertex id of the round's graph to |H| * Z_v and
    |H| * (-Z.E_v), and search is the run's ZeroSumSearch.

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
    """
    results = []
    for edge in edges:
        v, w = edge
        if not z_dual[v] or not z_dual[w]:
            result = EdgeCheckResult(
                edge=edge, passed=True, pruned_by_zero=True,
                find=partial(_edge_witness, search, edge, z[v], z[w]))
        else:
            witness = _edge_witness(search, edge, z[v], z[w])
            result = EdgeCheckResult(
                edge=edge, passed=witness is not None,
                pruned_by_zero=False, witness=witness)
        results.append(result)
    return results


def _end_decisions(labels, end_map, start, z, search):
    """The end tests of one round from labels[start] on, after Z (the map
    z: vertex id -> |H| * Z_v) is known; end_map sends each label to the
    vertex carrying it.

    An end is settled when some member with exponent zero there attains
    the minimum of M_v at its vertex v (that generator's monomial does not
    vanish at the end-curve point), or when the end is not a base point
    at all, read off v's row of end weights.  The first end that is
    neither is to be blown up, and the round ends there.  Returns
    (decisions, that end's index in labels, or len(labels)).  Each
    decision's query runs here; a witness's monomial string is written on
    first read.
    """
    decisions = []
    for i in range(start, len(labels)):
        label = labels[i]
        v = end_map[label]
        found = search.least((v,), without=label)
        if found[0][0] == z[v]:
            decisions.append(EndDecision(
                label, "witness", find=partial(monomial_string, found[1])))
        elif not is_base_point(search.row(v), i):
            decisions.append(EndDecision(label, "not_base_point"))
        else:
            decisions.append(EndDecision(label, "blowup"))
            return tuple(decisions), i
    return tuple(decisions), len(labels)


def whole_rounds(report):
    """Each round of a report whole, as a RoundRecord with every end
    decision and edge check that held in it: those it made and those it
    kept from the rounds before.  A round that blows up an end checks no
    edge."""
    decisions, checks = {}, {}
    for rnd in report.rounds:
        decisions.update((d.end, d) for d in rnd.end_decisions)
        checks.update((c.edge, c) for c in rnd.edge_checks)
        event = rnd.blowup
        yield RoundRecord(
            rnd.graph, rnd.den, rnd.z, tuple(decisions.values()),
            () if event is not None and event.kind == "end"
            else tuple(map(checks.__getitem__, rnd.graph.edges)), event)


def run_pipeline(g, h1, *, max_blowups=MAX_BLOWUPS, allow_non_minimal=False):
    """Full multiplicity computation for the cover attached to H1.

    Rounds: Z on the current graph, then the end tests, then the edge
    checks.  A round ends with a blowup at the first end that has no
    witness and is a base point, else at the lexicographically least edge
    whose check fails, and the next round starts; it ends without one once
    every end has a witness or is not a base point and every edge passes.
    Terminates with multiplicity = |H/H1| * (-Z.Z), always a positive
    integer.

    A round decides only what its blowup may have changed, by the
    pullback identities of ZeroSumSearch: vertex ids persist, and an old
    vertex keeps its row of end weights, its Z_v and its minima.  So one
    search serves every round and is carried by rows, with no dual basis
    past the input's.  An end, once settled, stays so: the end tests
    resume at the end last blown up.  Edge checks start once every end is
    settled; then only an edge that is new or whose Z.E = 0 flag changed
    is checked again, and the run keeps the set of failing edges.  The run
    keeps Z as one map, vertex id -> |H| * Z_v, and -Z.E as another, both
    built in round 1 and never copied: a blowup adds Z_u for the new
    vertex u and rewrites Z.E only at the centre and u.  Every round
    refers to the one `z` map, and the report keeps the final `z_dual`.

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
    labels, end_map = search.labels, history.end_map
    settled = 0  # the ends before labels[settled] are settled
    edges = g.edges  # the edges the next edge checks cover
    failing = set()  # the failing edges of the current graph
    rounds = []
    while True:
        current = history.current
        record = RoundRecord(graph=current, den=den, z=z)
        rounds.append(record)
        record.end_decisions, settled = _end_decisions(
            labels, end_map, settled, z, search)
        if settled < len(labels):
            label = labels[settled]
            record.blowup = history.blowup_end(label)
        else:
            label = None
            record.edge_checks = tuple(check_gcd_condition(
                edges, z, z_dual, search))
            for c in record.edge_checks:
                (failing.discard if c.passed else failing.add)(c.edge)
            if not failing:
                break
            edge = min(failing)
            failing.remove(edge)
            record.blowup = history.blowup_edge(*edge)
        if len(rounds) > max_blowups:
            raise CapExceededError(
                f"more than {max_blowups} blowups (the graph has "
                f"grown to {len(history.current)} vertices)")
        event, blown = record.blowup, history.current
        search.advance(event, label)
        u = event.new_vertex
        z[u] = search.least((u,))[0][0]
        was_zero = {v: not z_dual[v] for v in event.center}
        for v in (*event.center, u):
            x = z_dual[v] = _dual_at(blown, z, v)
            if x < 0:
                _not_antinef(len(rounds) + 1, v, x, den)
        if event.kind == "end":
            edges = blown.edges
        else:  # u's edges, and those whose Z.E = 0 flag changed
            edges = sorted(
                (min(v, y), max(v, y)) for v in event.center
                for y in blown.neighbors(v)
                if y == u or z_dual[y] and was_zero[v] != (not z_dual[v]))

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

