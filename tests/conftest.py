"""Shared fixtures: reference graphs and frozen expected values."""

import itertools
import random
import sys
from fractions import Fraction
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, settings, strategies as st

from splicemult import (GraphHistory, InputError, InternalError,
                        ResolutionGraph)
from splicemult.lattice import _as_vector
from splicemult.linalg import (_hermite_reduce, _replay, _xgcd,
                               identity_matrix, mat_vec)

# Property tests draw the same examples on every run.
settings.register_profile("deterministic", derandomize=True, database=None,
                          deadline=None, max_examples=60)
settings.load_profile("deterministic")

# Two-node tree with |H| = 12: ten vertices, all weights -2 except
# vertex 6 = -4; ends 1..4, nodes 5 and 8.
H12_WEIGHTS = {i: (-4 if i == 6 else -2) for i in range(1, 11)}
# Same tree shape with |H| = 60: weights -3 at vertices 1 and 5.
H60_WEIGHTS = {i: (-3 if i in (1, 5) else (-4 if i == 6 else -2))
               for i in range(1, 11)}
TWO_NODE_EDGES = [(1, 5), (2, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 3),
                  (8, 10), (10, 4)]


def _frac_row(values):
    return tuple(Fraction(v) for v in values)


# Dual cycles E_1* .. E_5* of the |H|=12 graph, frozen reference values.
H12_DUAL_ROWS = {
    1: _frac_row(["1", "1/2", "1/2", "1/2", "1", "1/2", "1", "3/2", "1", "1"]),
    2: _frac_row(["1/2", "1", "1/2", "1/2", "1", "1/2", "1", "3/2", "1", "1"]),
    3: _frac_row(["1/2", "1/2", "7/3", "5/3", "1", "1", "3", "5", "11/3", "10/3"]),
    4: _frac_row(["1/2", "1/2", "5/3", "7/3", "1", "1", "3", "5", "10/3", "11/3"]),
    5: _frac_row(["1", "1", "1", "1", "2", "1", "2", "3", "2", "2"]),
}

# All ten subgroups of H = Z/2 x Z/6 for the |H|=12 graph: generators (as
# sparse dual-coordinate maps), flat-subgroup generators, |H1|, the gcd
# cycle Z in dual coordinates, and the multiplicity.
H12_TABLE = [
    {"gens": [], "flat": [{1: 1}, {3: 1}], "order": 1,
     "z_dual": {5: Fraction(1, 2)}, "mult": 6},
    {"gens": [{1: 1}], "flat": [{1: 1}, {3: 2}], "order": 2,
     "z_dual": {1: 1}, "mult": 6},
    {"gens": [{3: 3}], "flat": [{3: 1}], "order": 2,
     "z_dual": {6: 1}, "mult": 6},
    {"gens": [{1: 1, 3: 3}], "flat": [{1: 1, 3: 1}], "order": 2,
     "z_dual": {2: 1}, "mult": 6},
    {"gens": [{3: 2}], "flat": [{1: 1}, {3: 3}], "order": 3,
     "z_dual": {5: Fraction(1, 2)}, "mult": 2},
    {"gens": [{1: 1}, {3: 3}], "flat": [{3: 2}], "order": 4,
     "z_dual": {5: 1}, "mult": 6},
    {"gens": [{3: 1}], "flat": [{3: 3}], "order": 6,
     "z_dual": {5: 1}, "mult": 4},
    {"gens": [{1: 1}, {3: 2}], "flat": [{1: 1}], "order": 6,
     "z_dual": {1: 1}, "mult": 2},
    {"gens": [{1: 1, 3: 1}], "flat": [{1: 1, 3: 3}], "order": 6,
     "z_dual": {2: 1}, "mult": 2},
    {"gens": [{1: 1}, {3: 1}], "flat": [], "order": 12,
     "z_dual": {5: 1}, "mult": 2},
]


@pytest.fixture(scope="session")
def tree_h12():
    return ResolutionGraph(H12_WEIGHTS, TWO_NODE_EDGES)


@pytest.fixture(scope="session")
def tree_h60():
    return ResolutionGraph(H60_WEIGHTS, TWO_NODE_EDGES)


@pytest.fixture(scope="session")
def a2_chain():
    return ResolutionGraph({1: -2, 2: -2}, [(1, 2)])


@pytest.fixture(scope="session")
def d4_star():
    return ResolutionGraph({1: -2, 2: -2, 3: -2, 4: -2},
                           [(4, 1), (4, 2), (4, 3)])


@pytest.fixture(scope="session")
def monomial_fail_graph():
    # two adjacent nodes; no admissible monomial exists at node 5 for the
    # branch through vertex 6
    return ResolutionGraph({1: -4, 2: -4, 3: -4, 4: -4, 5: -4, 6: -1},
                           [(1, 5), (2, 5), (5, 6), (3, 6), (4, 6)])


@pytest.fixture(scope="session")
def all_test_graphs(tree_h12, tree_h60, a2_chain, d4_star):
    return [tree_h12, tree_h60, a2_chain, d4_star]


def random_trees(seed, count, max_vertices=8, max_ends=6, max_order=20):
    """Deterministic stream of small valid graphs for property tests."""
    from splicemult import SpliceMultError, discriminant_group

    rng = random.Random(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < 20000:
        attempts += 1
        n = rng.randint(2, max_vertices)
        weights = {}
        edges = []
        for i in range(1, n + 1):
            weights[i] = rng.choice([-2, -2, -2, -3, -4])
            if i > 1:
                edges.append((rng.randint(1, i - 1), i))
        try:
            g = ResolutionGraph(weights, edges)
        except SpliceMultError:
            continue
        if len(g.ends) > max_ends:
            continue
        if discriminant_group(g).order > max_order:
            continue
        out.append(g)
    assert len(out) == count, "random graph generation starved"
    return out


class RecordedHistory(GraphHistory):
    """A GraphHistory that keeps the graph after each blowup, for tests
    that read the graphs on either side of an event, and the end label
    each blowup moved (None for an edge blowup), which
    ZeroSumSearch.advance takes with its event."""

    def __init__(self, graph):
        super().__init__(graph)
        self.graphs = [graph]
        self.labels = []

    def blowup_edge(self, v, w):
        event = super().blowup_edge(v, w)
        self.graphs.append(self.current)
        self.labels.append(None)
        return event

    def blowup_end(self, label):
        event = super().blowup_end(label)
        self.graphs.append(self.current)
        self.labels.append(label)
        return event

    @property
    def initial(self):
        return self.graphs[0]

    def graph_before(self, k):
        return self.graphs[k]

    def graph_after(self, k):
        return self.graphs[k + 1]


def end_map_after(history, k):
    """End index -> vertex carrying its curve variable on the graph after
    event k, replayed from the recorded events alone (the labels are the
    original ends)."""
    end_map = {e: e for e in history.end_map}
    for event in history.events[:k + 1]:
        if event.kind == "end":
            label = next(l for l, v in end_map.items()
                         if v == event.center[0])
            end_map[label] = event.new_vertex
    return end_map


def fresh_search(graph, h1, end_map):
    """A ZeroSumSearch for H1 on a graph blown up from H1's: its rows are
    those of a fresh dual basis of `graph` at the carriers `end_map` of
    the input's ends, in label order, in place of the rows the search
    read off H1's group.  The basis's denominator must be |H|, the scale
    of the search's rows."""
    from splicemult import DualBasis, ZeroSumSearch

    basis = DualBasis(graph)
    assert basis.den == h1.group.order
    search = ZeroSumSearch(h1)
    columns = [graph.index(end_map[l]) for l in search.labels]
    search._rows = {v: tuple(row[c] for c in columns)
                    for v, row in zip(graph.vertex_ids, basis.num)}
    return search


def lower_centres_twice(monkeypatch):
    """Make every blowup event lower each centre vertex by 2 instead of 1:
    the form stays negative definite, but the blowup identities fail."""
    from splicemult import graph

    event = graph.BlowupEvent

    def lowered(kind, center, new_vertex, weight_changes):
        return event(kind, center, new_vertex, tuple(
            (v, old, new - 1) for v, old, new in weight_changes))

    monkeypatch.setattr(graph, "BlowupEvent", lowered)


def star(centre, arms):
    """Star graph: vertex 1 of weight `centre` joined to one leaf per arm."""
    weights = {1: centre}
    weights.update({k: w for k, w in enumerate(arms, start=2)})
    return ResolutionGraph(weights, [(1, k) for k in weights if k != 1])


# Z/2 x Z/2 x Z/4, Z/2 x Z/4 x Z/4, Z/3 x Z/3 x Z/3 and Z/2^4
RANK_3_AND_4_GRAPHS = [
    star(-3, [-2, -2, -2, -2]),
    ResolutionGraph({1: -2, 2: -2, 3: -2, 4: -2, 5: -2, 6: -4, 7: -4},
                    [(1, 2), (2, 3), (1, 4), (3, 5), (3, 6), (3, 7)]),
    ResolutionGraph({1: -2, 2: -3, 3: -2, 4: -2, 5: -4, 6: -3, 7: -3},
                    [(1, 2), (1, 3), (3, 4), (1, 5), (1, 6), (1, 7)]),
    star(-3, [-2, -2, -2, -2, -2]),
]


def table_by_rows(g):
    """The `table --json` document of g built row by row, with no shared
    subgroup lattice: flat_subgroup, _fmt_subgroup and the element lists
    run for every row, flat or not."""
    from splicemult import (discriminant_group, enumerate_subgroups,
                            flat_subgroup, run_pipeline)
    from splicemult.lattice import _fmt_subgroup

    group = discriminant_group(g)
    rows = []
    for h1 in enumerate_subgroups(group):
        result = run_pipeline(g, h1)
        flat = flat_subgroup(h1)
        final = result.rounds[-1]
        z_graph, z_dual = final.graph, round_z_dual(final)
        rows.append({
            "subgroup": _fmt_subgroup(h1),
            "elements": [list(nf) for nf in h1.canonical_elements],
            "flat": _fmt_subgroup(flat),
            "flat_elements": [list(nf) for nf in flat.canonical_elements],
            "order": h1.order,
            "index": h1.index,
            "Z_dual": {str(v): str(c)
                       for v, c in zip(z_graph.vertex_ids, z_dual)},
            "Z": dual_combo_text(z_graph, z_dual),
            "ZZ": str(report_zz(result)),
            "multiplicity": result.multiplicity,
        })
    return {"order": group.order,
            "invariant_factors": list(group.invariant_factors),
            "rows": rows}


def closure(group, nfs):
    """Brute-force additive closure of normal forms in H (contains zero)."""
    factors = group.invariant_factors
    zero = (0,) * len(factors)
    elems = {zero}
    frontier = [zero]
    while frontier:
        x = frontier.pop()
        for g in nfs:
            y = tuple((a + b) % d for a, b, d in zip(x, g, factors))
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return frozenset(elems)


def subgroups_oracle(group):
    """Every subgroup of H as an element set, found by closing each known
    subgroup under one more element until nothing new appears."""
    everything = list(itertools.product(*map(range, group.invariant_factors)))
    seen = {closure(group, [])}
    queue = list(seen)
    while queue:
        current = queue.pop()
        for x in everything:
            if x not in current:
                bigger = closure(group, sorted(current) + [x])
                if bigger not in seen:
                    seen.add(bigger)
                    queue.append(bigger)
    return seen


def representative(group, nf):
    """An integer dual-coordinate vector projecting onto the normal form:
    sum_k nf_k rep_k over the group's certified unit representatives."""
    out = [0] * len(group.graph)
    for val, col in zip(nf, group._coords()[1]):
        if val:
            out = [a + val * b for a, b in zip(out, col)]
    return tuple(out)


def row_classes(h1):
    """The normal forms that generate H1: its Hermite rows reduced mod d,
    those that are nonzero in H."""
    factors = h1.group.invariant_factors
    nfs = (tuple(x % d for x, d in zip(h, factors)) for h in h1.hnf)
    return [nf for nf in nfs if any(nf)]


def row_representatives(h1):
    """Dual-coordinate vectors that generate H1: the representatives of
    row_classes(h1)."""
    return [representative(h1.group, nf) for nf in row_classes(h1)]


def end_orders(h1, labels):
    """The order of each end's pairing with H1: the least o with
    o * E_l* pairing integrally with every generator, as the lcm of the
    Fraction pairings' denominators on the input graph.  hilbert_basis
    enumerates the box [0, o_l]^labels."""
    basis = h1.group.basis
    gens = row_representatives(h1)
    return [lcm(*(dual_pairing(basis, {l: 1}, gen).denominator
                  for gen in gens)) for l in labels]


def perp_member(coords, h1):
    """Whether the class of sum coords_v E_v* pairs integrally with H1.

    This is the computational content of membership in Theta^{-1}(H1-perp):
    a character is trivial on H1 exactly when all pairings against the
    generators (row_representatives) are integers.
    """
    basis = h1.group.basis
    return all(dual_pairing(basis, coords, g).denominator == 1
               for g in row_representatives(h1))


def graph_json(g):
    """The input document of a graph, as the CLI reads it."""
    import json

    return json.dumps({"vertices": [{"id": v, "weight": g.weight(v)}
                                    for v in g.vertex_ids],
                       "edges": [list(e) for e in g.edges]})


def relabel(g, f):
    """g with each vertex id v replaced by f(v)."""
    return ResolutionGraph({f(v): g.weight(v) for v in g.vertex_ids},
                           [(f(a), f(b)) for a, b in g.edges])


# --- the JSON form of a report (the reference for `mult --json`) -------------


def report_dict(report):
    """The JSON form of a PipelineReport as a tree of dicts and lists:
    `mult --json` prints json.dumps(report_dict(report), indent=2,
    sort_keys=True).  A Z map sends each vertex id, as a string, to its
    coefficient as a "p/q" string."""

    def z_map(rnd, nums):
        return {str(v): str(Fraction(x, rnd.den))
                for v, x in zip(rnd.graph.vertex_ids, nums)}

    def blowup(event):
        return {"kind": event.kind, "center": list(event.center),
                "new_vertex": event.new_vertex,
                "weight_changes": [list(c) for c in event.weight_changes]}

    rounds = [{
        "Z_vertex": z_map(rnd, rnd.z_num),
        "Z_dual": z_map(rnd, rnd.z_dual_num),
        "end_decisions": [{"end": d.end, "action": d.action,
                           "witness": d.witness} for d in rnd.end_decisions],
        "edge_checks": [{"edge": list(c.edge), "passed": c.passed,
                         "witness": c.witness,
                         "pruned_by_zero": c.pruned_by_zero}
                        for c in rnd.edge_checks],
        "blowup": None if rnd.blowup is None else blowup(rnd.blowup),
    } for rnd in report.rounds]
    return {
        "det": report.det,
        "H_invariant_factors": list(report.invariant_factors),
        "H1_order": report.h1_order,
        "index": report.index,
        "input_minimal": report.input_minimal,
        "rounds": rounds,
        "Z_final": {"vertex": rounds[-1]["Z_vertex"],
                    "dual": rounds[-1]["Z_dual"]},
        "ZZ": str(report_zz(report)),
        "multiplicity": report.multiplicity,
        "trace": [blowup(event) for event in report.history.events],
    }


# --- rational cycles (Fraction references for the integer cycles) ------------


class QCycle:
    """Rational cycle on a fixed graph, stored in vertex-basis coordinates
    as Fractions: the reference that the program's integer numerators over
    |H| are compared with."""

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph, coeffs):
        if len(coeffs) != len(graph):
            raise InternalError("coefficient count != vertex count")
        self.graph = graph
        self.coeffs = tuple(c if type(c) is Fraction else Fraction(c)
                            for c in coeffs)

    @classmethod
    def zero(cls, graph):
        return cls(graph, (0,) * len(graph))

    def coefficient(self, v):
        """M_v(D): the coefficient of E_v in this cycle."""
        return self.coeffs[self.graph.index(v)]

    def _check(self, other):
        if self.graph != other.graph:
            raise InternalError("cycles live on different graphs")

    def __add__(self, other):
        self._check(other)
        return QCycle(self.graph, [a + b for a, b in zip(self.coeffs,
                                                         other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return QCycle(self.graph, [a - b for a, b in zip(self.coeffs,
                                                         other.coeffs)])

    def __mul__(self, scalar):
        return QCycle(self.graph, [a * scalar for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, QCycle) and self.graph == other.graph
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.graph, self.coeffs))

    def __repr__(self):
        parts = ", ".join(f"{v}: {c}" for v, c in
                          zip(self.graph.vertex_ids, self.coeffs) if c)
        return f"QCycle({{{parts}}})"

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)


def cycle(graph, nums, den):
    """The QCycle with coefficients nums_v / den, nums in vertex order."""
    return QCycle(graph, [Fraction(x, den) for x in nums])


def dual_cycle(basis, v):
    """E_v* as a QCycle: v's row of the basis over its denominator."""
    return cycle(basis.graph, basis.num[basis.graph.index(v)], basis.den)


def entry(basis, a, b):
    """The coefficient of E_a in E_b* (symmetric; equals -E_a* . E_b*)."""
    index = basis.graph.index
    return Fraction(basis.num[index(a)][index(b)], basis.den)


def basis_matrix(basis):
    """B = (-I)^{-1} as rows of Fractions."""
    return [tuple(Fraction(x, basis.den) for x in row) for row in basis.num]


def expand(basis, coords):
    """The QCycle sum_v coords_v E_v* (B @ c) of dual coordinates, a
    mapping or a sequence in vertex order."""
    vec = _as_vector(basis.graph, coords)
    return cycle(basis.graph, mat_vec(basis.num, vec), basis.den)


def dual_pairing(basis, c1, c2):
    """The intersection of two combinations of dual cycles, -c1^T B c2."""
    v1 = _as_vector(basis.graph, c1)
    v2 = _as_vector(basis.graph, c2)
    return Fraction(-sum(a * b for a, b in zip(v1, mat_vec(basis.num, v2))),
                    basis.den)


def linking_pairing(group, nf1, nf2):
    """The linking pairing H x H -> Q/Z of two normal forms, as a Fraction
    in [0, 1), from their representatives and the dual basis."""
    val = dual_pairing(group.basis, representative(group, nf1),
                       representative(group, nf2))
    return val - (val.numerator // val.denominator)


def round_z(rnd):
    """A round's Z as a QCycle on its graph."""
    return cycle(rnd.graph, rnd.z_num, rnd.den)


def round_z_dual(rnd):
    """A round's dual coordinates (-Z.E_v)_v as Fractions."""
    return tuple(Fraction(x, rnd.den) for x in rnd.z_dual_num)


def final_z(report):
    """Z on the final graph of a report, as a QCycle."""
    return round_z(report.rounds[-1])


def report_zz(report):
    """Z.Z of a report as a Fraction."""
    return Fraction(report.zz_num, report.order ** 2)


def expansion(g, m):
    """The cycle sum_i a_i E_i* of a MonomialCycle on g, as a QCycle."""
    return cycle(g, m.num, m.den)


def monomial(basis, exponents):
    """The MonomialCycle of `exponents`, keyed by the ends of the basis's
    graph, every other end at exponent 0."""
    from splicemult import MonomialCycle

    g = basis.graph
    num = [0] * len(g)
    for label, a in exponents.items():
        num = [x + a * y for x, y in zip(num, basis.num[g.index(label)])]
    return MonomialCycle({**dict.fromkeys(g.ends, 0), **exponents}, num,
                         basis.den)


def exponent_vector(m, labels):
    """A monomial cycle's exponents at `labels`, in that order."""
    return tuple(m.exponents.get(l, 0) for l in labels)


def end_decisions(report):
    """Every round's end decisions, in order."""
    return tuple(d for r in report.rounds for d in r.end_decisions)


def quotient(g):
    """The run for H1 = H: the multiplicity of the singularity itself."""
    from splicemult import discriminant_group, full_subgroup, run_pipeline

    return run_pipeline(g, full_subgroup(discriminant_group(g)))


def dual_combo_text(graph, coords):
    """Dual coordinates (Fractions, in vertex order) written as a
    combination of E_v*, as `mult` and `table` print Z."""
    terms = []
    for v, c in zip(graph.vertex_ids, coords):
        if c == 1:
            terms.append(f"E{v}*")
        elif c:
            terms.append(f"{c}*E{v}*")
    return " + ".join(terms) if terms else "0"


# --- the intersection form on rational cycles (references for the loop) ------


def _apply_form(graph, values):
    """I(E) applied to a coefficient vector, via the adjacency lists."""
    at = dict(zip(graph.vertex_ids, values))
    return [graph.weight(v) * at[v] + sum(at[u] for u in graph.neighbors(v))
            for v in graph.vertex_ids]


def dot_vertex(d, v):
    """Intersection number D . E_v of a QCycle."""
    return _apply_form(d.graph, d.coeffs)[d.graph.index(v)]


def intersect(d1, d2):
    """Exact intersection number d1 . d2 of two QCycles, in Fractions."""
    d1._check(d2)
    return sum(a * b for a, b in zip(d1.coeffs,
                                     _apply_form(d2.graph, d2.coeffs)))


def to_dual_coordinates(d):
    """Coordinates of a QCycle in the dual basis, (-D . E_v)_v, in
    Fractions; expanding sum_v coord_v * E_v* gives the cycle back."""
    return tuple(-x for x in _apply_form(d.graph, d.coeffs))


def _check_pre_event(pre, post, event, what):
    """Raise InternalError unless `pre` is the graph that `event` blew up
    into `post`."""
    ids = set(post.vertex_ids) - {event.new_vertex}
    if (event.new_vertex not in post or set(pre.vertex_ids) != ids
            or any(v not in pre or pre.weight(v) != w
                   for v, w, _ in event.weight_changes)):
        raise InternalError(f"{what} is not indexed by the pre-event graph")


def pullback_vertex_cycle(post, event, cycle):
    """Total transform of a cycle through one blowup event onto the graph
    `post` after it: the reference for the pullback identities that the
    loop carries.

    Old coefficients are kept; the new vertex receives the multiplicity of
    the cycle at the blown-up point, i.e. the sum of the coefficients at the
    one or two vertices through that point.
    """
    _check_pre_event(cycle.graph, post, event, "cycle")
    at_new = sum(cycle.coefficient(v) for v in event.center)
    return QCycle(post, [at_new if v == event.new_vertex
                         else cycle.coefficient(v) for v in post.vertex_ids])


def pulled_back(post, event, basis):
    """The dual basis of the graph `post` after `event`, from the one
    before it: the reference for the rows that ZeroSumSearch carries.

    Blowing up a point is a pullback pi*, so for an old vertex v,
    E'_v* = pi*(E_v*): the old entries stay and the new vertex u gets
    sum_{c in centre} B[c][v].  The new vertex's own dual is
    E_u* = E_u + sum_{c in centre} pi*(E_c*), whose entry at u is
    1 + sum_{c, c' in centre} B[c][c'].  Over the common denominator
    that diagonal numerator is den + sum_{c, c'} num[c][c'].  O(n^2).
    """
    from splicemult import DualBasis

    pre = basis.graph
    _check_pre_event(pre, post, event, "basis")
    centre = [pre.index(c) for c in event.center]
    at_new = [sum(row[c] for c in centre) for row in basis.num]
    p = post.index(event.new_vertex)
    num = [row[:p] + (x,) + row[p:] for row, x in zip(basis.num, at_new)]
    new_row = list(at_new)
    new_row.insert(p, basis.den + sum(at_new[c] for c in centre))
    num.insert(p, tuple(new_row))
    out = DualBasis.__new__(DualBasis)
    out.graph, out.num, out.den = post, num, basis.den
    return out


def hilbert_oracle(g, basis, h1, volume_cap=100_000):
    """Brute-force minimal-element computation over the full ord-bounded box.

    Independent route: membership through exact vertex-basis intersection
    numbers (never through residue arithmetic), end orders found by search,
    and minimality decided by explicit two-part decompositions.  Returns the
    set of generator exponent vectors, or None when the box would exceed
    volume_cap.
    """
    ends = g.ends
    source = h1.group.graph
    gen_expansions = [
        expand(basis, {v: c for v, c in zip(source.vertex_ids, gen)})
        for gen in row_representatives(h1)]
    # pairing of E_i* against each generator, via the intersection form
    pair = {e: [intersect(dual_cycle(basis, e), ge) for ge in gen_expansions]
            for e in ends}

    def member(vec):
        for k in range(len(gen_expansions)):
            total = sum(a * pair[e][k] for a, e in zip(vec, ends))
            if total.denominator != 1:
                return False
        return True

    orders = []
    for e in ends:
        o = 1
        while not member(tuple(o if x == e else 0 for x in ends)):
            o += 1
            assert o <= h1.group.order + 1
        orders.append(o)

    volume = 1
    for o in orders:
        volume *= o + 1
    if volume > volume_cap:
        return None

    members = [vec for vec in
               itertools.product(*(range(o + 1) for o in orders))
               if any(vec) and member(vec)]
    member_set = set(members)

    def decomposable(vec):
        for u in members:
            if u != vec and all(a <= b for a, b in zip(u, vec)):
                rest = tuple(b - a for a, b in zip(u, vec))
                if rest in member_set:
                    return True
        return False

    return {vec for vec in members if not decomposable(vec)}


@st.composite
def blowup_histories(draw):
    """A random negative definite tree and a random sequence of edge and
    end blowups on it.  Vertex ids are multiples of 3, so fresh ids land
    at the front and in the middle of the sorted vertex order."""
    n = draw(st.integers(2, 7))
    weights = {3 * i: draw(st.integers(-6, -1)) for i in range(1, n + 1)}
    edges = [(3 * draw(st.integers(1, i - 1)), 3 * i) for i in range(2, n + 1)]
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    return draw_blowups(draw, g)


def draw_blowups(draw, g):
    """A RecordedHistory of g with up to six random edge and end
    blowups."""
    history = RecordedHistory(g)
    for is_edge, pick in draw(st.lists(st.tuples(st.booleans(),
                                                 st.integers(0, 99)),
                                       max_size=6)):
        if is_edge:
            edges = history.current.edges
            history.blowup_edge(*edges[pick % len(edges)])
        else:
            labels = sorted(history.end_map)
            history.blowup_end(labels[pick % len(labels)])
    return history


# --- generator scans over a full Hilbert basis (the reference verdicts) --------


def scan_edge_witness(gens, z, v, w):
    """The first generator attaining both M_v(Z) and M_w(Z), or None."""
    mv, mw = z.coefficient(v), z.coefficient(w)
    g = z.graph
    return next((m for m in gens if expansion(g, m).coefficient(v) == mv
                 and expansion(g, m).coefficient(w) == mw), None)


def scan_end_witness(gens, z, label, v):
    """The first generator with exponent 0 at end `label` attaining M_v(Z)
    at the end's vertex v, or None."""
    mv = z.coefficient(v)
    return next((m for m in gens if m.exponents[label] == 0
                 and expansion(z.graph, m).coefficient(v) == mv), None)


def round_end_map(report, k):
    """The end map of round k of a report (0 for the first round)."""
    if k == 0:
        return {e: e for e in report.graph.ends}
    return end_map_after(report.history, k - 1)


def assert_rounds_match_hilbert_basis(report, h1):
    """Every round's Z, end witnesses and edge verdicts against a fresh
    dual basis and a fresh box-enumerated Hilbert basis on its graph: each
    witness is the first generator, in the basis's graded-lex order, that
    the old generator scan would have picked."""
    from splicemult import DualBasis, gcd_cycle, hilbert_basis

    def text(m):
        return None if m is None else m.monomial_string()

    for k, rnd in enumerate(report.rounds):
        g = rnd.graph
        end_map = round_end_map(report, k)
        gens = hilbert_basis(g, DualBasis(g), h1, end_map)
        assert rnd.z_num == gcd_cycle(gens)
        z = round_z(rnd)
        for dec in rnd.end_decisions:
            scanned = scan_end_witness(gens, z, dec.end, end_map[dec.end])
            assert (dec.action == "witness") == (scanned is not None)
            assert dec.witness == text(scanned)
        for check in rnd.edge_checks:
            scanned = scan_edge_witness(gens, z, *check.edge)
            assert check.witness == text(scanned)
            assert check.passed == (scanned is not None
                                    or check.pruned_by_zero)


def assert_resolved(report, h1, box_cap=50_000):
    """The run stopped on a resolved graph.  On its final graph, from a
    fresh dual basis: Z is the report's, every end has a witness or is not
    a base point, and every edge has a witness or Z.E = 0 at one of its
    vertices.  Minima come from a fresh box-enumerated Hilbert basis when
    the box has at most `box_cap` points, else from a fresh ZeroSumSearch
    (checked against hilbert_basis in test_search.py)."""
    from splicemult import DualBasis, base_point_set, gcd_cycle, hilbert_basis

    history = report.history
    g, end_map = history.current, history.end_map
    labels = sorted(end_map)
    basis = DualBasis(g)
    volume = prod(o + 1 for o in end_orders(h1, labels))
    if volume <= box_cap:
        gens = hilbert_basis(g, basis, h1, end_map)
        z = cycle(g, gcd_cycle(gens), basis.den)

        def least(vertices, without=None):
            return min(((tuple(expansion(g, m).coefficient(v)
                               for v in vertices),
                         m.exponents) for m in gens
                        if without is None or m.exponents[without] == 0),
                       key=lambda found: found[0], default=None)
    else:
        search = fresh_search(g, h1, end_map)
        z = cycle(g, search.z(), basis.den)

        def least(vertices, without=None):
            found = search.least(vertices, without)
            return found and (tuple(Fraction(x, basis.den)
                                    for x in found[0]), found[1])
    assert z == final_z(report)
    base = base_point_set(g, basis)
    for label in labels:
        v = end_map[label]
        found = least((v,), without=label)
        assert (found is not None and found[0][0] == z.coefficient(v)
                or v not in base), f"end {label} is an open base point"
    for v, w in g.edges:
        found = least((v, w))
        assert (found[0] == (z.coefficient(v), z.coefficient(w))
                or dot_vertex(z, v) == 0 or dot_vertex(z, w) == 0), \
            f"edge {(v, w)} has no witness and Z.E != 0"


# --- the zero-sum classes by cosets (the reference for Smith codes) -----------


def hermite_congruences(h1, labels):
    """The search's congruences one Hermite row at a time: one modulus
    m_j per Hermite row h_j of H1 that is nonzero in H and, for each end
    label l, the residues r_lj = m_j * b(h_j, E_l*) mod m_j, where m_j is
    |H| over the gcd of |H| and the numerators |H| b(h_j, E_l*).  The
    cycle sum_l a_l E_l* pairs integrally with H1 exactly when
    sum_l a_l r_lj = 0 mod m_j for every j."""
    from operator import mul

    from splicemult.lattice import pairings

    group = h1.group
    nonzero = [any(x % d for x, d in zip(h, group.invariant_factors))
               for h in h1.hnf]
    if not any(nonzero):
        return (), ((),) * len(labels)
    den = group.order
    ends = [group.project({l: 1}) for l in labels]
    moduli, columns = [], []
    for row in itertools.compress(pairings(h1), nonzero):
        nums = [sum(map(mul, row, nf)) for nf in ends]
        scale = gcd(den, *nums)
        moduli.append(den // scale)
        columns.append([(x // scale) % (den // scale) for x in nums])
    return tuple(moduli), tuple(zip(*columns))


def pairing_matrix_congruences(h1, labels):
    """The search's congruences by the pairing matrix, for any H1: the
    route monomial._congruences takes when [H : H1] > 1 (there with the
    Hermite rows that are zero in H kept, as zero columns), here also
    for H1 = H, where the search reads the group's end block instead.

    pe has one row per label and one column per Hermite row h_j of H1
    that is nonzero in H, with entries |H| b(h_j, E_l*) mod |H| (row j
    of lattice.pairings(h1) applied to the normal form of E_l*).  With
    U pe V = S, the moduli are e_i = |H| / gcd(|H|, s_i) > 1 and end l's
    residue in slot i is (pe V)_li / s_i mod e_i."""
    from operator import mul

    from splicemult.lattice import pairings
    from splicemult.linalg import smith_normal_form

    group = h1.group
    nonzero = [any(x % d for x, d in zip(h, group.invariant_factors))
               for h in h1.hnf]
    if not any(nonzero):
        return (), ((),) * len(labels)
    den = group.order
    forms = group.end_forms()
    rows = list(itertools.compress(pairings(h1), nonzero))
    pe = [[sum(map(mul, row, forms[l])) % den for row in rows]
          for l in labels]
    snf = smith_normal_form(pe)
    slots = [(i, s, den // gcd(den, s))
             for i, s in enumerate(snf.diagonal()) if s % den]
    columns = [[v[i] for v in snf.V] for i, _, _ in slots]
    residues = []
    for row in pe:
        residue = []
        for column, (_, s, e) in zip(columns, slots):
            x = sum(map(mul, row, column))
            assert x % s == 0
            residue.append(x // s % e)
        residues.append(tuple(residue))
    return tuple(e for _, _, e in slots), tuple(residues)


def coset_class_steps(residues, moduli):
    """The classes reachable from class 0 (which gets 0), numbered by a
    coset construction, with per end label the table of the class one
    step along that end leads to, and the negation table.

    The reachable classes are the subgroup K that the residues generate,
    built one residue r at a time: if t is the least t >= 1 with t r in
    K, the cosets K, K + r, ..., K + (t - 1) r are disjoint and their
    union is the subgroup K and r generate.  A class is held as one
    column per modulus and looked up by its mixed-radix code."""
    from operator import mul

    strides = [1]
    for m in moduli:
        strides.append(strides[-1] * m)

    def codes(columns, size):
        if not columns:
            return [0] * size
        out = columns[0]  # stride 1
        for xs, stride in zip(columns[1:], strides[1:]):
            out = [c + x * stride for c, x in zip(out, xs)]
        return out

    columns, size = [[0] for _ in moduli], 1
    index = {0: 0}  # class number by code
    for r in residues.values():
        if sum(map(mul, r, strides)) in index:
            continue  # t = 1
        order = lcm(*(m // gcd(d, m) for d, m in zip(r, moduli)))
        multiples = [[s * d % m for s in range(order)]
                     for d, m in zip(r, moduli)]
        t = next((s for s, c in enumerate(codes(multiples, order))
                  if s and c in index), order)
        columns = [[(x + y) % m for y in ys[:t] for x in xs]
                   for xs, ys, m in zip(columns, multiples, moduli)]
        size *= t
        index = dict(zip(codes(columns, size), range(size)))
    tables = {}
    for l, r in residues.items():
        stepped = [[(x + d) % m for x in xs] if d else xs
                   for xs, d, m in zip(columns, r, moduli)]
        tables[l] = [index[c] for c in codes(stepped, size)]
    negated = [[-x % m for x in xs] for xs, m in zip(columns, moduli)]
    negation = [index[c] for c in codes(negated, size)]
    return tables, negation


# --- the zero-sum search with tuple keys (the reference for packed keys) --------


def tuple_key_least(search, basis, vertices, without=None, end_map=None):
    """ZeroSumSearch.least by the plain tuple-key Dijkstra: weights
    |H| * M_v(E_i*) from the Fraction entries of `basis` at the carriers
    `end_map` of the search's labels (by default, each end on itself),
    step keys (M_v..., 1, unit exponent vector) compared as tuples and
    added componentwise.  Reads the search's class tables and labels;
    keeps no memo."""
    import heapq
    from operator import add

    from splicemult import InternalError

    if end_map is None:
        end_map = {l: l for l in search.labels}
    scale = search._scale
    per_vertex = []
    for v in vertices:
        weights = {}
        for label, e in end_map.items():
            w = scale * entry(basis, v, e)
            if w.denominator != 1:
                raise InternalError(f"|H| * M_{v}(E_{e}*) = {w}")
            weights[label] = w.numerator
        per_vertex.append(weights)
    labels = search.labels
    moves = [((*(w[l] for w in per_vertex), 1,
               *(int(l == m) for m in labels)), search._steps[l])
             for l in labels if l != without]
    size = len(search._steps[labels[0]])
    best = [None] * size
    for w, table in moves:
        c = table[0]
        if best[c] is None or w < best[c]:
            best[c] = w
    heap = [(w, c) for c, w in enumerate(best) if w is not None]
    heapq.heapify(heap)
    settled = bytearray(size)
    total = None
    while heap:
        key, c = heapq.heappop(heap)
        if c == 0:
            total = key
            break
        if settled[c]:
            continue
        settled[c] = 1
        bound = best[0]
        for w, table in moves:
            n = table[c]
            if settled[n]:
                continue
            nt = tuple(map(add, key, w))
            if bound is not None and nt >= bound:
                continue
            if best[n] is None or nt < best[n]:
                best[n] = nt
                heapq.heappush(heap, (nt, n))
                if n == 0:
                    bound = nt
    if total is None:
        return None
    k = len(vertices)
    return (total[:k], {l: a for l, a in zip(labels, total[k + 1:]) if a})


# --- Laufer's algorithm (an oracle outside the pipeline's algebra) --------------


def laufer_z_min(g):
    """Artin's fundamental cycle by Laufer's algorithm, as {v: coefficient},
    with its arithmetic genus p_a(Z) = 1 + (Z.Z + K.Z) / 2, where
    K.E_v = -E_v.E_v - 2.  The graph is rational exactly when p_a = 0, and
    then the singularity's multiplicity is -Z_min^2 (Artin)."""
    z = {v: 1 for v in g.vertex_ids}

    def dot_vertex(v):
        return g.weight(v) * z[v] + sum(z[u] for u in g.neighbors(v))

    while True:
        bad = next((v for v in g.vertex_ids if dot_vertex(v) > 0), None)
        if bad is None:
            break
        z[bad] += 1
    zz = sum(z[v] * dot_vertex(v) for v in g.vertex_ids)
    kz = sum(z[v] * (-g.weight(v) - 2) for v in g.vertex_ids)
    return z, zz, 1 + (zz + kz) // 2


# --- Pinkham and Demazure (Z on stars, outside the pipeline's algebra) ---------


def chain_star(centre, arms):
    """Star whose vertex 1 of weight `centre` carries one chain per arm,
    each arm's weights listed from the centre outwards; the ids run 2, 3,
    ... arm by arm."""
    weights, edges = {1: centre}, []
    for arm in arms:
        previous = 1
        for w in arm:
            v = len(weights) + 1
            weights[v] = w
            edges.append((previous, v))
            previous = v
    return ResolutionGraph(weights, edges)


@st.composite
def chain_armed_stars(draw):
    """Stars with 3-5 chain arms of 1-3 vertices of weight -7..-2, a centre
    of weight -4..-1 and |H| <= 2000.  The arms are drawn first.  With
    centre weight -b, |H| = a b - c, where a = prod alpha_i and c = sum_i
    beta_i prod_{j != i} alpha_j (seifert_invariants), and the star is
    negative definite iff b > sum beta_i / alpha_i, that is iff |H| > 0:
    so b is drawn from the range where 0 < |H| <= 2000, if there is one."""
    arms = draw(st.lists(st.lists(st.integers(-7, -2), min_size=1,
                                  max_size=3), min_size=3, max_size=5))
    a, c = 1, 0
    for alpha, beta in map(seifert_invariants, arms):
        a, c = a * alpha, c * alpha + a * beta
    lowest, highest = c // a + 1, min(4, (c + 2000) // a)
    assume(lowest <= highest)
    return chain_star(-draw(st.integers(lowest, highest)), arms)


def star_arms(g):
    """The centre of a star with chain arms, and its arms, each a list of
    vertices read from the centre outwards."""
    (centre,) = g.nodes
    arms = []
    for start in g.neighbors(centre):
        arm = [centre, start]
        while g.degree(arm[-1]) == 2:
            arm.append(next(u for u in g.neighbors(arm[-1]) if u != arm[-2]))
        arms.append(arm[1:])
    return centre, arms


def seifert_invariants(weights):
    """(alpha, beta) of an arm of the given weights -b_1, ..., -b_s, read
    from the centre outwards, with alpha / beta = [b_1, ..., b_s]: alpha is
    det(-I) on the arm's chain, beta on the chain without its first
    vertex."""
    alpha, beta = 1, 0
    for w in reversed(weights):
        alpha, beta = -w * alpha - beta, alpha
    return alpha, beta


def pinkham_demazure_z(g):
    """The maximal ideal cycle Z_max of a star with chain arms, as {v:
    coefficient}, from the graded ring R = sum_k H^0(P^1, O(floor(kD)))
    (Pinkham 1977, Demazure 1988).

    With centre weight -b and arm i's Seifert invariants alpha_i / beta_i
    = [b_1, ..., b_s] (read from the centre outwards), R_k != 0 exactly
    when deg floor(kD) = k*b - sum_i ceil(k*beta_i/alpha_i) >= 0.  A
    homogeneous f of degree k vanishes to order k on the central curve,
    and its strict transform meets an arm only at the end curve, so the
    arm's valuations follow v_{j+1} = b_j v_j - v_{j-1} from v_0 = k, with
    b_s v_s - v_{s-1} >= 0 at the end curve; the least v_1 gives the least
    valuations.  Z_max is the componentwise minimum over every such k."""
    centre, arms = star_arms(g)
    b = -g.weight(centre)

    def valuations(arm, k, v1):
        """v_1 .. v_s, and b_s v_s - v_{s-1}."""
        vals = [k, v1]
        for v in arm:
            vals.append(-g.weight(v) * vals[-1] - vals[-2])
        return vals[1:-1], vals[-1]

    seifert = [seifert_invariants([g.weight(v) for v in arm])
               for arm in arms]

    def least(arm, k):
        """The least v_1 .. v_s: the end condition is affine in v_1."""
        c = valuations(arm, k, 0)[1]
        a = valuations(arm, k, 1)[1] - c
        return valuations(arm, k, -(c // a))[0]

    # v_j >= k * rate_v, the valuations of the real least v_1 at k = 1
    rate = {centre: 1}
    for arm in arms:
        c = valuations(arm, 1, 0)[1]
        a = valuations(arm, 1, 1)[1] - c
        rate.update(zip(arm, valuations(arm, 1, Fraction(-c, a))[0]))
    z = None
    for k in itertools.count(1):
        if z is not None and all(k * rate[v] >= z[v] for v in z):
            return z
        if k * b < sum(-(-k * beta // alpha) for alpha, beta in seifert):
            continue
        candidate = {centre: k}
        for arm in arms:
            candidate.update(zip(arm, least(arm, k)))
        z = candidate if z is None else {v: min(z[v], candidate[v])
                                         for v in z}


# --- dense references for the Smith and Hermite forms ---------------------------


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in cols]
            for row in a]


def matrices_equal(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b))


def _row_pair_tracked(m, u, i1, i2, j):
    """Rows i1, i2 of m and u times a unimodular 2x2 matrix, so that
    m[i2][j] becomes 0."""
    a, b = m[i1][j], m[i2][j]
    if b == 0:
        return
    if a == 0:
        m[i1], m[i2] = m[i2], m[i1]
        u[i1], u[i2] = u[i2], u[i1]
        return
    if b % a == 0:
        q = b // a
        m[i2] = [s - q * t for s, t in zip(m[i2], m[i1])]
        u[i2] = [s - q * t for s, t in zip(u[i2], u[i1])]
        return
    g, x, y = _xgcd(a, b)
    p, q = -(b // g), a // g
    for mat in (m, u):
        r1, r2 = mat[i1], mat[i2]
        mat[i1] = [x * s + y * t for s, t in zip(r1, r2)]
        mat[i2] = [p * s + q * t for s, t in zip(r1, r2)]


def _col_pair_tracked(m, v, j1, j2, i):
    """Columns j1, j2 of m and v times a unimodular 2x2 matrix, so that
    m[i][j2] becomes 0."""
    a, b = m[i][j1], m[i][j2]
    if b == 0:
        return
    if a == 0:
        for row in m + v:
            row[j1], row[j2] = row[j2], row[j1]
        return
    if b % a == 0:
        q = b // a
        for row in m + v:
            row[j2] -= q * row[j1]
        return
    g, x, y = _xgcd(a, b)
    p, q = -(b // g), a // g
    for row in m + v:
        s, t = row[j1], row[j2]
        row[j1] = x * s + y * t
        row[j2] = p * s + q * t


def eager_smith_normal_form(a):
    """The Smith form with both transforms tracked at every step and
    checked by U*A*V == S: (U, S, V).  The pivot rule and the operations
    are linalg.smith_normal_form's, which must give the same triple."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = [list(row) for row in a]
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    r = min(rows, cols)
    for t in range(r):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (pivot is None or abs(s[i][j])
                                     < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s + v:
                row[t], row[pj] = row[pj], row[t]
        while True:
            for i in range(t + 1, rows):
                _row_pair_tracked(s, u, t, i, t)
            if all(s[t][j] == 0 for j in range(t + 1, cols)):
                break
            for j in range(t + 1, cols):
                _col_pair_tracked(s, v, t, j, t)
            if all(s[i][t] == 0 for i in range(t + 1, rows)):
                break
    for t in range(r):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            dt, dn = s[t][t], s[t + 1][t + 1]
            if dt == 0 or dn % dt == 0:
                continue
            changed = True
            for row in s + v:
                row[t] += row[t + 1]
            while True:
                _row_pair_tracked(s, u, t, t + 1, t)
                if s[t][t + 1] == 0:
                    break
                _col_pair_tracked(s, v, t, t + 1, t)
                if s[t + 1][t] == 0:
                    break
            for k in (t, t + 1):
                if s[k][k] < 0:
                    s[k] = [-x for x in s[k]]
                    u[k] = [-x for x in u[k]]
    assert matrices_equal(mat_mul(mat_mul(u, a), v), s)
    return u, s, v


class HnfResult:
    """Row Hermite decomposition U*A = H with U unimodular, H in canonical
    form: positive pivots, entries above each pivot reduced into [0, pivot)."""

    def __init__(self, U, H):
        self.U = U
        self.H = H


def hermite_normal_form(a):
    """Canonical row Hermite normal form of a full-row-rank integer matrix,
    from linalg._hermite_reduce, checked by U*A == H.  Raises
    InternalError when the rows are dependent over the rationals."""
    h, rank, log = _hermite_reduce(a)
    if rank < len(a):
        raise InternalError("matrix does not have full row rank")
    u = _replay(log, len(a))
    assert matrices_equal(mat_mul(u, a), h)
    return HnfResult(U=u, H=h)


# --- Fraction references for the integer front end -------------------------------


def replace_everywhere(monkeypatch, original, replacement):
    """Replace a function under every splicemult module attribute that
    refers to it (callers bind it with `from .x import y`)."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("splicemult"):
            for name, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, name, replacement)


def invert_by_fractions(a):
    """Inverse of a square matrix by Gauss-Jordan over Fractions: divide the
    pivot row by its pivot, then clear the pivot column in every other row.
    Raises InternalError("matrix is singular") when no pivot is left."""
    from splicemult import InternalError

    n = len(a)
    m = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot_row is None:
            raise InternalError("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        p = m[col][col]
        m[col] = [x / p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def knapsack_by_enumeration(target, weights):
    """Every nonnegative integer vector a with sum a_k * weights_k = target,
    in lexicographic order, by plain enumeration (no pruning; the weights
    must be positive)."""
    den = lcm(Fraction(target).denominator,
              *(Fraction(w).denominator for w in weights))
    ws = [int(w * den) for w in weights]
    out = []

    def extend(k, remaining, partial):
        if k == len(ws):
            if remaining == 0:
                out.append(partial)
            return
        for a in range(remaining // ws[k] + 1):
            extend(k + 1, remaining - a * ws[k], partial + (a,))

    if target >= 0:
        extend(0, int(target * den), ())
    return out


def knapsack_by_recursion(target, weights):
    """The gcd-pruned knapsack as one recursive call per prefix, with no
    cap: (every solution in lexicographic order, number of calls).  The
    weights must be positive integers and the target an integer."""
    ws = list(weights)
    if not ws:
        return ([()] if target == 0 else []), 0
    tails = [0] * (len(ws) + 1)  # tails[k] = gcd(ws[k:]); gcd() = 0
    for k in reversed(range(len(ws))):
        tails[k] = gcd(ws[k], tails[k + 1])
    if target < 0 or target % tails[0]:
        return [], 0
    out = []
    counter = [0]

    def rec(idx, remaining, partial):
        counter[0] += 1
        w = ws[idx]
        if idx == len(ws) - 1:
            if remaining % w == 0:
                out.append(tuple(partial + [remaining // w]))
            return
        # the a with rest | remaining - a * w form one class modulo
        # rest / h, because h = gcd(w, rest) divides remaining
        rest, h = tails[idx + 1], tails[idx]
        step = rest // h
        first = (remaining // h) * pow(w // h, -1, step) % step
        for a in range(first, remaining // w + 1, step):
            rec(idx + 1, remaining - a * w, partial + [a])

    rec(0, target, [])
    return out, counter[0]


def admissible_monomials_by_fractions(g, basis, node, branch):
    """The minimal monomial cycles D with D - E_node* effective, integral and
    zero outside the branch, by summing QCycles over every solution of the
    node's knapsack equation and keeping the componentwise-minimal ones in
    graded-lex order; each as (exponents over every end, QCycle D)."""
    branch = frozenset(branch)
    branch_ends = sorted(e for e in g.ends if e in branch)
    weights = [entry(basis, node, e) for e in branch_ends]
    node_dual = dual_cycle(basis, node)
    witnesses = {}
    for combo in knapsack_by_enumeration(entry(basis, node, node), weights):
        d = QCycle.zero(g)
        for a, e in zip(combo, branch_ends):
            if a:
                d = d + a * dual_cycle(basis, e)
        diff = d - node_dual
        if diff.is_integral() and diff.is_effective() and all(
                diff.coefficient(v) == 0
                for v in g.vertex_ids if v not in branch):
            witnesses[combo] = d
    minimal = []
    for v in sorted(witnesses, key=lambda v: (sum(v), v)):
        if not any(all(x <= y for x, y in zip(k, v)) for k in minimal):
            minimal.append(v)
    out = []
    for combo in minimal:
        exps = dict.fromkeys(g.ends, 0)
        exps.update(zip(branch_ends, combo))
        out.append((exps, witnesses[combo]))
    return out


def branches_by_search(g, v):
    """The components of g minus v, one per neighbour of v, found by a
    search from each neighbour: the reference for graph.branches, which
    reads them off the rooted tree.  Ordered by (size, sorted vertex
    list), as frozensets."""
    g.index(v)
    comps = []
    seen = {v}
    for start in g.neighbors(v):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for u in g.neighbors(stack.pop()):
                if u not in seen and u not in comp:
                    comp.add(u)
                    stack.append(u)
        seen |= comp
        comps.append(frozenset(comp))
    comps.sort(key=lambda c: (len(c), sorted(c)))
    return tuple(comps)


@st.composite
def multi_node_trees(draw):
    """A random negative definite tree with at least two nodes: two centres
    joined by a chain, two or three arms at each, and up to three more
    vertices hung anywhere."""
    gap = draw(st.integers(0, 2))
    edges = [(k, k + 1) for k in range(1, gap + 2)]  # centres 1 and gap + 2
    n = gap + 2
    for centre in (1, gap + 2):
        for _ in range(draw(st.integers(2, 3))):
            n += 1
            edges.append((centre, n))
    for _ in range(draw(st.integers(0, 3))):
        n += 1
        edges.append((draw(st.integers(1, n - 1)), n))
    weights = {v: draw(st.sampled_from([-1, -2, -2, -2, -3, -3, -4, -5]))
               for v in range(1, n + 1)}
    try:
        return ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
