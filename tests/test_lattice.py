"""Dual cycles, intersection pairing, discriminant group, subgroups."""

import inspect
import itertools
import random
import re
import sys
from fractions import Fraction
from math import prod
from operator import mul

import pytest
from hypothesis import assume, given, strategies as st

from splicemult import (
    DualBasis,
    GraphHistory,
    ResolutionGraph,
    branches,
    discriminant_group,
    dual_cycles,
    enumerate_subgroups,
    flat_subgroup,
    full_subgroup,
    subgroup,
    trivial_subgroup,
)
from splicemult.errors import CapExceededError, InputError, InternalError
from splicemult.lattice import (_certify_flat, _lattice_contains,
                                _tree_solve)
from splicemult.monomial import _congruences
from splicemult.linalg import (
    determinant,
    identity_matrix,
    invert_rational_matrix,
    smith_normal_form,
)

from conftest import (
    H12_DUAL_ROWS,
    H60_WEIGHTS,
    RANK_3_AND_4_GRAPHS,
    TWO_NODE_EDGES,
    QCycle,
    basis_matrix,
    blowup_histories,
    closure,
    dot_vertex,
    draw_blowups,
    dual_cycle,
    dual_pairing,
    eager_smith_normal_form,
    entry,
    expand,
    intersect,
    invert_by_fractions,
    linking_pairing,
    mat_mul,
    multi_node_trees,
    perp_member,
    pulled_back,
    random_trees,
    representative,
    row_classes,
    row_representatives,
    star,
    subgroups_oracle,
    to_dual_coordinates,
)


def _all_classes(group):
    return list(itertools.product(*map(range, group.invariant_factors)))


def _unit_classes(group):
    r = len(group.invariant_factors)
    return [tuple(int(i == j) for j in range(r)) for i in range(r)]


# --- dual cycles -------------------------------------------------------------


def test_dual_rows_h12(tree_h12):
    basis = dual_cycles(tree_h12)
    for v, row in H12_DUAL_ROWS.items():
        assert dual_cycle(basis, v).coeffs == row


def test_dual_chain(a2_chain):
    basis = dual_cycles(a2_chain)
    assert dual_cycle(basis, 1).coeffs == (Fraction(2, 3), Fraction(1, 3))
    assert dual_cycle(basis, 2).coeffs == (Fraction(1, 3), Fraction(2, 3))


def test_dual_defining_property(all_test_graphs):
    for g in all_test_graphs:
        basis = dual_cycles(g)
        for a in g.vertex_ids:
            ea = dual_cycle(basis, a)
            for b in g.vertex_ids:
                assert dot_vertex(ea, b) == (-1 if a == b else 0)
            assert all(c > 0 for c in ea.coeffs)


# --- the tree solve: path formula over branch determinants -------------------------


def _negated(g):
    return [[-x for x in row] for row in g.intersection_matrix()]


@st.composite
def chain_armed_star_histories(draw):
    """A centre with three to five arms, each a chain of one to three
    vertices, then random blowups (draw_blowups)."""
    weights, edges = {1: draw(st.integers(-4, -1))}, []
    for _ in range(draw(st.integers(3, 5))):
        prev = 1
        for _ in range(draw(st.integers(1, 3))):
            v = len(weights) + 1
            weights[v] = draw(st.integers(-6, -2))
            edges.append((prev, v))
            prev = v
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    return draw_blowups(draw, g)


@st.composite
def multi_node_histories(draw):
    return draw_blowups(draw, draw(multi_node_trees()))


@given(st.one_of(blowup_histories(), chain_armed_star_histories(),
                 multi_node_histories()))
def test_tree_solve_equals_bareiss(history):
    """On a random tree, a star with chain arms or a tree with two nodes,
    and on every graph their blowups pass through, the tree solve's
    (num, den) is the Bareiss inverse of -I(E)."""
    graphs = [history.initial] + [history.graph_after(k)
                                  for k in range(len(history.events))]
    for g in graphs:
        num, den = invert_rational_matrix(_negated(g))
        assert _tree_solve(g) == ([tuple(row) for row in num], den)


def test_rerooted_rows_when_the_least_id_is_a_leaf(monomial_fail_graph):
    """Rooted at the leaf 1, the nodes 5 and 6 lie below it: every other
    row is its parent's rerooted, and vertex 6's branch {1, 2, 5} is the
    complement of its subtree.  The rows are the Bareiss inverse's."""
    g = monomial_fail_graph
    order, parent, size = g.rooted_tree()
    assert (order[0], g.degree(order[0])) == (1, 1)
    assert parent[5] == 1 and parent[6] == 5 and size[6] == 3
    num, den = invert_rational_matrix(_negated(g))
    basis = DualBasis(g)
    assert (basis.num, basis.den) == ([tuple(row) for row in num], den)
    assert dual_cycle(basis, 6).coeffs == tuple(map(Fraction, (
        "1/3", "1/3", "7/6", "7/6", "4/3", "14/3")))


def test_dual_basis_reads_the_constructors_elimination(monkeypatch):
    """The tree solve reroots the elimination the constructor kept: it
    eliminates no leaf again."""
    def forbidden(self):
        raise AssertionError("_eliminate_leaves called again")

    g = ResolutionGraph(H60_WEIGHTS, TWO_NODE_EDGES)
    monkeypatch.setattr(ResolutionGraph, "_eliminate_leaves", forbidden)
    num, den = invert_rational_matrix(_negated(g))
    basis = DualBasis(g)
    assert (basis.num, basis.den) == ([tuple(row) for row in num], den)


@given(st.one_of(blowup_histories(), chain_armed_star_histories(),
                 multi_node_histories()))
def test_blown_up_graphs_carry_the_elimination(history):
    """Every graph a history passes through carries, once read, the
    elimination a fresh graph would make: rooted at its own least id,
    parents before children, P_v = D(parent -> v), P_root = det and Q_v
    the product of P over v's children."""
    graphs = [history.initial] + [history.graph_after(k)
                                  for k in range(len(history.events))]
    for g in graphs:
        order, parent, size, below, rest = g._elimination()
        root = g.vertex_ids[0]
        assert order[0] == root and parent[root] is None
        assert sorted(order) == list(g.vertex_ids)
        place = {v: i for i, v in enumerate(order)}
        assert all(place[parent[v]] < place[v] and g.has_edge(parent[v], v)
                   for v in order[1:])
        fresh = ResolutionGraph(
            {v: g.weight(v) for v in g.vertex_ids}, g.edges)
        det, branch = fresh.branch_determinants()
        assert below[root] == det
        assert all(below[v] == branch[parent[v], v] for v in order[1:])
        assert all(rest[v] == prod(below[c] for c in g.neighbors(v)
                                   if c != parent[v]) for v in order)
        assert g.branch_determinants() == (det, branch)

        assert g.rooted_tree() == (order, parent, size)
        for i, v in enumerate(order):
            below_v = {u for u in order if v in _ancestors(u, parent)}
            assert set(order[i:i + size[v]]) == below_v


def _ancestors(u, parent):
    """u and every vertex above it."""
    path = [u]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return path


@given(st.one_of(blowup_histories(), chain_armed_star_histories(),
                 multi_node_histories()))
def test_snf_of_every_history_graph_equals_eager(history):
    """On -I of every graph a history passes through, the Smith form
    rebuilt from its log is the eager one, U, S and V alike."""
    graphs = [history.initial] + [history.graph_after(k)
                                  for k in range(len(history.events))]
    for g in graphs:
        res = smith_normal_form(_negated(g))
        assert (res.U, res.S, res.V) == eager_smith_normal_form(_negated(g))


@given(blowup_histories())
def test_branch_determinants_are_component_determinants(history):
    """D(v -> y) is det(-I) on the component of the graph minus v that
    holds y, and det is det(-I) on the whole graph."""
    g = history.current
    det, branch = g.branch_determinants()
    assert det == determinant(_negated(g))
    assert len(branch) == 2 * len(g.edges)
    neg = _negated(g)
    for v in g.vertex_ids:
        for comp in branches(g, v):
            (y,) = comp & set(g.neighbors(v))
            rows = [g.index(x) for x in sorted(comp)]
            assert branch[v, y] == determinant(
                [[neg[i][j] for j in rows] for i in rows])


def test_tree_solve_of_a_300_vertex_caterpillar():
    """A spine of 150 (-3)-vertices, each with one (-2)-leaf: no recursion
    on the way (the limit is set just above the caller's depth), and the
    integers stay exact.  Leaves eliminated, the spine is a continuant in
    5/2, so det = 2^150 * c_150; the entry between the spine's ends is
    2^150, the 150 leaves left off the path; and num (-I) = den Id."""
    k = 150
    weights = {i: -3 for i in range(1, k + 1)}
    weights.update({k + i: -2 for i in range(1, k + 1)})
    edges = [(i, i + 1) for i in range(1, k)]
    edges += [(i, k + i) for i in range(1, k + 1)]
    g = ResolutionGraph(weights, edges)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 30)
    try:
        basis = DualBasis(g)
    finally:
        sys.setrecursionlimit(limit)
    c_prev, c = Fraction(1), Fraction(5, 2)
    for _ in range(k - 1):
        c_prev, c = c, Fraction(5, 2) * c - c_prev
    assert basis.den == 2 ** k * c
    assert basis.den.bit_length() > 300
    assert basis.num[g.index(1)][g.index(k)] == 2 ** k
    neg = _negated(g)
    support = [[(w, x) for w, x in enumerate(col) if x] for col in neg]
    for u, row in enumerate(basis.num):
        assert all(type(x) is int and x > 0 for x in row)
        assert [sum(row[w] * x for w, x in col) for col in support] == [
            basis.den * (u == v) for v in range(len(g))]


def test_tree_solve_check_catches_a_wrong_branch_determinant(
        tree_h12, monkeypatch):
    """Every directed edge's D(p -> c), and det itself, is read: one of
    them off by one makes the check num (-I) = den Id fail."""
    original = ResolutionGraph.branch_determinants
    det, branch = original(tree_h12)
    for key in [None] + sorted(branch):
        def tampered(self, key=key):
            det, branch = original(self)
            if key is None:
                return det + 1, branch
            branch[key] += 1
            return det, branch

        monkeypatch.setattr(ResolutionGraph, "branch_determinants", tampered)
        with pytest.raises(InternalError,
                           match=r"^tree solve check num \* \(-I\) == "):
            DualBasis(tree_h12)


def test_tree_solve_check_catches_a_wrong_numerator(tree_h12, monkeypatch):
    import splicemult.lattice as lattice

    original = lattice._path_numerators
    n = len(tree_h12)
    for u, v in itertools.product(range(n), repeat=2):
        def tampered(graph, branch, u=u, v=v):
            num = [list(row) for row in original(graph, branch)]
            num[u][v] -= 1
            return num

        monkeypatch.setattr(lattice, "_path_numerators", tampered)
        with pytest.raises(InternalError, match=(
                rf"^tree solve check num \* \(-I\) == 12 \* Id failed "
                rf"at row {tree_h12.vertex_ids[u]}$")):
            DualBasis(tree_h12)


# --- intersection ---------------------------------------------------------------


def test_intersect_h12_selfpairing(tree_h12):
    basis = dual_cycles(tree_h12)
    e5 = dual_cycle(basis, 5)
    assert intersect(e5, e5) == -e5.coefficient(5) == -2


def test_intersect_h60_z(tree_h60):
    basis = dual_cycles(tree_h60)
    z = Fraction(1, 10) * (dual_cycle(basis, 1) + 3 * dual_cycle(basis, 5))
    assert intersect(z, z) == Fraction(-7, 100)


def test_intersect_zero(tree_h12):
    basis = dual_cycles(tree_h12)
    assert intersect(dual_cycle(basis, 3), QCycle.zero(tree_h12)) == 0


def test_intersect_rejects_mixed_graphs(tree_h12, a2_chain):
    with pytest.raises(InternalError, match="cycles live on different graphs"):
        intersect(QCycle.zero(tree_h12), QCycle.zero(a2_chain))


def test_intersect_symmetric_bilinear(tree_h12):
    rng = random.Random(8)
    g = tree_h12
    for _ in range(10):
        d1 = QCycle(g, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in g.vertex_ids])
        d2 = QCycle(g, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in g.vertex_ids])
        d3 = QCycle(g, [Fraction(rng.randint(-6, 6), rng.randint(1, 3))
                        for _ in g.vertex_ids])
        assert intersect(d1, d2) == intersect(d2, d1)
        assert intersect(d1 + d3, d2) == intersect(d1, d2) + intersect(d3, d2)
        assert intersect(3 * d1, d2) == 3 * intersect(d1, d2)


def test_estar_pairing_equals_negative_entry(all_test_graphs):
    for g in all_test_graphs:
        basis = dual_cycles(g)
        for a in g.vertex_ids:
            for b in g.vertex_ids:
                direct = intersect(dual_cycle(basis, a), dual_cycle(basis, b))
                assert direct == -entry(basis, a, b)
                assert direct == dual_pairing(basis, {a: 1}, {b: 1})


# --- dual coordinates --------------------------------------------------------------


def test_to_dual_coordinates_unit(tree_h12):
    basis = dual_cycles(tree_h12)
    coords = to_dual_coordinates(dual_cycle(basis, 3))
    assert coords == tuple(int(v == 3) for v in tree_h12.vertex_ids)


def test_to_dual_coordinates_half_e5(tree_h12):
    basis = dual_cycles(tree_h12)
    z = Fraction(1, 2) * dual_cycle(basis, 5)
    assert z.coeffs == tuple(Fraction(c, 2) for c in H12_DUAL_ROWS[5])
    assert to_dual_coordinates(z) == tuple(
        Fraction(1, 2) if v == 5 else 0 for v in tree_h12.vertex_ids)


def test_to_dual_coordinates_chain_sum(a2_chain):
    d = QCycle(a2_chain, (1, 1))
    assert to_dual_coordinates(d) == (1, 1)


def test_dual_roundtrip_random(all_test_graphs):
    rng = random.Random(3)
    for g in all_test_graphs:
        basis = dual_cycles(g)
        for _ in range(5):
            d = QCycle(g, [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                           for _ in g.vertex_ids])
            assert expand(basis, to_dual_coordinates(d)) == d


# --- discriminant group --------------------------------------------------------------


def test_discriminant_h12(tree_h12):
    group = discriminant_group(tree_h12)
    assert group.invariant_factors == (2, 6)
    assert group.order == 12


def test_discriminant_h60(tree_h60):
    assert discriminant_group(tree_h60).order == 60


def test_discriminant_chain(a2_chain):
    group = discriminant_group(a2_chain)
    assert group.invariant_factors == (3,)
    assert group.order == 3


def test_projection_kills_integral_cycles(all_test_graphs):
    rng = random.Random(5)
    for g in all_test_graphs:
        group = discriminant_group(g)
        for _ in range(5):
            cyc = QCycle(g, [rng.randint(-4, 4) for _ in g.vertex_ids])
            assert not any(group.project(to_dual_coordinates(cyc)))


def test_representative_section(tree_h12):
    group = discriminant_group(tree_h12)
    for nf in _all_classes(group):
        assert group.project(representative(group, nf)) == nf


# --- subgroups ---------------------------------------------------------------------


def test_subgroup_orders_h12(tree_h12):
    group = discriminant_group(tree_h12)
    assert subgroup([{1: 1}], group).order == 2
    assert subgroup([{3: 2}], group).order == 3
    trivial = subgroup([], group)
    assert trivial.order == 1 and trivial.index == 12


def test_subgroup_cap():
    """Only the enumeration of all subgroups is capped; one subgroup of a
    group over the cap is still a lattice with an order and an index."""
    group = discriminant_group(star(-3, [-7, -7, -7, -7]))
    assert group.order == 5831
    h1 = subgroup([{2: 1}], group)
    assert set(h1.canonical_elements) == closure(
        group, [group.project({2: 1})])
    assert h1.order == 119 and h1.index == 49
    assert full_subgroup(group).order == 5831
    with pytest.raises(CapExceededError, match="exceeds the enumeration cap"):
        enumerate_subgroups(group)


def test_full_subgroup(tree_h12):
    group = discriminant_group(tree_h12)
    full = full_subgroup(group)
    assert full.order == 12 and full.index == 1
    # H is already generated by the classes of E_1* and E_3*
    assert subgroup([{1: 1}, {3: 1}], group) == full


def test_perp_member_h12(tree_h12):
    group = discriminant_group(tree_h12)
    h1 = subgroup([{1: 1}], group)
    assert perp_member({2: 1, 3: 1}, h1)
    assert not perp_member({2: 1}, h1)
    assert perp_member({2: 1}, trivial_subgroup(group))


def test_flat_h12_table_rows(tree_h12):
    group = discriminant_group(tree_h12)
    assert flat_subgroup(subgroup([{1: 1}], group)) == \
        subgroup([{1: 1}, {3: 2}], group)
    assert flat_subgroup(subgroup([{3: 3}], group)) == \
        subgroup([{3: 1}], group)
    assert flat_subgroup(trivial_subgroup(group)).order == group.order


def test_flat_identities(all_test_graphs):
    for g in all_test_graphs:
        group = discriminant_group(g)
        for h1 in enumerate_subgroups(group):
            flat = flat_subgroup(h1)
            assert flat.order * h1.order == group.order
            assert flat_subgroup(flat) == h1


def test_enumerate_subgroups_h12(tree_h12):
    group = discriminant_group(tree_h12)
    subs = enumerate_subgroups(group)
    assert len(subs) == 10
    assert [s.order for s in subs] == [1, 2, 2, 2, 3, 4, 6, 6, 6, 12]
    assert len({s.canonical_elements for s in subs}) == 10
    # deterministic order: by order, then by sorted element list
    keys = [(s.order, s.canonical_elements) for s in subs]
    assert keys == sorted(keys)
    assert subs == enumerate_subgroups(group)


# cyclic groups and Z/2 x Z/6 among them
SMALL_TREES = random_trees(seed=31, count=40, max_vertices=9, max_ends=7,
                           max_order=64)


def test_enumerate_subgroups_matches_closure_oracle():
    ranks = set()
    for g in SMALL_TREES + RANK_3_AND_4_GRAPHS:
        group = discriminant_group(g)
        ranks.add(len(group.invariant_factors))
        subs = enumerate_subgroups(group)
        assert {frozenset(s.canonical_elements) for s in subs} == \
            subgroups_oracle(group)
        assert len(subs) == len(set(subs))
        for s in subs:
            gens = row_representatives(s)
            assert closure(group, [group.project(v) for v in
                                   gens]) == set(s.canonical_elements)
            # built from its basis, as subgroup() builds it from generators
            rebuilt = subgroup(gens, group)
            assert (rebuilt.hnf, rebuilt.order, rebuilt.index) == \
                (s.hnf, s.order, s.index)
        # the pairing matrix against the pairing of the representatives
        units = _unit_classes(group)
        pairing = group.pairing_matrix()
        for j, ej in enumerate(units):
            for k, ek in enumerate(units):
                assert (pairing[j][k] - group.order
                        * linking_pairing(group, ej, ek)) % group.order == 0
    assert ranks == {1, 2, 3, 4}


def test_flat_matches_pairing_oracle():
    """H1-flat is every class pairing integrally with H1's nonzero
    Hermite rows, the pairing read through the representatives and the
    dual basis, not through the pairing matrix; it is an involution, and
    each enumerated pair passes its certificate."""
    for g in SMALL_TREES + RANK_3_AND_4_GRAPHS:
        group = discriminant_group(g)
        units = _unit_classes(group)
        subs = enumerate_subgroups(group)
        for s in subs:
            gens = row_classes(s)
            against = [[linking_pairing(group, e, nf) for e in units]
                       for nf in gens]
            perp = {x for x in _all_classes(group)
                    if all(sum(map(mul, x, row)).denominator == 1
                           for row in against)}
            flat = flat_subgroup(s)
            assert set(flat.canonical_elements) == perp
            assert flat_subgroup(flat) == s
            _certify_flat(s, flat)


def test_congruences_match_fraction_pairings(tree_h12, d4_star):
    """The search's congruences against the Fraction intersections: the
    residues of _congruences(h1), one per end, sum to zero exactly when
    sum a_l E_l* pairs integrally (dual_pairing) with the representative
    of every nonzero Hermite row of H1.  The rows generate H1, so
    integrality on them is integrality on all of H1.  The moduli are the
    Smith coordinates of the class group K, of order |H1|.  Every
    subgroup of each graph, every exponent vector in [0, 2]^ends, or a
    seeded sample of 500 where there are more."""
    rng = random.Random(23)
    for g in SMALL_TREES + RANK_3_AND_4_GRAPHS + [tree_h12, d4_star]:
        group = discriminant_group(g)
        box = list(itertools.product(range(3), repeat=len(g.ends)))
        if len(box) > 500:
            box = rng.sample(box, 500)
        for h1 in enumerate_subgroups(group):
            moduli, residues = _congruences(h1)
            gens = row_representatives(h1)
            assert prod(moduli) == h1.order
            against = [[dual_pairing(group.basis, {l: 1}, gen)
                        for l in g.ends] for gen in gens]
            for a in box:
                zero = all(sum(x * r[j] for x, r in zip(a, residues)) % m == 0
                           for j, m in enumerate(moduli))
                integral = all(sum(map(mul, a, row)).denominator == 1
                               for row in against)
                assert zero == integral, (g, h1.hnf, a)


@st.composite
def groups_and_generators(draw):
    g = draw(st.sampled_from(SMALL_TREES + RANK_3_AND_4_GRAPHS))
    n = len(g.vertex_ids)
    gens = draw(st.lists(st.lists(st.integers(-5, 5), min_size=n,
                                  max_size=n), max_size=3))
    return g, gens


@given(groups_and_generators())
def test_subgroup_matches_closure(case):
    g, gens = case
    group = discriminant_group(g)
    h1 = subgroup(gens, group)
    expected = closure(group, [group.project(v) for v in gens])
    assert set(h1.canonical_elements) == expected
    assert h1.order == len(expected)
    assert h1.index * h1.order == group.order
    for nf in _all_classes(group):
        assert _lattice_contains(h1.hnf, nf) == (nf in expected)


def test_enumerate_subgroups_z3(a2_chain):
    group = discriminant_group(a2_chain)
    assert len(enumerate_subgroups(group)) == 2


def test_enumerate_subgroups_klein(d4_star):
    group = discriminant_group(d4_star)
    assert group.invariant_factors == (2, 2)
    assert len(enumerate_subgroups(group)) == 5


def test_subgroup_membership_and_pairing_consistency():
    """Pairing through normal forms agrees with the vertex-basis pairing."""
    for g in random_trees(seed=77, count=6):
        basis = dual_cycles(g)
        group = discriminant_group(g, basis)
        rng = random.Random(g.vertex_ids[-1])
        elems = _all_classes(group)
        for _ in range(5):
            a = rng.choice(elems)
            b = rng.choice(elems)
            ra, rb = representative(group, a), representative(group, b)
            direct = dual_pairing(basis, ra, rb)
            assert (direct - linking_pairing(group, a, b)).denominator == 1


# --- dual basis carried through blowups ---------------------------------------------


@given(blowup_histories())
def test_pulled_back_basis_equals_fresh_inversion(history):
    basis = DualBasis(history.initial)
    for k, event in enumerate(history.events):
        basis = pulled_back(history.graph_after(k), event, basis)
    g = history.current
    assert basis.graph == g
    assert basis_matrix(basis) == basis_matrix(DualBasis(g))
    neg = [[-x for x in row] for row in g.intersection_matrix()]
    assert mat_mul(basis_matrix(basis), neg) == identity_matrix(len(g))


@given(blowup_histories())
def test_basis_is_integer_numerators_over_det(history):
    """A fresh and a pulled-back basis both hold integers num over
    den = |det I(E)| = |H| with num (-I) = den Id, and entry() equals the
    Fraction Gauss-Jordan inverse."""
    pulled = [DualBasis(history.initial)]
    for k, event in enumerate(history.events):
        pulled.append(pulled_back(history.graph_after(k), event, pulled[-1]))
    fresh = [DualBasis(b.graph) for b in pulled[1:]]
    for basis in pulled + fresh:
        g = basis.graph
        neg = [[-x for x in row] for row in g.intersection_matrix()]
        assert all(type(x) is int for row in basis.num for x in row)
        assert mat_mul(basis.num, neg) == [
            [basis.den * (i == j) for j in range(len(g))]
            for i in range(len(g))]
        assert basis.den == abs(determinant(g.intersection_matrix()))
        assert basis.den == discriminant_group(g, basis).order
        reference = invert_by_fractions(neg)
        assert [[entry(basis, a, b) for b in g.vertex_ids]
                for a in g.vertex_ids] == reference


def test_pulled_back_rejects_wrong_basis(a2_chain, tree_h12):
    history = GraphHistory(a2_chain)
    event = history.blowup_edge(1, 2)
    with pytest.raises(InternalError, match="not indexed by the pre-event"):
        pulled_back(history.current, event, DualBasis(tree_h12))


def test_discriminant_group_rejects_foreign_basis(a2_chain, tree_h12):
    with pytest.raises(InternalError, match="built on another graph"):
        discriminant_group(a2_chain, dual_cycles(tree_h12))


def test_discriminant_group_checks_basis_denominator(tree_h12):
    """det I(E) is read off the basis's denominator, so a denominator
    other than |H| is an internal error, not a wrong determinant: with
    den = 24 the end block num mod 24 gives prod e_i = 48, not 24."""
    basis = dual_cycles(tree_h12)
    assert discriminant_group(tree_h12, basis).det == 12  # (-1)^10 * 12
    basis.den = 24
    with pytest.raises(InternalError, match=re.escape(
            "end block check prod e_i == |H| failed: 48 != 24")):
        discriminant_group(tree_h12, basis)
