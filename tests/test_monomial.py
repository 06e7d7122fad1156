"""Monomial condition, base points, Hilbert bases, gcd cycles, skeletons."""

from fractions import Fraction
from math import lcm, prod

import pytest
from hypothesis import assume, example, given, strategies as st

from splicemult import (
    MonomialCycle,
    base_point_set,
    branches,
    discriminant_group,
    dual_cycles,
    full_subgroup,
    gcd_cycle,
    hilbert_basis,
    monomial_condition,
    neumann_wahl_system,
    subgroup,
    trivial_subgroup,
)
from splicemult.errors import CapExceededError, ConditionError, InternalError
import splicemult.monomial as monomial
from splicemult.monomial import (
    _exact_solutions,
    _representable,
    _skeleton_choice,
    admissible_monomials,
)

from conftest import (
    H12_DUAL_ROWS,
    QCycle,
    admissible_monomials_by_fractions,
    dual_cycle,
    entry,
    expansion,
    exponent_vector,
    knapsack_by_enumeration,
    knapsack_by_recursion,
    multi_node_trees,
    perp_member,
    star,
)


def _check_against_reference(g, basis):
    """Every pair's witnesses, as a set of (exponents, expansion), and its
    verdict equal the reference's; returns the yielded witnesses by
    (node, sorted branch)."""
    found = {}
    for node in g.nodes:
        for branch in branches(g, node):
            got = list(admissible_monomials(g, basis, node, branch))
            ref = admissible_monomials_by_fractions(g, basis, node, branch)
            assert len(got) == len(ref)
            assert {tuple(sorted(m.exponents.items())): expansion(g, m)
                    for m in got} == \
                {tuple(sorted(exps.items())): d for exps, d in ref}
            found[(node, tuple(sorted(branch)))] = got
    assert monomial_condition(g, basis) == [
        key for key, got in found.items() if not got]
    return found


# --- coefficient extraction ---------------------------------------------------


def test_coefficient_h12(tree_h12):
    basis = dual_cycles(tree_h12)
    assert dual_cycle(basis, 1).coefficient(5) == 1
    assert dual_cycle(basis, 3).coefficient(8) == 5
    assert QCycle.zero(tree_h12).coefficient(7) == 0
    with pytest.raises(InternalError, match="vertex 99 is not in the graph"):
        QCycle.zero(tree_h12).coefficient(99)


# --- monomial condition ----------------------------------------------------------


def test_monomial_condition_h12(tree_h12):
    basis = dual_cycles(tree_h12)
    assert monomial_condition(tree_h12, basis) == []
    found = _check_against_reference(tree_h12, basis)
    strings = {key: {m.monomial_string() for m in ws}
               for key, ws in found.items()}
    assert strings[(5, (1,))] == {"z1^2"}
    assert strings[(5, (2,))] == {"z2^2"}
    assert strings[(5, (3, 4, 6, 7, 8, 9, 10))] == {"z3*z4"}
    assert strings[(8, (3, 9))] == {"z3^3"}
    assert strings[(8, (4, 10))] == {"z4^3"}
    # five incomparable minimal witnesses on the branch through both ends,
    # yielded in lexicographic order of their exponents
    assert [m.monomial_string() for m in found[(8, (1, 2, 5, 6, 7))]] == [
        "z1*z2^9", "z1^3*z2^7", "z1^5*z2^5", "z1^7*z2^3", "z1^9*z2"]


def test_monomial_condition_witnesses_satisfy_definition(tree_h12, tree_h60):
    for g in (tree_h12, tree_h60):
        basis = dual_cycles(g)
        found = _check_against_reference(g, basis)
        for (node, branch), witnesses in found.items():
            node_dual = dual_cycle(basis, node)
            for witness in witnesses:
                diff = expansion(g, witness) - node_dual
                assert diff.is_integral() and diff.is_effective()
                assert all(diff.coefficient(v) == 0
                           for v in g.vertex_ids if v not in branch)
                # exponents vanish away from the branch
                assert all(a == 0 for e, a in witness.exponents.items()
                           if e not in branch)


def test_monomial_condition_vacuous_for_chain(a2_chain):
    basis = dual_cycles(a2_chain)
    assert monomial_condition(a2_chain, basis) == []
    assert _check_against_reference(a2_chain, basis) == {}


def test_knapsack_cap_names_cap_and_branch(tree_h12, monkeypatch):
    """The splice equations read every witness, so their search runs to
    the end of each pair and trips a small cap at the first pair whose
    full search exceeds it."""
    monkeypatch.setattr(monomial, "SEARCH_CAP", 3)
    with pytest.raises(CapExceededError, match=(
            r"^knapsack search bound exceeded: more than 3 nodes "
            r"\(SEARCH_CAP\) at node 5, branch \[3, 4, 6, 7, 8, 9, 10\]$")):
        neumann_wahl_system(tree_h12, dual_cycles(tree_h12))


def test_decision_counts_nodes_up_to_the_first_witness(monkeypatch):
    """At node 5 the branch through the centre has ten knapsack nodes;
    the decision stops at the first witness, within a cap of 8, where the
    splice equations, which read every witness, exceed it."""
    from splicemult import ResolutionGraph

    g = ResolutionGraph({1: -3, 2: -4, 3: -3, 4: -3, 5: -4, 6: -2, 7: -2},
                        [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6), (5, 7)])
    basis = dual_cycles(g)
    monkeypatch.setattr(monomial, "SEARCH_CAP", 8)
    assert monomial_condition(g, basis) == []
    with pytest.raises(CapExceededError, match=(
            r"^knapsack search bound exceeded: more than 8 nodes "
            r"\(SEARCH_CAP\) at node 5, branch \[1, 2, 3, 4\]$")):
        neumann_wahl_system(g, basis)


def test_monomial_condition_failure(monomial_fail_graph):
    basis = dual_cycles(monomial_fail_graph)
    assert monomial_condition(monomial_fail_graph, basis) == [(5, (3, 4, 6))]
    found = _check_against_reference(monomial_fail_graph, basis)
    assert found[(5, (3, 4, 6))] == []
    with pytest.raises(ConditionError, match=(
            r"^monomial condition fails at: node 5 branch \[3, 4, 6\]$")):
        monomial.require_monomial_condition(monomial_fail_graph, basis)


def _reference_sized(g, basis):
    """The reference enumerates every prefix of each node's knapsack
    equation; keep it small."""
    return all(prod(entry(basis, node, node) // entry(basis, node, e) + 1
                    for e in sorted(e for e in g.ends if e in branch)[:-1])
               <= 20000
               for node in g.nodes for branch in branches(g, node))


@given(multi_node_trees())
def test_monomial_condition_matches_fraction_reference(g):
    """Per pair, the set of yielded witnesses (exponents and expansions)
    and the verdict equal those of the QCycle computation over an unpruned
    knapsack, and the witnesses come in lexicographic exponent order."""
    basis = dual_cycles(g)
    assume(_reference_sized(g, basis))
    for (node, branch), witnesses in _check_against_reference(
            g, basis).items():
        ends = sorted(e for e in g.ends if e in branch)
        vectors = [exponent_vector(m, ends) for m in witnesses]
        assert vectors == sorted(vectors)


@given(multi_node_trees())
def test_splice_equations_pick_the_reference_choice(g):
    """neumann_wahl_system picks, per pair, what _skeleton_choice picks
    over the reference's witness list."""
    basis = dual_cycles(g)
    assume(_reference_sized(g, basis))
    expected = {}
    for node in g.nodes:
        for branch in branches(g, node):
            ref = admissible_monomials_by_fractions(g, basis, node, branch)
            expected[(node, tuple(sorted(branch)))] = _skeleton_choice(
                [MonomialCycle(exps, [int(c * basis.den) for c in d.coeffs],
                               basis.den) for exps, d in ref])
    if any(m is None for m in expected.values()):
        with pytest.raises(ConditionError):
            neumann_wahl_system(g, basis)
        return
    got = {(s.node, branch): m for s in neumann_wahl_system(g, basis)
           for branch, m in zip(s.branches, s.monomials)}
    assert got == expected


@given(multi_node_trees())
def test_end_integral_solutions_are_witnesses(g):
    """For every solution D of a node's knapsack equation with D - E_node*
    integral at the branch's ends, D - E_node* is effective, integral and
    zero off the branch: the lemma behind testing the ends first."""
    basis = dual_cycles(g)
    assume(_reference_sized(g, basis))

    def scaled(a, b):  # |H| * (E_a*)_b, an integer
        return basis.num[g.index(a)][g.index(b)]

    for node in g.nodes:
        node_dual = dual_cycle(basis, node)
        for branch in branches(g, node):
            ends = sorted(e for e in g.ends if e in branch)
            for combo in list(_exact_solutions(
                    scaled(node, node),
                    [scaled(node, e) for e in ends], "test")):
                if any((sum(a * entry(basis, e, i)
                            for a, i in zip(combo, ends))
                        - entry(basis, e, node)).denominator != 1
                       for e in ends):
                    continue
                diff = sum((a * dual_cycle(basis, i)
                            for a, i in zip(combo, ends)),
                           QCycle.zero(g)) - node_dual
                assert diff.is_integral() and diff.is_effective()
                assert all(diff.coefficient(v) == 0
                           for v in g.vertex_ids if v not in branch)


def test_monomial_cycle_expansion_is_sum_of_duals(tree_h60):
    """Each generator of a Hilbert basis carries |H| * sum_i a_i E_i*."""
    g = tree_h60
    basis = dual_cycles(g)
    group = discriminant_group(g, basis)
    hb = hilbert_basis(g, basis, subgroup([{1: 1}, {5: 2}], group))
    assert len(hb) > len(g.ends)
    for m in hb:
        assert m.den == basis.den
        assert expansion(g, m) == sum((a * dual_cycle(basis, e)
                                       for e, a in m.exponents.items()),
                                      QCycle.zero(g))


@st.composite
def _knapsacks(draw):
    """Positive weights (some with denominators, some sharing factors) and a
    target near a small combination of them, with a bounded search space."""
    weights = draw(st.lists(
        st.builds(Fraction, st.sampled_from([1, 2, 3, 4, 6, 9, 10, 12, 15, 35]),
                  st.sampled_from([1, 1, 2, 3])), max_size=5))
    target = sum(draw(st.integers(0, 3)) * w for w in weights)
    target += Fraction(draw(st.integers(0, 2)), draw(st.sampled_from([1, 2])))
    assume(prod(target / w + 1 for w in weights) <= 20000)
    return weights, target


@given(_knapsacks())
def test_pruned_knapsack_matches_enumeration(instance):
    """On the instance scaled to integers by the lcm of its denominators,
    the search yields the unpruned enumeration's solutions, in order."""
    weights, target = instance
    den = lcm(target.denominator, *(w.denominator for w in weights))
    assert list(_exact_solutions(int(target * den),
                                 [int(w * den) for w in weights], "test")) \
        == knapsack_by_enumeration(target, weights)


@st.composite
def _integer_knapsacks(draw):
    """Positive integer weights, many sharing factors, and a target, with
    the unpruned search space bounded."""
    weights = draw(st.lists(st.one_of(
        st.sampled_from([2, 3, 4, 6, 9, 10, 12, 14, 15, 21, 35]),
        st.integers(1, 60)), max_size=5))
    target = draw(st.integers(0, 300))
    assume(prod(target // w + 1 for w in weights[:-1]) <= 20000)
    return weights, target


@given(_integer_knapsacks())
def test_flat_knapsack_matches_recursion_and_its_node_count(instance):
    """The flat search returns the recursion's solutions, and trips the cap
    exactly when the recursion makes more than SEARCH_CAP calls."""
    weights, target = instance
    expected, count = knapsack_by_recursion(target, weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monomial, "SEARCH_CAP", count)
        assert list(_exact_solutions(target, weights, "test")) == expected
        if count:
            mp.setattr(monomial, "SEARCH_CAP", count - 1)
            with pytest.raises(CapExceededError, match=(
                    rf"^knapsack search bound exceeded: more than "
                    rf"{count - 1} nodes \(SEARCH_CAP\) at test$")):
                list(_exact_solutions(target, weights, "test"))


@given(_integer_knapsacks())
def test_first_knapsack_solution_stays_within_the_full_count(instance):
    """With SEARCH_CAP at the recursion's full node count, taking only the
    first solution never trips the cap and gives the recursion's first."""
    weights, target = instance
    expected, count = knapsack_by_recursion(target, weights)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(monomial, "SEARCH_CAP", count)
        assert next(_exact_solutions(target, weights, "test"), None) == \
            (expected[0] if expected else None)


# --- base points ------------------------------------------------------------------


def _representable_oracle(target, weights):
    """Plain recursive search, independent of the bitset DP."""
    if target == 0:
        return True
    if not weights or target < 0:
        return False
    w, rest = weights[0], weights[1:]
    k = 0
    while k * w <= target:
        if _representable_oracle(target - k * w, rest):
            return True
        k += 1
    return False


@given(st.integers(0, 40), st.lists(st.integers(1, 60), max_size=3),
       st.integers(1, 5), st.booleans())
@example(0, [3], 1, False)
@example(7, [9, 20], 1, False)
@example(4, [2], 1, False)
@example(13, [4, 6], 2, True)
def test_representable_matches_oracle(t, weights, common, repeat):
    """The doubling-shift bitset against the plain recursive search:
    targets from 0, weights above the target, a repeated weight and a
    common factor of target and weights."""
    if repeat and weights:
        weights = weights + weights[:1]
    t, weights = common * t, [common * w for w in weights]
    assert _representable(t, weights) == _representable_oracle(t, weights)


def test_base_points_h12(tree_h12):
    assert base_point_set(tree_h12, dual_cycles(tree_h12)) == {3, 4}


def test_base_points_h60(tree_h60):
    base = base_point_set(tree_h60, dual_cycles(tree_h60))
    assert 1 not in base
    assert base == {3, 4}


def test_base_points_chain(a2_chain):
    assert base_point_set(a2_chain, dual_cycles(a2_chain)) == frozenset()


def test_base_points_match_oracle(all_test_graphs):
    for g in all_test_graphs:
        basis = dual_cycles(g)
        computed = base_point_set(g, basis)
        for i in g.ends:
            target = entry(basis, i, i)
            weights = [entry(basis, i, j) for j in g.ends if j != i]
            assert (i in computed) == (not _representable_oracle(target, weights))


def test_base_points_invariant_under_relabeling(tree_h12):
    relabel = {1: 40, 2: 17, 3: 25, 4: 33, 5: 50, 6: 60, 7: 7, 8: 80,
               9: 9, 10: 100}
    g = tree_h12
    g2 = type(g)({relabel[v]: g.weight(v) for v in g.vertex_ids},
                 [(relabel[a], relabel[b]) for a, b in g.edges])
    base = base_point_set(g2, dual_cycles(g2))
    assert base == {relabel[3], relabel[4]}


# --- Hilbert bases -----------------------------------------------------------------


def test_hilbert_basis_trivial_subgroup(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    hb = hilbert_basis(tree_h12, basis, trivial_subgroup(group))
    vectors = {exponent_vector(m, (1, 2, 3, 4)) for m in hb}
    assert vectors == {(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)}


def test_hilbert_basis_chain_full_group(a2_chain):
    basis = dual_cycles(a2_chain)
    group = discriminant_group(a2_chain, basis)
    full = subgroup([{1: 1}, {2: 1}], group)
    hb = hilbert_basis(a2_chain, basis, full)
    vectors = {exponent_vector(m, (1, 2)) for m in hb}
    assert vectors == {(1, 1), (3, 0), (0, 3)}


def test_hilbert_basis_h12_e1(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    hb = hilbert_basis(tree_h12, basis, subgroup([{1: 1}], group))
    vectors = {exponent_vector(m, (1, 2, 3, 4)) for m in hb}
    assert vectors == {(1, 0, 0, 0), (0, 2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2),
                       (0, 1, 1, 0), (0, 1, 0, 1), (0, 0, 1, 1)}
    # graded-lexicographic output order
    keys = [(sum(m.exponents.values()), exponent_vector(m, (1, 2, 3, 4)))
            for m in hb]
    assert keys == sorted(keys)


def test_hilbert_basis_members_pass_perp(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    for gens in ([{1: 1}], [{3: 1}], [{3: 2}], [{1: 1, 3: 3}]):
        h1 = subgroup(gens, group)
        hb = hilbert_basis(tree_h12, basis, h1)
        for m in hb:
            coords = {v: m.exponents.get(v, 0) for v in tree_h12.ends}
            assert perp_member(coords, h1)
        # ord_i * e_i is always a member
        for label, order in zip(hb.labels, hb.orders):
            assert perp_member({label: order}, h1)


def test_hilbert_basis_generates_monoid(tree_h12):
    """Every member of the ord-bounded box decomposes as a nonnegative
    integer combination of the returned generators."""
    import itertools

    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    h1 = subgroup([{1: 1}], group)
    hb = hilbert_basis(tree_h12, basis, h1)
    gens = [exponent_vector(m, hb.labels) for m in hb]

    def decomposes(vec):
        if not any(vec):
            return True
        for gvec in gens:
            if all(a <= b for a, b in zip(gvec, vec)):
                if decomposes(tuple(b - a for a, b in zip(gvec, vec))):
                    return True
        return False

    for vec in itertools.product(*(range(o + 1) for o in hb.orders)):
        coords = {l: a for l, a in zip(hb.labels, vec)}
        if perp_member(coords, h1):
            assert decomposes(vec)


def test_hilbert_basis_box_cap():
    """The quotient of star(-2; -5,-7,-11): each end pairs with H = Z/603
    with order 603, so the box holds 604^3 = 220,348,864 points, over the
    fixed cap; the check comes before any enumeration."""
    g = star(-2, [-5, -7, -11])
    basis = dual_cycles(g)
    h1 = full_subgroup(discriminant_group(g, basis))
    with pytest.raises(CapExceededError,
                       match="enumeration box volume 220348864 exceeds "
                             "the cap 100000000"):
        hilbert_basis(g, basis, h1)


def test_hilbert_basis_oracle_small(tree_h12, a2_chain):
    from conftest import hilbert_oracle

    for g, gens in ((a2_chain, [{1: 1}, {2: 1}]), (tree_h12, [{1: 1}]),
                    (tree_h12, [{3: 2}])):
        basis = dual_cycles(g)
        group = discriminant_group(g, basis)
        h1 = subgroup(gens, group)
        hb = hilbert_basis(g, basis, h1)
        assert {exponent_vector(m, g.ends) for m in hb} == \
            hilbert_oracle(g, basis, h1)


# --- gcd cycle ---------------------------------------------------------------------


def test_gcd_cycle_h12_rows(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    z0 = gcd_cycle(hilbert_basis(tree_h12, basis, trivial_subgroup(group)))
    assert z0 == tuple(6 * x for x in H12_DUAL_ROWS[5])
    z1 = gcd_cycle(hilbert_basis(tree_h12, basis, subgroup([{1: 1}], group)))
    assert z1 == tuple(12 * x for x in H12_DUAL_ROWS[1])


def test_gcd_cycle_single_generator(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    hb = hilbert_basis(tree_h12, basis, trivial_subgroup(group))
    assert gcd_cycle([hb[0]]) == hb[0].num


def test_gcd_cycle_bounds(all_test_graphs):
    for g in all_test_graphs:
        basis = dual_cycles(g)
        group = discriminant_group(g, basis)
        hb = hilbert_basis(g, basis, trivial_subgroup(group))
        z = gcd_cycle(hb)
        assert len(z) == len(g)
        for i, v in enumerate(g.vertex_ids):
            values = [m.num[i] for m in hb]
            assert all(z[i] <= val for val in values)
            assert z[i] in values


def test_gcd_cycle_empty():
    with pytest.raises(InternalError, match="gcd of an empty generator set"):
        gcd_cycle([])


# --- Neumann-Wahl skeletons ------------------------------------------------------


def test_nw_system_h12(tree_h12):
    systems = neumann_wahl_system(tree_h12, dual_cycles(tree_h12))
    by_node = {s.node: s for s in systems}
    assert {m.monomial_string() for m in by_node[5].monomials} == \
        {"z1^2", "z2^2", "z3*z4"}
    assert {m.monomial_string() for m in by_node[8].monomials} == \
        {"z3^3", "z4^3", "z1^5*z2^5"}
    for s in systems:
        assert s.coefficients == ((1, 1, 1),)


def test_nw_system_h60(tree_h60):
    systems = neumann_wahl_system(tree_h60, dual_cycles(tree_h60))
    by_node = {s.node: s for s in systems}
    assert {m.monomial_string() for m in by_node[5].monomials} == \
        {"z1^3", "z2^2", "z3*z4"}


def test_nw_system_chain_empty(a2_chain):
    assert neumann_wahl_system(a2_chain, dual_cycles(a2_chain)) == []


def test_nw_system_rejects_failing_graph(monomial_fail_graph):
    with pytest.raises(ConditionError, match="monomial condition fails at: "
                                             "node"):
        neumann_wahl_system(monomial_fail_graph,
                            dual_cycles(monomial_fail_graph))


def test_nw_vandermonde_rows():
    """A node of valence 4 gets two equations with Vandermonde coefficients."""
    from splicemult import ResolutionGraph

    g = ResolutionGraph({1: -2, 2: -2, 3: -2, 4: -2, 5: -3},
                        [(5, 1), (5, 2), (5, 3), (5, 4)])
    systems = neumann_wahl_system(g, dual_cycles(g))
    quad = next(s for s in systems if len(s.branches) == 4)
    assert quad.coefficients == ((1, 1, 1, 1), (1, 2, 3, 4))
    assert [m.monomial_string() for m in quad.monomials] == \
        ["z1^2", "z2^2", "z3^2", "z4^2"]
    assert quad.equations() == [
        "z1^2 + z2^2 + z3^2 + z4^2",
        "z1^2 + 2*z2^2 + 3*z3^2 + 4*z4^2"]
