"""The zero-sum search: against a full Hilbert basis, through blowups,
against the one-sided tuple-key search, and at its cap; its classes in
Smith coordinates against the coset construction, and the end block's
presentation of H against -I's and the pairing matrix's."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings, strategies as st

from splicemult import (
    DualBasis,
    InputError,
    InternalError,
    ResolutionGraph,
    ZeroSumSearch,
    discriminant_group,
    enumerate_subgroups,
    full_subgroup,
    gcd_cycle,
    hilbert_basis,
    subgroup,
    trivial_subgroup,
)
from splicemult.graph import BlowupEvent, blowup_edge, blowup_end_point
from splicemult.monomial import _class_steps, _congruences

from conftest import (
    RecordedHistory,
    blowup_histories,
    chain_armed_stars,
    coset_class_steps,
    cycle,
    draw_blowups,
    eager_smith_normal_form,
    dual_pairing,
    end_map_after,
    end_orders,
    expansion,
    exponent_vector,
    fresh_search,
    hermite_congruences,
    monomial,
    multi_node_trees,
    pairing_matrix_congruences,
    pulled_back,
    random_trees,
    row_representatives,
    scan_edge_witness,
    scan_end_witness,
    star,
    tuple_key_least,
)

BOX_LIMIT = 40_000  # points of the reference enumeration per example


def _box_volume(basis, h1):
    """Points in the box that hilbert_basis enumerates for H1."""
    return prod(o + 1 for o in end_orders(h1, basis.graph.ends))


def _fractions(nums, den):
    """Integer numerators over den as Fractions."""
    return tuple(Fraction(x, den) for x in nums)


def _random_subgroup(draw, g):
    n = len(g)
    gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n,
                                  max_size=n), min_size=1, max_size=2))
    return subgroup(gens, discriminant_group(g))


@st.composite
def trees_and_subgroups(draw):
    n = draw(st.integers(2, 8))
    weights = {i: draw(st.sampled_from([-2, -2, -3, -4, -5]))
               for i in range(1, n + 1)}
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    h1 = _random_subgroup(draw, g)
    assume(_box_volume(h1.group.basis, h1) <= BOX_LIMIT)
    return g, h1


@given(trees_and_subgroups())
def test_search_matches_hilbert_basis(case):
    """Z, the edge verdicts and the end verdicts equal those read off the
    full Hilbert basis by the generator scans, and every member the search
    returns is a generator with the coefficients it reports."""
    g, h1 = case
    basis = h1.group.basis
    search = ZeroSumSearch(h1)
    gens = hilbert_basis(g, basis, h1)
    vectors = {exponent_vector(m, search.labels) for m in gens}
    assert search.z() == gcd_cycle(gens)
    z = cycle(g, search.z(), basis.den)

    def generator(found, vertices):
        values, exps = found
        m = monomial(basis, exps)
        assert exponent_vector(m, search.labels) in vectors
        assert _fractions(values, basis.den) == tuple(
            expansion(g, m).coefficient(v) for v in vertices)
        return m

    for v in g.vertex_ids:
        generator(search.least((v,)), (v,))
    for v, w in g.edges:
        found = search.least((v, w))
        m = generator(found, (v, w))
        scanned = scan_edge_witness(gens, z, v, w)
        if _fractions(found[0], basis.den) == (z.coefficient(v),
                                               z.coefficient(w)):
            assert scanned == m
        else:
            assert scanned is None
    for e in g.ends:
        found = search.least((e,), without=e)
        scanned = scan_end_witness(gens, z, e, e)
        m = generator(found, (e,))
        assert m.exponents[e] == 0
        assert scanned == (m if Fraction(found[0][0], basis.den)
                           == z.coefficient(e) else None)


@st.composite
def histories_and_subgroups(draw):
    history = draw(blowup_histories())
    h1 = _random_subgroup(draw, history.initial)
    assume(h1.order <= 500)
    return history, h1


def _everything(search, g, end_map):
    return ([search.least((v,)) for v in g.vertex_ids],
            [search.least(edge) for edge in g.edges],
            [search.least((end_map[l],), without=l) for l in sorted(end_map)])


@given(histories_and_subgroups())
def test_carried_results_equal_fresh_search(case):
    """One search advanced through random edge and end blowups, queried at
    every stage so that later stages reuse earlier results, answers as a
    fresh search on each graph after a fresh tree solve does."""
    history, h1 = case
    search = ZeroSumSearch(h1)
    g = history.initial
    _everything(search, g, {e: e for e in g.ends})
    for k, event in enumerate(history.events):
        post = history.graph_after(k)
        end_map = end_map_after(history, k)
        search.advance(event, history.labels[k])
        fresh = fresh_search(post, h1, end_map)
        assert _everything(search, post, end_map) == \
            _everything(fresh, post, end_map)
        assert search.z() == fresh.z()


def _end_columns(basis, end_map):
    """Each vertex's row of `basis` numerators at the ends of `end_map`,
    in label order."""
    g = basis.graph
    columns = [g.index(end_map[l]) for l in sorted(end_map)]
    return {v: tuple(row[c] for c in columns)
            for v, row in zip(g.vertex_ids, basis.num)}


@given(blowup_histories())
def test_carried_rows_are_the_end_columns_of_the_dual_basis(history):
    """The rows the search carries through edge and end blowups (ids
    with gaps, so new vertices land inside the vertex order) equal the end
    columns of a fresh dual basis and of the O(n^2) pullback of the
    previous basis, after every step, and before the first they are the
    end columns of the group's basis."""
    g = history.initial
    group = discriminant_group(g)
    search = ZeroSumSearch(trivial_subgroup(group))
    assert {v: search.row(v) for v in g.vertex_ids} == _end_columns(
        group.basis, {e: e for e in g.ends})
    pulled = group.basis
    for k, event in enumerate(history.events):
        search.advance(event, history.labels[k])
        post = history.graph_after(k)
        pulled = pulled_back(post, event, pulled)
        end_map = end_map_after(history, k)
        expected = _end_columns(DualBasis(post), end_map)
        assert expected == _end_columns(pulled, end_map)
        assert {v: search.row(v) for v in post.vertex_ids} == expected


def test_advance_refuses_an_event_of_another_graph(tree_h12):
    """An event whose new vertex the search already has, or whose centre
    it does not know, is an internal error, and so is an end blowup whose
    label is not an end of the input or an edge blowup with a label."""
    h1 = trivial_subgroup(discriminant_group(tree_h12))
    search = ZeroSumSearch(h1)
    blown, event = blowup_edge(tree_h12, 1, 5)
    with pytest.raises(InternalError, match=r"edge blowup at \[1, 5\] "
                       "with end label 1"):
        search.advance(event, 1)
    search.advance(event)
    with pytest.raises(InternalError, match="vertex 11 is already"):
        search.advance(event)
    foreign = BlowupEvent(kind="end", center=(20,), new_vertex=30,
                          weight_changes=((20, -2, -3),))
    with pytest.raises(InternalError, match="vertex 20 is not in the graph"):
        search.advance(foreign, 1)
    _, end_event = blowup_end_point(blown, 2)
    for label in (None, 5):
        with pytest.raises(InternalError, match=r"end blowup at \[2\] "
                           f"with end label {label}"):
            search.advance(end_event, label)
    search.advance(end_event, 2)


# --- packed keys against the tuple-key reference ------------------------------


def _queries(g):
    """Every query the pipeline makes on g: each vertex, each edge, and
    each end with its own exponent removed."""
    return ([((v,), None) for v in g.vertex_ids] + [(e, None) for e in g.edges]
            + [((e,), e) for e in g.ends])


def _assert_packed_matches_tuples(g, h1):
    search = ZeroSumSearch(h1)
    for vertices, without in _queries(g):
        assert search.least(vertices, without) == \
            tuple_key_least(search, h1.group.basis, vertices, without)


@st.composite
def wide_trees_and_subgroups(draw):
    """Random trees, or 3-4 arm stars with arm weights down to -19, whose
    |H| often runs into the thousands; H1 is H itself or random."""
    if draw(st.booleans()):
        arms = draw(st.lists(st.integers(2, 19), min_size=3, max_size=4))
        try:
            g = star(draw(st.integers(-3, -1)), [-a for a in arms])
        except InputError:  # not negative definite
            assume(False)
    else:
        n = draw(st.integers(2, 7))
        weights = {i: draw(st.integers(-9, -1)) for i in range(1, n + 1)}
        edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
        try:
            g = ResolutionGraph(weights, edges)
        except InputError:
            assume(False)
    group = discriminant_group(g)
    assume(group.order <= 20_000)
    h1 = (full_subgroup(group) if draw(st.booleans())
          else _random_subgroup(draw, g))
    return g, h1


@settings(max_examples=30)
@given(wide_trees_and_subgroups())
def test_packed_search_matches_tuple_keys(case):
    """The packed-int Dijkstra returns the tuple-key search's least member,
    values and exponents, on every query."""
    _assert_packed_matches_tuples(*case)


@pytest.mark.parametrize("centre, arms", [
    (-2, [7, 11, 13]),      # |H| = 1691
    (-3, [11, 13, 17]),     # |H| = 6742
    (-2, [3, 5, 7, 11]),    # |H| = 1424
])
def test_packed_search_matches_tuple_keys_on_large_quotients(centre, arms):
    """H1 = H with |H1| in the thousands: the longest walks, where packed
    fields come closest to their width."""
    g = star(centre, [-a for a in arms])
    h1 = full_subgroup(discriminant_group(g))
    assert h1.order >= 1000
    _assert_packed_matches_tuples(g, h1)


@pytest.mark.parametrize("a, b", [(2, 50), (3, 300), (7, 11)])
def test_exponent_and_degree_fields_at_their_bound(a, b):
    """The chain (-a, -b) with H1 = H has |H1| = ab - 1 classes, and end 1
    alone steps through all of them: without end 2 the least member is
    z1^(ab - 1), whose exponent and degree are the number of classes,
    close to the bound 2 * |H1| + 2 that sizes their fields."""
    g = ResolutionGraph({1: -a, 2: -b}, [(1, 2)])
    h1 = full_subgroup(discriminant_group(g))
    search = ZeroSumSearch(h1)
    assert len(search._negation) == a * b - 1
    found = search.least((1,), without=2)
    assert found[1] == {1: a * b - 1}
    assert found == tuple_key_least(search, h1.group.basis, (1,), without=2)
    _assert_queries_match_one_sided(search, h1.group.basis, {1: 1, 2: 2})


@pytest.mark.parametrize("tamper, message", [
    (lambda search, best, ceiling: best + search._suffixes[0],
     "not the sum of its steps"),
    (lambda search, best, ceiling: best + (1 << search._field * 4),
     "not the sum of its steps"),
    (lambda search, best, ceiling: best + (1 << 200),
     "not the sum of its steps"),
    (lambda search, best, ceiling: best + search._suffixes[3],
     "used end 4, which it excludes"),
    (lambda search, best, ceiling: ceiling, "not the sum of its steps"),
])
def test_search_checks_its_answer(tree_h12, monkeypatch, tamper, message):
    """An answer that is not the sum of the steps its exponents count (one
    exponent too many, a degree too high, or bits above the top field),
    or that uses the excluded end, is an internal error.  So is a search
    that finds no walk and returns its ceiling: every query has a
    member."""
    h1 = full_subgroup(discriminant_group(tree_h12))
    search = ZeroSumSearch(h1)
    shortest = ZeroSumSearch._shortest
    monkeypatch.setattr(ZeroSumSearch, "_shortest",
                        lambda self, moves, ceiling: tamper(
                            self, shortest(self, moves, ceiling), ceiling))
    with pytest.raises(InternalError, match=message):
        search._searched((4,), 4)


# --- meeting in the middle and reusing the vertex members ---------------------


def _assert_queries_match_one_sided(search, basis, end_map):
    """After z(), every vertex, edge and end query on the graph of `basis`
    equals the one-sided tuple-key search's answer from that basis."""
    g = basis.graph

    def reference(vertices, without=None):
        return tuple_key_least(search, basis, vertices, without, end_map)

    search.z()
    for v in g.vertex_ids:
        assert search.least((v,)) == reference((v,))
    for edge in g.edges:
        assert search.least(edge) == reference(edge)
    for label, v in sorted(end_map.items()):
        assert search.least((v,), label) == reference((v,), label)


@st.composite
def graphs_subgroups_and_blowups(draw):
    """A random tree or a 3-4 arm star; H1 = H, a random H1 or H1 = 0;
    then random edge and end blowups."""
    if draw(st.booleans()):
        arms = draw(st.lists(st.integers(2, 13), min_size=3, max_size=4))
        try:
            g = star(draw(st.integers(-3, -1)), [-a for a in arms])
        except InputError:  # not negative definite
            assume(False)
    else:
        n = draw(st.integers(2, 7))
        weights = {i: draw(st.integers(-7, -1)) for i in range(1, n + 1)}
        edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
        try:
            g = ResolutionGraph(weights, edges)
        except InputError:
            assume(False)
    group = discriminant_group(g)
    make = draw(st.sampled_from([full_subgroup, trivial_subgroup, None]))
    h1 = make(group) if make else _random_subgroup(draw, g)
    assume(h1.order <= 1500)
    return draw_blowups(draw, g), h1


@settings(max_examples=40)
@given(graphs_subgroups_and_blowups())
def test_meet_in_the_middle_matches_one_sided_search(case):
    """The two-sided search and the answers read off the vertex members
    equal the one-sided search on every end and edge query, on the input
    graph and again after each blowup."""
    history, h1 = case
    basis = h1.group.basis
    search = ZeroSumSearch(h1)
    g = history.initial
    _assert_queries_match_one_sided(search, basis, {e: e for e in g.ends})
    for k, event in enumerate(history.events):
        search.advance(event, history.labels[k])
        _assert_queries_match_one_sided(
            search, DualBasis(history.graph_after(k)),
            end_map_after(history, k))


@settings(max_examples=40)
@given(graphs_subgroups_and_blowups())
def test_every_query_has_a_member(case):
    """Every vertex, edge and end query returns a member, on the input
    graph and again after each blowup: a nonempty exponent map without
    the excluded end, whose steps walk from class 0 back to class 0 and
    whose row sums are the values it reports."""
    history, h1 = case
    search = ZeroSumSearch(h1)
    for k, g in enumerate(history.graphs):
        if k:
            search.advance(history.events[k - 1], history.labels[k - 1])
        end_map = end_map_after(history, k - 1)  # k = 0: each end on itself
        queries = ([((v,), None) for v in g.vertex_ids]
                   + [(edge, None) for edge in g.edges]
                   + [((end_map[l],), l) for l in search.labels])
        for vertices, without in queries:
            values, exps = search.least(vertices, without)
            assert exps and without not in exps and min(exps.values()) > 0
            assert _walk(search._steps, exps, exps.values()) == 0
            assert values == tuple(
                sum(a * search.row(v)[search.labels.index(l)]
                    for l, a in exps.items()) for v in vertices)


def _h12_search(tree_h12, gens):
    group = discriminant_group(tree_h12)
    vectors = [[gen.get(v, 0) for v in tree_h12.vertex_ids] for gen in gens]
    return ZeroSumSearch(subgroup(vectors, group))


def test_end_of_residue_zero_is_a_one_step_member(tree_h12):
    """H1 = <E_1*> on h12: end 1 pairs integrally with H1, so its single
    step lands on class 0 and z1 alone is a member; the other ends do
    not."""
    search = _h12_search(tree_h12, [{1: 1}])
    basis = discriminant_group(tree_h12).basis
    assert [search._steps[l][0] == 0 for l in search.labels] == \
        [True, False, False, False]
    assert search.least((1,)) == tuple_key_least(search, basis, (1,))
    assert search.least((1,))[1] == {1: 1}
    _assert_queries_match_one_sided(search, basis,
                                    {e: e for e in tree_h12.ends})


def _reachable(search, labels):
    """The classes the steps of `labels` reach from class 0."""
    seen, frontier = {0}, [0]
    while frontier:
        c = frontier.pop()
        for l in labels:
            n = search._steps[l][c]
            if n not in seen:
                seen.add(n)
                frontier.append(n)
    return seen


def test_remaining_ends_reach_a_proper_subgroup(tree_h12, monkeypatch):
    """A query keeps every end but at most one, and those fill K on every
    graph tried; the meet-in-the-middle Dijkstra must still be right on
    steps that reach a proper subgroup.  Under H1 = H on h12 (12 classes)
    end 3 alone reaches 6, so with the moves cut down to end 3's the
    search never settles half of the classes, negations included, and
    its answer is z3^6."""
    search = _h12_search(tree_h12, [{1: 1}, {3: 1}])
    assert len(search._negation) == 12
    assert len(_reachable(search, [3])) == 6
    shortest = ZeroSumSearch._shortest
    monkeypatch.setattr(
        ZeroSumSearch, "_shortest", lambda self, moves, ceiling: shortest(
            self, [m for m in moves if m[1] is self._steps[3]], ceiling))
    at = search.labels.index(3)
    for vertices in [(3,), (1,), (5,), (5, 6)]:
        assert search._searched(vertices, 1) == (
            tuple(6 * search.row(v)[at] for v in vertices), {3: 6})


def test_universal_abelian_cover_has_one_class(tree_h12, monkeypatch):
    """|H1| = 1: every step lands on class 0, so every least member is a
    single end, read off the rows with no search and no vertex-member
    pass, on the input graph and after end and edge blowups.  The centre
    of star(-3; -3^5) has equal entries at all five ends: the last label's
    step is the least key."""
    for method in ("_shortest", "_searched", "_from_vertex_queries"):
        monkeypatch.setattr(ZeroSumSearch, method, lambda self, *args,
                            method=method: pytest.fail(f"{method} ran"))
    tied = star(-3, [-3] * 5)
    for g in (tree_h12, tied):
        group = discriminant_group(g)
        search = ZeroSumSearch(trivial_subgroup(group))
        assert len(search._negation) == 1
        _assert_queries_match_one_sided(search, group.basis,
                                        {e: e for e in g.ends})
        for v in g.vertex_ids:
            assert sum(search.least((v,))[1].values()) == 1
        if g is tied:
            assert len(set(search.row(1))) == 1
            assert search.least((1,))[1] == {6: 1}
        history = RecordedHistory(g)
        blowups = [("end", 2), ("edge", g.edges[0]), ("end", 3),
                   ("edge", g.edges[-1])]
        for k, (kind, at) in enumerate(blowups):
            if kind == "end":
                history.blowup_end(at)
            else:
                history.blowup_edge(*at)
            search.advance(history.events[k], history.labels[k])
            _assert_queries_match_one_sided(
                search, DualBasis(history.graph_after(k)),
                end_map_after(history, k))


@pytest.mark.parametrize("name", ["star", "h12"])
def test_vertex_members_decide_queries_without_search(name, tree_h12,
                                                      monkeypatch):
    """After z(), an edge query whose answer a vertex member attains, and
    an end query whose vertex member has exponent 0 there, run no
    Dijkstra; every other one runs exactly one, and every answer equals
    the one-sided search's."""
    g = star(-3, [-3] * 5) if name == "star" else tree_h12
    h1 = full_subgroup(discriminant_group(g))
    basis = h1.group.basis
    search = ZeroSumSearch(h1)
    z = cycle(g, search.z(), basis.den)
    members = {v: monomial(basis, search.least((v,))[1])
               for v in g.vertex_ids}
    calls = []
    shortest = ZeroSumSearch._shortest
    monkeypatch.setattr(ZeroSumSearch, "_shortest",
                        lambda self, *args: calls.append(args)
                        or shortest(self, *args))
    decided = 0
    for v, w in g.edges:
        attains = any(all(expansion(g, members[x]).coefficient(y)
                          == z.coefficient(y) for y in (v, w))
                      for x in (v, w))
        before = len(calls)
        assert search.least((v, w)) == tuple_key_least(search, basis, (v, w))
        assert len(calls) - before == (0 if attains else 1)
        decided += attains
    for e in g.ends:
        attains = members[e].exponents[e] == 0
        before = len(calls)
        assert search.least((e,), e) == tuple_key_least(search, basis, (e,),
                                                        e)
        assert len(calls) - before == (0 if attains else 1)
        decided += attains
    assert decided > 0


# --- the classes in Smith coordinates against the coset construction ---------


def _walk(tables, labels, a):
    """The class that a_l steps along each end l lead to from class 0."""
    c = 0
    for l, x in zip(labels, a):
        for _ in range(x):
            c = tables[l][c]
    return c


def _accepts(moduli, residues, a):
    """Whether sum_l a_l r_l is the zero class of prod Z/m_j."""
    return all(sum(x * r[j] for x, r in zip(a, residues)) % m == 0
               for j, m in enumerate(moduli))


def _assert_smith_classes(g, h1, rng):
    """_congruences and _class_steps on all of g's ends against the Hermite
    congruences and the coset construction (conftest), and both against
    the Fraction pairings with H1's nonzero Hermite rows.

    K = prod Z/e_i has |H1| classes, as many as the cosets number; every
    step table moves each digit of a class code by the end's residue and
    is a permutation of range(|K|), and negation negates every digit and
    is an involution.  On the exponent vectors in [0, 2]^ends (or 500 of
    them, seeded), the residues, the reference congruences, walks along
    both kinds of step table and the pairings accept the same vectors."""
    labels = g.ends
    moduli, residues = _congruences(h1)
    size = prod(moduli)
    assert size == h1.order
    tables, negation = _class_steps(dict(zip(labels, residues)), moduli)
    ref_moduli, ref_residues = hermite_congruences(h1, labels)
    ref_tables, ref_negation = coset_class_steps(
        dict(zip(labels, ref_residues)), ref_moduli)
    assert len(ref_negation) == size

    codes = list(itertools.product(*(range(m) for m in reversed(moduli))))

    def code(digits):  # digits most significant first
        c = 0
        for x, m in zip(digits, reversed(moduli)):
            c = c * m + x % m
        return c

    assert [code(x) for x in codes] == list(range(size))
    for l, r in zip(labels, residues):
        step = r[::-1]
        assert tables[l] == [code(map(sum, zip(x, step))) for x in codes]
        assert sorted(tables[l]) == list(range(size))
    assert negation == [code(-d for d in x) for x in codes]
    assert [negation[c] for c in negation] == list(range(size))

    basis = h1.group.basis
    against = [[dual_pairing(basis, {l: 1}, gen) for l in labels]
               for gen in row_representatives(h1)]
    box = list(itertools.product(range(3), repeat=len(labels)))
    if len(box) > 500:
        box = rng.sample(box, 500)
    for a in box:
        integral = all(sum(map(mul, a, row)).denominator == 1
                       for row in against)
        assert _accepts(moduli, residues, a) == integral, (h1.hnf, a)
        assert _accepts(ref_moduli, ref_residues, a) == integral
        assert (_walk(tables, labels, a) == 0) == integral
        assert (_walk(ref_tables, labels, a) == 0) == integral


def test_smith_classes_match_cosets_on_every_subgroup(tree_h12, tree_h60):
    """Every subgroup of h12, h60 and 30 seeded random trees (see
    _assert_smith_classes)."""
    rng = random.Random(25)
    for g in [tree_h12, tree_h60, *random_trees(seed=25, count=30)]:
        for h1 in enumerate_subgroups(discriminant_group(g)):
            _assert_smith_classes(g, h1, rng)


@given(chain_armed_stars())
def test_smith_classes_match_cosets_on_chain_armed_stars(g):
    """Up to 4 subgroups of each star, a seeded sample (see
    _assert_smith_classes)."""
    rng = random.Random(len(g))
    subgroups = enumerate_subgroups(discriminant_group(g))
    for h1 in rng.sample(subgroups, min(4, len(subgroups))):
        _assert_smith_classes(g, h1, rng)


# --- the end block's presentation of H against -I's ------------------------


FACE_LIMIT = 4096  # points of one enumerated face of the box


@given(st.one_of(multi_node_trees(), chain_armed_stars()))
def test_end_block_presents_h_as_minus_i_does(g):
    """H read off the end block against H read off -I.

    The end block's invariant factors are those of the eager Smith form
    of -I (conftest), and for H1 = H the end block's congruences accept
    exactly the exponent vectors that the pairing-matrix congruences
    (conftest.pairing_matrix_congruences) accept, over the box
    [0, ord_i]^ends: all of it when it has at most FACE_LIMIT points;
    otherwise every face spanned by two ends with at most that many
    points, and 1000 seeded samples of the whole box.  Both number
    |H| classes."""
    group = discriminant_group(g)
    _, s, _ = eager_smith_normal_form(
        [[-x for x in row] for row in g.intersection_matrix()])
    assert group.invariant_factors == tuple(
        s[i][i] for i in range(len(g)) if s[i][i] > 1)

    h1 = full_subgroup(group)
    labels = g.ends
    moduli, residues = _congruences(h1)
    ref_moduli, ref_residues = pairing_matrix_congruences(h1, labels)
    assert prod(moduli) == prod(ref_moduli) == group.order
    orders = [lcm(*(m // gcd(m, x) for m, x in zip(moduli, r)))
              for r in residues]
    assert orders == [lcm(*(m // gcd(m, x) for m, x in zip(ref_moduli, r)))
                      for r in ref_residues]
    ranges = [range(o + 1) for o in orders]
    if prod(map(len, ranges)) <= FACE_LIMIT:
        box = list(itertools.product(*ranges))
    else:
        rng = random.Random(group.order)
        box = [tuple(rng.choice(r) for r in ranges) for _ in range(1000)]
        k = len(labels)
        for i, j in itertools.combinations(range(k), 2):
            if len(ranges[i]) * len(ranges[j]) <= FACE_LIMIT:
                box += [tuple(x if m == i else y if m == j else 0
                              for m in range(k))
                        for x in ranges[i] for y in ranges[j]]
    for a in box:
        assert (_accepts(moduli, residues, a)
                == _accepts(ref_moduli, ref_residues, a)), a
