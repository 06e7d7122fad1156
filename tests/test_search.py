"""The zero-sum search: against a full Hilbert basis, through blowups, and
at its cap."""

from math import lcm

import pytest
from hypothesis import assume, given, settings, strategies as st

from splicemult import (
    DualBasis,
    InputError,
    InternalError,
    ResolutionGraph,
    ZeroSumSearch,
    discriminant_group,
    full_subgroup,
    gcd_cycle,
    hilbert_basis,
    monomial_cycle,
    subgroup,
)

from conftest import (
    blowup_histories,
    end_map_after,
    scan_edge_witness,
    scan_end_witness,
    star,
    tuple_key_least,
)

BOX_LIMIT = 40_000  # points of the reference enumeration per example


def _box_volume(basis, h1):
    """Points in the box that hilbert_basis enumerates for H1."""
    volume = 1
    for e in basis.graph.ends:
        order = lcm(*(basis.pairing({e: 1}, gen).denominator
                      for gen in h1.generators))
        volume *= order + 1
    return volume


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
    search = ZeroSumSearch(basis, h1)
    gens = hilbert_basis(g, basis, h1)
    vectors = {m.exponent_vector(search.labels) for m in gens}
    z = search.z()
    assert z == gcd_cycle(gens)

    def generator(found, vertices):
        values, exps = found
        m = monomial_cycle(basis, exps)
        assert m.exponent_vector(search.labels) in vectors
        assert values == tuple(m.expansion.coefficient(v) for v in vertices)
        return m

    for v in g.vertex_ids:
        generator(search.least((v,)), (v,))
    for v, w in g.edges:
        found = search.least((v, w))
        m = generator(found, (v, w))
        scanned = scan_edge_witness(gens, z, v, w)
        if found[0] == (z.coefficient(v), z.coefficient(w)):
            assert scanned == m
        else:
            assert scanned is None
    for e in g.ends:
        found = search.least((e,), without=e)
        scanned = scan_end_witness(gens, z, e, e)
        if found is None:
            assert scanned is None
            continue
        m = generator(found, (e,))
        assert m.exponents[e] == 0
        assert scanned == (m if found[0][0] == z.coefficient(e) else None)


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
    fresh search on each graph after a fresh inversion does."""
    history, h1 = case
    basis = h1.group.basis
    search = ZeroSumSearch(basis, h1)
    g = history.initial
    _everything(search, g, {e: e for e in g.ends})
    for k, event in enumerate(history.events):
        basis = DualBasis.pulled_back(history, event, basis)
        post = history.graph_after(k)
        end_map = end_map_after(history, k)
        search.advance(basis, end_map)
        fresh = ZeroSumSearch(DualBasis(post), h1, end_map)
        assert _everything(search, post, end_map) == \
            _everything(fresh, post, end_map)
        assert search.z() == fresh.z()


# --- packed keys against the tuple-key reference ------------------------------


def _queries(g):
    """Every query the pipeline makes on g: each vertex, each edge, and
    each end with its own exponent removed."""
    return ([((v,), None) for v in g.vertex_ids] + [(e, None) for e in g.edges]
            + [((e,), e) for e in g.ends])


def _assert_packed_matches_tuples(g, h1):
    search = ZeroSumSearch(h1.group.basis, h1)
    for vertices, without in _queries(g):
        assert search.least(vertices, without) == \
            tuple_key_least(search, vertices, without)


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


def test_search_checks_basis_denominator(tree_h12):
    """The search reads |H| * M_v(E_i*) straight from `num`, which needs
    den = |H| on every basis it is given."""
    h1 = full_subgroup(discriminant_group(tree_h12))
    search = ZeroSumSearch(h1.group.basis, h1)
    wrong = DualBasis(tree_h12)
    wrong.den = 6
    with pytest.raises(InternalError, match="denominator 6 != .H. = 12"):
        search.advance(wrong, {e: e for e in tree_h12.ends})
    with pytest.raises(InternalError, match="denominator 6 != .H. = 12"):
        ZeroSumSearch(wrong, h1)
