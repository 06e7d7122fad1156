"""The zero-sum search: against a full Hilbert basis, through blowups, and
at its cap."""

from math import lcm

from hypothesis import assume, given, strategies as st

from splicemult import (
    DualBasis,
    InputError,
    ResolutionGraph,
    ZeroSumSearch,
    discriminant_group,
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
