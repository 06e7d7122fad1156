"""Multiplicities against formulas that share none of the pipeline's
algebra: Neumann's for Brieskorn complete intersections and Artin's for
rational singularities; and the stopping rule checked on every run over
stars."""

from hypothesis import assume, given, strategies as st

from splicemult import (
    InputError,
    ResolutionGraph,
    discriminant_group,
    dual_cycles,
    full_subgroup,
    monomial_condition,
    multiplicity_of_quotient,
    run_pipeline,
    trivial_subgroup,
)

from conftest import assert_resolved, laufer_z_min, star


@st.composite
def brieskorn_stars(draw):
    """Stars with 3-5 single-vertex arms of weight -alpha_i, alpha_i in
    2..7, and a centre of weight -3..-1."""
    alphas = draw(st.lists(st.integers(2, 7), min_size=3, max_size=5))
    try:
        g = star(draw(st.integers(-3, -1)), [-a for a in alphas])
    except InputError:  # not negative definite
        assume(False)
    return g, alphas


@given(brieskorn_stars())
def test_uac_of_star_is_brieskorn(case):
    """Neumann 1983: the universal abelian cover of a star with Seifert
    invariants alpha_i is V(alpha_1..alpha_n), whose multiplicity is the
    product of the n-2 smallest alpha_i."""
    g, alphas = case
    expected = 1
    for a in sorted(alphas)[:-2]:
        expected *= a
    h1 = trivial_subgroup(discriminant_group(g))
    assert run_pipeline(g, h1).multiplicity == expected


@given(brieskorn_stars())
def test_star_runs_stop_resolved(case):
    """On stars with |H| <= 3000, the universal abelian cover and the
    quotient both stop on a graph where every end has a witness or is not
    a base point and every edge has a witness or Z.E = 0."""
    g, _ = case
    group = discriminant_group(g)
    assume(group.order <= 3000)
    for h1 in (trivial_subgroup(group), full_subgroup(group)):
        assert_resolved(run_pipeline(g, h1), h1)


@st.composite
def rational_trees(draw):
    """Random trees with weights -2..-4 whose Laufer sequence ends in a
    cycle of arithmetic genus 0, i.e. rational graphs."""
    n = draw(st.integers(2, 8))
    weights = {i: draw(st.sampled_from([-2, -2, -2, -3, -3, -4]))
               for i in range(1, n + 1)}
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    _, zz, genus = laufer_z_min(g)
    assume(genus == 0)
    assume(monomial_condition(g, dual_cycles(g)).satisfied)
    return g, -zz


@given(rational_trees())
def test_rational_quotient_is_minus_z_min_squared(case):
    """Artin: a rational singularity has multiplicity -Z_min^2, with Z_min
    from Laufer's algorithm; H1 = H gives the singularity itself."""
    g, expected = case
    assert multiplicity_of_quotient(g).multiplicity == expected
