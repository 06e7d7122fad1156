"""Multiplicities against formulas that share none of the pipeline's
algebra: Neumann's for Brieskorn complete intersections and Artin's for
rational singularities, in both pipeline modes."""

from hypothesis import assume, given, strategies as st

from splicemult import (
    InputError,
    PipelineConfig,
    ResolutionGraph,
    discriminant_group,
    dual_cycles,
    monomial_condition,
    multiplicity_of_quotient,
    run_pipeline,
    trivial_subgroup,
)

from conftest import laufer_z_min, star

MODES = (PipelineConfig(), PipelineConfig(mode="strict"))


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
    for config in MODES:
        assert run_pipeline(g, h1, config).multiplicity == expected


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
    for config in MODES:
        assert multiplicity_of_quotient(g, config).multiplicity == expected
