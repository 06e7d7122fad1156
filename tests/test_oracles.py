"""Multiplicities against formulas that share none of the pipeline's
algebra: Neumann's for Brieskorn complete intersections and Artin's for
rational singularities; and the stopping rule checked on every run over
stars."""

from itertools import permutations
from math import prod

import pytest
from hypothesis import assume, given, strategies as st

from splicemult import (
    InputError,
    ResolutionGraph,
    discriminant_group,
    dual_cycles,
    enumerate_subgroups,
    full_subgroup,
    monomial_condition,
    run_pipeline,
    trivial_subgroup,
)
from splicemult.lattice import _lattice_contains

from conftest import (
    assert_resolved,
    chain_armed_stars,
    chain_star,
    laufer_z_min,
    pinkham_demazure_z,
    quotient,
    round_z,
    seifert_invariants,
    star,
    star_arms,
)


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


@given(chain_armed_stars())
def test_uac_of_chain_armed_star_is_brieskorn(g):
    """Neumann 1983 on stars with chain arms: alpha_i is the determinant
    of arm i's chain, the universal abelian cover is V(alpha_1..alpha_n),
    and its multiplicity is the product of the n-2 smallest alpha_i."""
    _, arms = star_arms(g)
    alphas = sorted(seifert_invariants([g.weight(v) for v in arm])[0]
                    for arm in arms)
    h1 = trivial_subgroup(discriminant_group(g))
    assert run_pipeline(g, h1).multiplicity == prod(alphas[:-2])


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
    assume(not monomial_condition(g, dual_cycles(g)))
    return g, -zz


@given(rational_trees())
def test_rational_quotient_is_minus_z_min_squared(case):
    """Artin: a rational singularity has multiplicity -Z_min^2, with Z_min
    from Laufer's algorithm; H1 = H gives the singularity itself."""
    g, expected = case
    assert quotient(g).multiplicity == expected


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "the end rule settles an end with no witness as not a base point "
    "whenever base_point_set says so, which ignores H1; the quotient "
    "then stops one round early and answers 1"))
def test_quotient_of_minimally_elliptic_star_is_two():
    """Laufer 1977: star(-2; -2,-2,-2,-3) is minimally elliptic with
    Z_min^2 = -1, so the singularity (H1 = H) has multiplicity
    max(2, -Z_min^2) = 2.  A multiplicity of 1 would be a smooth point,
    whose minimal resolution is empty."""
    g = star(-2, [-2, -2, -2, -3])
    _, zz, genus = laufer_z_min(g)
    assert (zz, genus) == (-1, 1)
    assert quotient(g).multiplicity == 2


@given(chain_armed_stars())
def test_quotient_z_of_a_star_is_pinkham_demazure(g):
    """Pinkham and Demazure: on a star with chain arms the invariant
    monomials of H1 = H attain the maximal ideal cycle Z_max of the graded
    ring, so round 1's Z is Z_max at every vertex."""
    assume(not monomial_condition(g, dual_cycles(g)))
    z = round_z(quotient(g).rounds[0])
    assert dict(zip(g.vertex_ids, z.coeffs)) == pinkham_demazure_z(g)


def test_pinkham_demazure_on_e8():
    """E8 (a -2 centre with chains of -2 curves of lengths 1, 2 and 4) is
    rational, so Z_max = Z_min, with 6 at the centre."""
    g = chain_star(-2, [[-2], [-2, -2], [-2, -2, -2, -2]])
    z_min, zz, genus = laufer_z_min(g)
    assert (zz, genus) == (-2, 0)
    assert pinkham_demazure_z(g) == z_min
    assert z_min[1] == 6


@st.composite
def trees_with_small_groups(draw):
    """Random trees with weights -2..-4 (so minimal), |H| <= 200 and the
    monomial condition holding."""
    n = draw(st.integers(2, 7))
    weights = {i: draw(st.sampled_from([-2, -2, -2, -3, -3, -4]))
               for i in range(1, n + 1)}
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    assume(discriminant_group(g).order <= 200)
    assume(not monomial_condition(g, dual_cycles(g)))
    return g


@given(trees_with_small_groups())
def test_cover_multiplicity_is_bounded_by_the_degree(g):
    """For H1 < H2 the map X_{H1} -> X_{H2} is finite of degree [H2 : H1],
    so mult(X_{H1}) <= [H2 : H1] * mult(X_{H2}), on every containment pair
    of the subgroup lattice."""
    subs = list(enumerate_subgroups(discriminant_group(g)))
    runs = [(h, run_pipeline(g, h).multiplicity) for h in subs]
    for (h1, m1), (h2, m2) in permutations(runs, 2):
        if h1.order < h2.order and all(_lattice_contains(h2.hnf, row)
                                       for row in h1.hnf):
            assert m1 <= h2.order // h1.order * m2
