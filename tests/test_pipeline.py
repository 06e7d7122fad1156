"""Pipeline: gcd checks, base-point resolution, the blowup loop, reports."""

import contextlib
import heapq
import io
import json
import sys
from fractions import Fraction
from operator import mul
from types import ModuleType, SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from splicemult import (
    DualBasis,
    ResolutionGraph,
    ZeroSumSearch,
    base_point_set,
    check_gcd_condition,
    discriminant_group,
    dual_cycles,
    full_subgroup,
    hilbert_basis,
    linalg,
    run_pipeline,
    subgroup,
    trivial_subgroup,
)
from splicemult.cli import _emit_report
from splicemult.errors import (
    CapExceededError,
    ConditionError,
    InputError,
    InternalError,
)
from splicemult.lattice import _apply_form, _form
from splicemult.monomial import monomial_string
from splicemult.pipeline import (
    EdgeCheckResult,
    EndDecision,
    RoundRecord,
    whole_rounds,
)

from conftest import (
    H12_TABLE,
    assert_resolved,
    assert_rounds_match_hilbert_basis,
    draw_blowups,
    dual_cycle,
    end_decisions,
    end_map_after,
    expand,
    expansion,
    exponent_vector,
    final_z,
    fresh_search,
    intersect,
    laufer_z_min,
    pullback_vertex_cycle,
    quotient,
    replace_everywhere,
    report_zz,
    round_end_map,
    round_z,
    round_z_dual,
    star,
    to_dual_coordinates,
)

def _uac(g):
    return run_pipeline(g, trivial_subgroup(discriminant_group(g)))


# --- gcd condition -----------------------------------------------------------------


def _id_keyed(g, nums):
    """A vector in g's vertex order as a map from vertex id."""
    return dict(zip(g.vertex_ids, nums))


def _gcd_checks(g, h1):
    search = ZeroSumSearch(h1)
    z = search.z()
    return check_gcd_condition(g.edges, _id_keyed(g, z),
                               _id_keyed(g, _apply_form(_form(g), z)),
                               search)


def test_gcd_condition_h12_all_pass(tree_h12):
    group = discriminant_group(tree_h12)
    checks = _gcd_checks(tree_h12, trivial_subgroup(group))
    assert all(c.passed for c in checks)
    assert {c.edge for c in checks} == set(tree_h12.edges)


def test_gcd_condition_h60_fails_at_node_edge(tree_h60):
    group = discriminant_group(tree_h60)
    checks = _gcd_checks(tree_h60, trivial_subgroup(group))
    assert [c.edge for c in checks if not c.passed] == [(1, 5)]


def test_gcd_condition_chain_fails(a2_chain):
    group = discriminant_group(a2_chain)
    checks = _gcd_checks(a2_chain, trivial_subgroup(group))
    assert [c.edge for c in checks if not c.passed] == [(1, 2)]


def test_gcd_condition_pruning_sound(tree_h12, tree_h60, a2_chain,
                                    d4_star):
    """Every edge justified by Z.E_v = 0 also has an explicit witness,
    found on its first read: in round 1 (`_gcd_checks`) and in every round
    of the run, whose late reads follow the blowups, for every subgroup of
    h12, h60, D4 and the A2 chain.  No such witness is found before it is
    read."""
    from splicemult import enumerate_subgroups

    for g in (tree_h12, tree_h60, a2_chain, d4_star):
        for h1 in enumerate_subgroups(discriminant_group(g)):
            checks = _gcd_checks(g, h1) + [
                c for rnd in run_pipeline(g, h1).rounds
                for c in rnd.edge_checks]
            pruned = [c for c in checks if c.pruned_by_zero]
            assert all("witness" not in vars(c) for c in pruned)
            assert all(c.witness is not None for c in pruned)


# --- base-point resolution ---------------------------------------------------------


def test_optimized_h12_no_end_blowups(tree_h12):
    """Every subgroup of the |H|=12 graph is resolved without end blowups."""
    group = discriminant_group(tree_h12)
    from splicemult import enumerate_subgroups

    for h1 in enumerate_subgroups(group):
        report = run_pipeline(tree_h12, h1)
        assert all(e.kind == "edge" for e in report.history.events)
        assert all(d.action in ("witness", "not_base_point")
                   for d in end_decisions(report))


def test_optimized_h12_e1_witness_decision(tree_h12):
    """With H1 = <E_1*>, end 1 is accepted through a generator with equal
    coefficient and zero exponent: z4^2, the first such generator in
    graded-lex order (z2*z3 and z2^2 qualify too).  Every round agrees with
    a fresh Hilbert basis on its graph."""
    group = discriminant_group(tree_h12)
    h1 = subgroup([{1: 1}], group)
    report = run_pipeline(tree_h12, h1)
    decision = next(d for d in end_decisions(report) if d.end == 1)
    assert (decision.action, decision.witness) == ("witness", "z4^2")
    basis = dual_cycles(tree_h12)
    witness = next(m for m in hilbert_basis(tree_h12, basis, h1)
                   if m.monomial_string() == decision.witness)
    assert witness.exponents[1] == 0
    assert expansion(tree_h12, witness).coefficient(1) == \
        final_z(report).coefficient(1)
    assert_rounds_match_hilbert_basis(report, h1)


# --- full pipeline runs ---------------------------------------------------------


def test_uac_h12(tree_h12):
    report = _uac(tree_h12)
    assert report.multiplicity == 6
    assert report_zz(report) == Fraction(-1, 2)
    assert len(report.history.events) == 0


def test_quotient_h12(tree_h12):
    report = quotient(tree_h12)
    assert report.multiplicity == 2
    basis = dual_cycles(tree_h12)
    assert final_z(report) == dual_cycle(basis, 5)


def test_uac_h60_full_trace(tree_h60):
    report = _uac(tree_h60)
    basis = dual_cycles(tree_h60)
    first = report.rounds[0]
    z = round_z(first)
    assert z == Fraction(1, 10) * (dual_cycle(basis, 1)
                                   + 3 * dual_cycle(basis, 5))
    assert intersect(z, z) == Fraction(-7, 100)
    assert [c.edge for c in first.edge_checks if not c.passed] == [(1, 5)]
    assert [(e.kind, e.center) for e in report.history.events] == [
        ("edge", (1, 5)), ("edge", (5, 11)), ("edge", (5, 12))]
    final = report.history.current
    assert {v: final.weight(v) for v in (1, 11, 12, 13, 5)} == {
        1: -4, 11: -2, 12: -2, 13: -1, 5: -6}
    assert report_zz(report) == Fraction(-1, 10)
    assert report.multiplicity == 6


def test_uac_chain(a2_chain):
    report = _uac(a2_chain)
    assert len(report.history.events) == 1
    assert report.history.events[0].kind == "edge"
    assert final_z(report).coeffs == (Fraction(1, 3), Fraction(1, 3),
                                     Fraction(1))
    assert report_zz(report) == Fraction(-1, 3)
    assert report.multiplicity == 1


def test_a_round_hashes_compares_and_prints_as_its_own_round(a2_chain):
    """Every round of a run with blowups hashes, and round 1's equality
    and repr read its own vertices' Z, not the run's shared map, which
    the blowup extended by the new vertex 3."""
    report = _uac(a2_chain)
    first = report.rounds[0]
    assert len(report.rounds) == 2 and first.z == {1: 1, 2: 1, 3: 3}
    for rnd in report.rounds:
        hash(rnd)
    assert "z_num=(1, 1)," in repr(first) and "3: 3" not in repr(first)
    own = RoundRecord(first.graph, first.den, {1: 1, 2: 1},
                      first.end_decisions, first.edge_checks, first.blowup)
    assert own == first and hash(own) == hash(first)
    assert own != RoundRecord(first.graph, first.den, {1: 1, 2: 2},
                              first.end_decisions, first.edge_checks,
                              first.blowup)


@pytest.mark.parametrize("cls, fields", [
    (EdgeCheckResult, {"edge": (1, 3), "passed": True,
                       "pruned_by_zero": True}),
    (EndDecision, {"end": 2, "action": "witness"}),
])
def test_a_first_read_witness_is_found_once(cls, fields):
    """A record built with find= calls it once, on the witness's first
    read, whatever reads it: ==, hash, repr and two reads.  It then holds
    its witness as a field and no finder.  A record built with witness=
    holds it from the start, so no read reaches a finder."""
    calls = []

    def find():
        calls.append(None)
        return "z1^4"

    record = cls(**fields, find=find)
    assert calls == []
    given = cls(**fields, witness="z1^4")
    assert vars(given) == {**fields, "witness": "z1^4"}
    assert record == given and hash(record) == hash(given)
    assert repr(record) == repr(given)
    assert record.witness == record.witness == "z1^4"
    assert len(calls) == 1
    assert vars(record) == {**fields, "witness": "z1^4"}


def test_quotient_chain(a2_chain):
    report = quotient(a2_chain)
    assert final_z(report).coeffs == (1, 1)
    assert report.multiplicity == 2
    assert len(report.history.events) == 0


def test_table_h12(tree_h12):
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    for row in H12_TABLE:
        h1 = subgroup(row["gens"], group)
        assert h1.order == row["order"]
        report = run_pipeline(tree_h12, h1)
        assert report.multiplicity == row["mult"]
        assert final_z(report) == expand(basis, row["z_dual"])


def test_mode_equivalence(tree_h12, tree_h60, a2_chain):
    """Every run on the paper graphs and the A_2 chain stops on a resolved
    graph: the one stopping rule leaves no open end or failing edge."""
    from splicemult import enumerate_subgroups

    group = discriminant_group(tree_h12)
    for h1 in enumerate_subgroups(group):
        assert_resolved(run_pipeline(tree_h12, h1), h1)
    for g in (tree_h60, a2_chain):
        group = discriminant_group(g)
        for h1 in (trivial_subgroup(group), full_subgroup(group)):
            assert_resolved(run_pipeline(g, h1), h1)


def test_optimized_end_blowup_path():
    """A case where an end blowup cannot be avoided: end 7 is a base point
    with no exponent-zero witness, end 4 is saved by one."""
    g = ResolutionGraph({1: -2, 2: -2, 3: -4, 4: -2, 5: -2, 6: -3, 7: -2,
                         8: -2},
                        [(1, 2), (1, 4), (1, 5), (2, 3), (2, 7), (3, 8),
                         (5, 6)])
    basis = dual_cycles(g)
    from splicemult import base_point_set

    assert base_point_set(g, basis) == {4, 7}
    group = discriminant_group(g, basis)
    h1 = subgroup([{1: 1, 2: 1, 3: 2, 4: 2}], group)
    assert h1.order == 13 and h1.index == 1
    report = run_pipeline(g, h1)
    assert [(e.kind, e.center) for e in report.history.events] == [
        ("end", (7,))]
    assert [d.end for d in end_decisions(report)
            if d.action == "blowup"] == [7]
    assert report.multiplicity == 7
    assert_resolved(report, h1)


def test_mode_equivalence_random():
    """Random graphs passing the monomial condition, with random
    subgroups: every run stops on a resolved graph."""
    import random as _random

    from splicemult import is_minimal, monomial_condition
    from conftest import random_trees

    checked = 0
    for g in random_trees(seed=909, count=40):
        basis = dual_cycles(g)
        if not is_minimal(g) or monomial_condition(g, basis):
            continue
        group = discriminant_group(g, basis)
        rng = _random.Random(sum(g.vertex_ids) + g.weight(g.vertex_ids[0]))
        gens = [{v: rng.randint(0, 2) for v in g.vertex_ids}
                for _ in range(rng.randint(0, 2))]
        h1 = subgroup(gens, group)
        report = run_pipeline(g, h1)
        assert report.multiplicity >= 1
        assert_resolved(report, h1)
        checked += 1
    assert checked >= 30


def test_mode_equivalence_five_arm_stars():
    """Three quotients on which a loop that blew each base point up once,
    before any search, stopped with an open end and answered 20, 4 and 4:
    a new leaf can again be a base point without a witness, and the loop
    blows it up again.  The final graphs are checked against their full
    Hilbert bases (boxes of 193,600 to 266,175 points)."""
    for arms, mult in (((-3, -5, -6, -7, -7), 21), ((-3, -6, -6, -7, -7), 6),
                       ((-5, -5, -5, -6, -6), 6)):
        g = star(-1, arms)
        report = quotient(g)
        assert report.multiplicity == mult
        assert_resolved(report, full_subgroup(discriminant_group(g)),
                        box_cap=300_000)


def test_pullback_coherence(tree_h60, a2_chain):
    """Each round's Z, witnesses and verdicts equal those read off a fresh
    dual basis and enumeration on its graph, and after each edge blowup the
    fresh generators are the pullbacks of those before it."""
    for g in (tree_h60, a2_chain):
        report = _uac(g)
        h1 = trivial_subgroup(discriminant_group(g))
        assert_rounds_match_hilbert_basis(report, h1)
        for k, event in enumerate(report.history.events):
            assert event.kind == "edge"
            pre, post = report.rounds[k].graph, report.rounds[k + 1].graph
            fresh = hilbert_basis(post, DualBasis(post), h1,
                                  end_map_after(report.history, k))
            before = hilbert_basis(pre, DualBasis(pre), h1,
                                   end_map_after(report.history, k - 1))
            prev = {exponent_vector(m, sorted(m.exponents)):
                    expansion(pre, m) for m in before}
            new = {exponent_vector(m, sorted(m.exponents)):
                   expansion(post, m) for m in fresh}
            assert set(prev) == set(new)
            for vec, cycle in prev.items():
                pulled = pullback_vertex_cycle(post, event, cycle)
                assert pulled == new[vec]
                assert to_dual_coordinates(pulled)[:len(cycle.coeffs)] == \
                    to_dual_coordinates(cycle)


def test_no_inversion_inside_pipeline(tree_h60, monkeypatch):
    """The blown-up bases come from pullback, never from a new tree solve,
    and no basis comes from the Bareiss inversion."""
    import splicemult.lattice as lattice
    import splicemult.linalg as linalg

    h1 = trivial_subgroup(discriminant_group(tree_h60))
    solve, bareiss = lattice._tree_solve, linalg.invert_rational_matrix
    sizes, inversions = [], []

    def counting(g):
        sizes.append(len(g))
        return solve(g)

    def counting_bareiss(a):
        inversions.append(len(a))
        return bareiss(a)

    monkeypatch.setattr(lattice, "_tree_solve", counting)
    replace_everywhere(monkeypatch, bareiss, counting_bareiss)
    report = run_pipeline(tree_h60, h1)
    assert len(report.history.events) == 3
    assert report.multiplicity == 6
    assert sizes == []
    DualBasis(tree_h60)  # the counter does see a tree solve
    assert sizes == [10]
    assert inversions == []
    linalg.invert_rational_matrix([[2]])  # and the other one an inversion
    assert inversions == [1]


def test_no_hilbert_basis_inside_pipeline(tree_h12, tree_h60, monkeypatch):
    """Z and the local checks come from the zero-sum search: no run
    enumerates a Hilbert basis or takes a gcd of generators."""
    import splicemult.monomial as monomial
    import splicemult.pipeline as pipeline

    calls = []

    def forbidden(name):
        def call(*args, **kwargs):
            calls.append(name)
            raise AssertionError(f"{name} called inside the pipeline")
        return call

    for module in (monomial, pipeline):
        for name in ("hilbert_basis", "gcd_cycle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden(name))
    from splicemult import enumerate_subgroups

    runs = [(run_pipeline(tree_h12, h1), h1)
            for h1 in enumerate_subgroups(discriminant_group(tree_h12))]
    group60 = discriminant_group(tree_h60)
    for h1 in (trivial_subgroup(group60), full_subgroup(group60)):
        runs.append((run_pipeline(tree_h60, h1), h1))
    assert runs[-2][0].multiplicity == 6
    assert runs[-1][0].multiplicity >= 1
    assert calls == []
    monkeypatch.undo()
    for report, h1 in runs:
        assert_resolved(report, h1)


def test_uac_star_24_blowups():
    """UAC of star(-1; -3,-4,-5,-7): the Brieskorn complete intersection
    V(3,4,5,7), multiplicity 3 * 4 (Neumann 1983)."""
    g = ResolutionGraph({1: -1, 2: -3, 3: -4, 4: -5, 5: -7},
                        [(1, 2), (1, 3), (1, 4), (1, 5)])
    report = _uac(g)
    assert report.multiplicity == 12
    assert len(report.history.events) == 24
    assert_resolved(report, trivial_subgroup(discriminant_group(g)))


@pytest.mark.parametrize("arms, order, mult, blowups", [
    ([-7, -7, -7, -7], 5831, 49, 0),
    ([-5, -5, -5, -5, -7], 9000, 125, 5),
])
def test_uac_star_beyond_enumeration_cap(arms, order, mult, blowups):
    """|H| above the table's enumeration cap: the UAC of star(-3; arms) is
    Brieskorn V(arms) with multiplicity the product of all but the two
    largest exponents (Neumann 1983)."""
    g = star(-3, arms)
    group = discriminant_group(g)
    assert group.order == full_subgroup(group).order == order
    report = _uac(g)
    assert report.multiplicity == mult
    assert len(report.history.events) == blowups
    assert_resolved(report, trivial_subgroup(group))


def test_quotient_of_a_tree_with_a_large_group(monkeypatch):
    """A 12-vertex tree with |H| = 34,126 (tree 144 of the benchmark
    corpus), the slow case of a one-sided search, whose 29 searches each
    settled nearly every class: the answer is 15 on a resolved graph, and
    the searches of the whole run pop fewer heap entries than ten times
    |H| (the one-sided search popped 892,705, 26 times |H|)."""
    from splicemult import monomial

    weights = [-4, -3, -2, -3, -3, -3, -4, -2, -3, -4, -2, -2]
    parents = [1, 1, 2, 3, 2, 4, 4, 7, 2, 6, 3]
    g = ResolutionGraph(dict(enumerate(weights, start=1)),
                        [(p, k + 2) for k, p in enumerate(parents)])
    pops = []

    def heappop(heap):
        pops.append(1)
        return heapq.heappop(heap)

    monkeypatch.setattr(monomial, "heapq", SimpleNamespace(
        heappop=heappop, heappush=heapq.heappush))
    report = quotient(g)
    monkeypatch.undo()
    assert report.order == 34126
    assert report.multiplicity == 15
    assert len(pops) < 10 * report.order
    assert_resolved(report, full_subgroup(discriminant_group(g)))


# --- the loop in integers ---------------------------------------------------------


@st.composite
def blown_up_trees_and_subgroups(draw):
    """A random tree after up to six random edge and end blowups (so not
    minimal, and run with the override), with H1 = 0, H1 = H or a random
    subgroup of its discriminant group.  Ids are 1..n or multiples of 3,
    so new vertices also land inside the vertex order."""
    n = draw(st.integers(2, 6))
    step = draw(st.sampled_from([1, 3]))  # 3: the loop fills id gaps
    weights = {step * i: draw(st.integers(-6, -1)) for i in range(1, n + 1)}
    edges = [(step * draw(st.integers(1, i - 1)), step * i)
             for i in range(2, n + 1)]
    try:
        g = ResolutionGraph(weights, edges)
    except InputError:  # not negative definite
        assume(False)
    g = draw_blowups(draw, g).current
    group = discriminant_group(g)
    make = draw(st.sampled_from([full_subgroup, trivial_subgroup, None]))
    if make is None:
        gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(g),
                                      max_size=len(g)), max_size=2))
        h1 = subgroup(gens, group)
    else:
        h1 = make(group)
    assume(h1.order <= 1000)
    return g, h1


def _count_fractions(monkeypatch):
    """Replace `Fraction` with a wrapper that records each call, both for a
    call-time `from fractions import Fraction`, which finds a stand-in
    `fractions` module in sys.modules, and in every splicemult module that
    holds its own name for it; returns the record. The real `fractions`
    module is left as it is, since the class's own methods read its
    `Fraction` global."""
    calls = []

    def counting(*args):
        calls.append(args)
        return Fraction(*args)

    stand_in = ModuleType("fractions")
    stand_in.Fraction = counting
    monkeypatch.setitem(sys.modules, "fractions", stand_in)
    for name, module in list(sys.modules.items()):
        if name.startswith("splicemult") and hasattr(module, "Fraction"):
            monkeypatch.setattr(module, "Fraction", counting)
    return calls


@settings(max_examples=40)
@given(blown_up_trees_and_subgroups())
def test_no_fraction_before_the_report_is_read(case):
    """The loop runs in integers, and so does the report: no Fraction is
    built before run_pipeline returns or while `mult --json` writes the
    report."""
    g, h1 = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = _count_fractions(monkeypatch)
        report = run_pipeline(g, h1, allow_non_minimal=True)
        with contextlib.redirect_stdout(io.StringIO()):
            _emit_report(report)
        assert calls == []
        # the wrapper does count: the one Fraction-building reference
        # reaches it through its call-time import
        assert linalg.is_negative_definite([[-2]])
        assert calls != []


def _end_decisions_from_scratch(g, end_map, z, search, base):
    """The end rule on one round's graph: the ends in label order, each
    settled by a witness or by not being in `base`, up to the first that
    is neither."""
    decisions = []
    for label, v in sorted(end_map.items()):
        found = search.least((v,), without=label)
        if found[0][0] == z[g.index(v)]:
            decisions.append(EndDecision(label, "witness",
                                         monomial_string(found[1])))
        elif v not in base:
            decisions.append(EndDecision(label, "not_base_point"))
        else:
            decisions.append(EndDecision(label, "blowup"))
            break
    return decisions


_STAR_3457 = star(-1, [-3, -4, -5, -7])
_CHAIN_336 = ResolutionGraph({1: -3, 2: -3, 3: -6}, [(1, 2), (1, 3)])
_STAR_35677 = star(-1, [-3, -5, -6, -7, -7])
_STAR_3557 = star(-1, [-3, -5, -5, -7])
# runs whose patch rounds carry every kind of change: edge blowups only,
# a Z.E = 0 flag that flips, end blowups only (three, end 2 blown up
# twice), and two end blowups followed by an edge blowup
_PATCHED_RUNS = [
    (_STAR_3457, trivial_subgroup(discriminant_group(_STAR_3457))),
    (_CHAIN_336, subgroup([[-3, 3, 2]], discriminant_group(_CHAIN_336))),
    (_STAR_35677, full_subgroup(discriminant_group(_STAR_35677))),
    (_STAR_3557, full_subgroup(discriminant_group(_STAR_3557))),
]


@settings(max_examples=40)
@given(blown_up_trees_and_subgroups())
# the UAC of Brieskorn V(3,4,5,7): 25 rounds with edge checks
@example(_PATCHED_RUNS[0])
# edge (1, 3) is checked again after its Z.E = 0 flag flips
@example(_PATCHED_RUNS[1])
# three end blowups, end 2 blown up twice (its new leaf 7 again)
@example(_PATCHED_RUNS[2])
# end blowups at 2 and 5, then the edge (5, 7) blown up
@example(_PATCHED_RUNS[3])
def test_rounds_in_integers_match_the_rational_form(case):
    """Every round's integer Z.E and Z.Z equal the Fraction form applied
    to the round's Z, and its carried Z and, rebuilt whole, its end
    decisions and edge checks equal those made from scratch on that
    round's graph: a fresh search on a fresh dual basis, base points from
    base_point_set."""
    g, h1 = case
    report = run_pipeline(g, h1, allow_non_minimal=True)
    for k, rnd in enumerate(whole_rounds(report)):
        z = round_z(rnd)
        assert round_z_dual(rnd) == to_dual_coordinates(z)
        zz = -sum(map(mul, rnd.z_num, rnd.z_dual_num))
        assert Fraction(zz, rnd.den ** 2) == intersect(z, z)
        basis = DualBasis(rnd.graph)
        end_map = round_end_map(report, k)
        fresh = fresh_search(rnd.graph, h1, end_map)
        assert fresh.z() == rnd.z_num
        assert list(rnd.z_dual_num) == _apply_form(_form(rnd.graph),
                                                   rnd.z_num)
        assert list(rnd.end_decisions) == _end_decisions_from_scratch(
            rnd.graph, end_map, rnd.z_num, fresh,
            base_point_set(rnd.graph, basis))
        if rnd.blowup is None or rnd.blowup.kind == "edge":
            assert list(rnd.edge_checks) == check_gcd_condition(
                rnd.graph.edges, _id_keyed(rnd.graph, rnd.z_num),
                _id_keyed(rnd.graph, rnd.z_dual_num), fresh)
        else:
            assert rnd.edge_checks == ()
    assert report_zz(report) == intersect(final_z(report), final_z(report))
    assert report.multiplicity == report.index * -report_zz(report)


@pytest.mark.parametrize("case", _PATCHED_RUNS,
                         ids=["star3457", "chain336", "star35677",
                              "star3557"])
def test_no_patch_round_repeats_an_unchanged_record(case):
    """After round 1, a round records an end decision only for an end
    that no round decided before it or that the last blowup moved, and an
    edge check only for an edge that the last round did not check or
    whose Z.E = 0 flag changed since.  Round 1 records every decision
    and check it made, and whole_rounds adds nothing to it."""
    report = run_pipeline(*case)
    whole = list(whole_rounds(report))
    assert whole[0] == report.rounds[0]
    for k in range(1, len(whole)):
        rnd, before = report.rounds[k], whole[k - 1]
        moved = round_end_map(report, k - 1).items() - \
            round_end_map(report, k).items()
        decided = {d.end for d in before.end_decisions}
        for d in rnd.end_decisions:
            assert d.end not in decided or d.end in dict(moved)
        flags = {c.edge: c.pruned_by_zero for c in before.edge_checks}
        for c in rnd.edge_checks:
            assert flags.get(c.edge) != c.pruned_by_zero


def test_edge_check_is_made_again_when_its_flag_changes():
    """On the chain -3, -3, -6 (vertex 1 in the middle) with an H1 of
    order 9, the blowup of the edge (1, 2) makes Z.E_1 = 0: the edge
    (1, 3), which passed by a witness in round 1, is checked again in
    round 2 and is now also pruned by zero; round 3 keeps that check."""
    h1 = subgroup([[-3, 3, 2]], discriminant_group(_CHAIN_336))
    report = run_pipeline(_CHAIN_336, h1)

    def at_13(rounds):
        return [[(c.passed, c.pruned_by_zero) for c in rnd.edge_checks
                 if c.edge == (1, 3)] for rnd in rounds]

    assert at_13(report.rounds) == [[(True, False)], [(True, True)], []]
    assert at_13(whole_rounds(report)) == [
        [(True, False)], [(True, True)], [(True, True)]]
    assert_resolved(report, h1)


def test_no_edge_is_searched_for_a_known_result(tree_h60):
    """A round checks only the edges that are new or whose Z.E = 0 flag
    changed, so each (edge, Z.E = 0 flag) result is built once per run:
    over the 24 blowups of star(-1; -3,-4,-5,-7) and the three edge
    blowups of the |H| = 60 graph's cover, the rounds hold one result
    object per (edge, pruned_by_zero) pair."""
    for g, blowups, multiplicity in ((_STAR_3457, 24, 12), (tree_h60, 3, 6)):
        report = _uac(g)
        assert (len(report.history.events), report.multiplicity) == (
            blowups, multiplicity)
        checks = [c for rnd in report.rounds for c in rnd.edge_checks]
        assert len(set(map(id, checks))) == len(
            {(c.edge, c.pruned_by_zero) for c in checks})


# --- guards -----------------------------------------------------------------------


def test_larger_three_node_graph():
    """20 vertices, three nodes, |H| = 1440: the loop stays fast and every
    run stops resolved; the quotient, whose Hilbert-basis box exceeds the
    enumeration cap, is rational with -Z_min^2 = 8 (Laufer, Artin)."""

    edges = [(1, 5), (2, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 3), (8, 10),
             (10, 4), (8, 11), (11, 12), (12, 13), (13, 14), (14, 15),
             (15, 16), (16, 17), (14, 18), (18, 19), (19, 20)]
    weights = {i: -2 for i in range(1, 21)}
    weights[8] = -4
    weights[14] = -3
    g = ResolutionGraph(weights, edges)
    group = discriminant_group(g)
    assert group.order == 1440
    assert group.invariant_factors == (12, 120)

    uac = run_pipeline(g, trivial_subgroup(group))
    assert uac.multiplicity == 48
    assert report_zz(uac) == Fraction(-1, 30)
    assert len(uac.history.events) == 3
    assert_resolved(uac, trivial_subgroup(group))

    h1 = subgroup([{1: 1, 3: 1}], group)
    assert h1.order == 12
    report = run_pipeline(g, h1)
    assert report.multiplicity == 36
    assert_resolved(report, h1)

    z_min, zz, genus = laufer_z_min(g)
    assert (zz, genus) == (-8, 0)
    report = quotient(g)
    assert report.multiplicity == 8
    assert_resolved(report, full_subgroup(group))


def test_classical_double_points():
    """Rational double points all have multiplicity 2, and the universal
    abelian cover of an A_n chain is smooth (multiplicity 1)."""
    for n in (2, 3, 4, 5):
        chain = ResolutionGraph({i: -2 for i in range(1, n + 1)},
                                [(i, i + 1) for i in range(1, n)])
        assert quotient(chain).multiplicity == 2
        group = discriminant_group(chain)
        assert run_pipeline(chain, trivial_subgroup(group)).multiplicity == 1
    e8 = ResolutionGraph({i: -2 for i in range(1, 9)},
                         [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7),
                          (5, 8)])
    assert discriminant_group(e8).order == 1
    assert quotient(e8).multiplicity == 2
    d4 = ResolutionGraph({1: -2, 2: -2, 3: -2, 4: -2},
                         [(4, 1), (4, 2), (4, 3)])
    assert quotient(d4).multiplicity == 2


def test_max_blowups_cap(a2_chain, tree_h60):
    group60 = discriminant_group(tree_h60)
    with pytest.raises(CapExceededError, match=r"^more than 2 blowups \(the "
                       r"graph has grown to 13 vertices\)$"):
        run_pipeline(tree_h60, trivial_subgroup(group60), max_blowups=2)
    with pytest.raises(InputError, match="^max_blowups must be positive, "
                                         "got 0$"):
        run_pipeline(tree_h60, trivial_subgroup(group60), max_blowups=0)
    # one blowup is enough for the chain
    group = discriminant_group(a2_chain)
    assert run_pipeline(a2_chain, trivial_subgroup(group),
                        max_blowups=1).multiplicity == 1


def test_non_minimal_guard():
    g = ResolutionGraph({1: -2, 2: -1}, [(1, 2)])
    group = discriminant_group(g)
    with pytest.raises(ConditionError, match="blow-downable"):
        run_pipeline(g, full_subgroup(group))
    report = run_pipeline(g, full_subgroup(group), allow_non_minimal=True)
    assert report.input_minimal is False
    assert report.multiplicity >= 1


def test_wrong_graph_subgroup(tree_h12, a2_chain):
    group = discriminant_group(a2_chain)
    with pytest.raises(InternalError, match="built on a different graph"):
        run_pipeline(tree_h12, trivial_subgroup(group))


def test_non_integer_multiplicity_guard(tree_h60, monkeypatch):
    """If the blowup loop is (wrongly) skipped, |H| * (-Z.Z) = 21/5 on the
    |H|=60 graph; the pipeline must refuse to round it."""
    import splicemult.pipeline as pipeline_module

    real_check = pipeline_module.check_gcd_condition

    def everything_passes(*args):
        return [pipeline_module.EdgeCheckResult(
            edge=c.edge, passed=True, witness=c.witness,
            pruned_by_zero=c.pruned_by_zero)
            for c in real_check(*args)]

    monkeypatch.setattr(pipeline_module, "check_gcd_condition",
                        everything_passes)
    group = discriminant_group(tree_h60)
    with pytest.raises(InternalError, match=r"= 21/5 is not a positive integer"):
        run_pipeline(tree_h60, trivial_subgroup(group))


def test_report_json_fields(tree_h60):
    report = _uac(tree_h60)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_report(report)
    data = json.loads(out.getvalue())
    assert data["det"] == 60
    assert data["H_invariant_factors"] == list(
        discriminant_group(tree_h60).invariant_factors)
    assert data["H1_order"] == 1 and data["index"] == 60
    assert data["ZZ"] == "-1/10"
    assert data["multiplicity"] == 6
    assert len(data["rounds"]) == 4
    for rnd in data["rounds"]:
        assert {"Z_vertex", "Z_dual", "edge_checks", "blowup"} <= set(rnd)
        assert "generator_count" not in rnd
        for check in rnd["edge_checks"]:
            assert check["witness"] is None or check["witness"].startswith("z")
    assert len(data["trace"]) == 3
    # serialization round-trips through JSON
    text = json.dumps(data, indent=2, sort_keys=True)
    assert json.dumps(json.loads(text), indent=2, sort_keys=True) == text
