"""Acceptance suite: eleven exact criteria, one test (and one printed
pass/fail line) per criterion.  Run with `pytest tests/test_acceptance.py -v`.

All assertions are exact (Fraction/int equality); the only stated tolerance
is the under-10-seconds budget for the subgroup table.
"""

import random
import time
from fractions import Fraction

from splicemult import (
    DualBasis,
    GraphHistory,
    base_point_set,
    discriminant_group,
    dual_cycles,
    enumerate_subgroups,
    flat_subgroup,
    full_subgroup,
    hilbert_basis,
    neumann_wahl_system,
    run_pipeline,
    subgroup,
    trivial_subgroup,
)
from splicemult.linalg import smith_normal_form

from conftest import (
    H12_DUAL_ROWS,
    H12_TABLE,
    QCycle,
    assert_resolved,
    assert_rounds_match_hilbert_basis,
    dot_vertex,
    dual_cycle,
    end_map_after,
    expand,
    expansion,
    exponent_vector,
    final_z,
    hilbert_oracle,
    intersect,
    pullback_vertex_cycle,
    quotient,
    random_trees,
    report_zz,
    round_z,
    to_dual_coordinates,
)

def _passed(n, message):
    print(f"criterion {n:2d}: PASS — {message}")


def test_criterion_01_dual_cycle_golden(tree_h12):
    basis = dual_cycles(tree_h12)
    for v, expected in H12_DUAL_ROWS.items():
        assert dual_cycle(basis, v).coeffs == expected
    _passed(1, "dual cycles E_1*..E_5* equal the reference matrix exactly")


def test_criterion_02_discriminant_groups(tree_h12, tree_h60):
    g12 = discriminant_group(tree_h12)
    assert g12.order == 12
    assert g12.invariant_factors == (2, 6)
    assert len(enumerate_subgroups(g12)) == 10
    assert discriminant_group(tree_h60).order == 60
    _passed(2, "|H| = 12 with factors (2, 6), 10 subgroups; |H| = 60")


def test_criterion_03_subgroup_table(tree_h12):
    start = time.monotonic()
    basis = dual_cycles(tree_h12)
    group = discriminant_group(tree_h12, basis)
    enumerated = {s.canonical_elements: s for s in enumerate_subgroups(group)}
    assert len(enumerated) == 10
    mults = []
    for row in H12_TABLE:
        h1 = subgroup(row["gens"], group)
        match = enumerated[h1.canonical_elements]  # matched by element set
        assert match.order == row["order"] == h1.order
        assert flat_subgroup(match) == subgroup(row["flat"], group)
        report = run_pipeline(tree_h12, match)
        assert final_z(report) == expand(basis, row["z_dual"])
        assert report.multiplicity == row["mult"]
        mults.append(report.multiplicity)
    assert mults == [6, 6, 6, 6, 2, 6, 4, 2, 2, 2]
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    _passed(3, f"all 10 table rows reproduced in {elapsed:.2f}s")


def test_criterion_04_h60_end_to_end(tree_h60):
    basis = dual_cycles(tree_h60)
    report = run_pipeline(tree_h60, trivial_subgroup(discriminant_group(tree_h60)))
    z = round_z(report.rounds[0])
    assert z == Fraction(1, 10) * (dual_cycle(basis, 1)
                                   + 3 * dual_cycle(basis, 5))
    assert intersect(z, z) == Fraction(-7, 100)
    assert [c.edge for c in report.rounds[0].edge_checks
            if not c.passed] == [(1, 5)]
    assert 1 not in base_point_set(tree_h60, basis)
    events = report.history.events
    assert len(events) == 3 and all(e.kind == "edge" for e in events)
    final = report.history.current
    assert final.weight(1) == -4
    assert [final.weight(v) for v in (11, 12, 13)] == [-2, -2, -1]
    assert final.weight(5) == -6
    assert report_zz(report) == Fraction(-1, 10)
    assert report.multiplicity == 6
    _passed(4, "round-1 Z and Z.Z, the failing edge, 3 blowups, mult = 6")


def test_criterion_05_a2_oracle(a2_chain):
    group = discriminant_group(a2_chain)
    assert group.invariant_factors == (3,)
    singularity = quotient(a2_chain)
    assert final_z(singularity) == QCycle(a2_chain, (1, 1))
    assert singularity.multiplicity == 2
    uac = run_pipeline(a2_chain, trivial_subgroup(group))
    assert len(uac.history.events) == 1
    assert uac.history.events[0].kind == "edge"
    assert report_zz(uac) == Fraction(-1, 3)
    assert uac.multiplicity == 1
    _passed(5, "A_2 chain: H = Z/3, quotient mult 2, cover mult 1")


def test_criterion_06_mode_equivalence(tree_h12, tree_h60, a2_chain):
    group12 = discriminant_group(tree_h12)
    for h1 in enumerate_subgroups(group12):
        assert_resolved(run_pipeline(tree_h12, h1), h1)
    for g in (tree_h12, tree_h60):
        h1 = trivial_subgroup(discriminant_group(g))
        assert_resolved(run_pipeline(g, h1), h1)
    groupc = discriminant_group(a2_chain)
    for h1 in (trivial_subgroup(groupc), full_subgroup(groupc)):
        assert_resolved(run_pipeline(a2_chain, h1), h1)
    _passed(6, "every tested run stops with each end witnessed or not a "
               "base point and each edge witnessed or Z.E = 0")


def test_criterion_07_hilbert_oracle_random():
    rng = random.Random(2024)
    graphs = random_trees(seed=515, count=70)
    checked = 0
    for g in graphs:
        basis = dual_cycles(g)
        group = discriminant_group(g, basis)
        gens = []
        for _ in range(rng.randint(0, 2)):
            gens.append({v: rng.randint(0, 3) for v in g.vertex_ids})
        h1 = subgroup(gens, group)
        expected = hilbert_oracle(g, basis, h1, volume_cap=40_000)
        if expected is None:
            continue
        hb = hilbert_basis(g, basis, h1)
        assert {exponent_vector(m, g.ends) for m in hb} == expected
        checked += 1
    assert checked >= 50
    _passed(7, f"hilbert_basis matches the brute-force oracle on "
               f"{checked} random (graph, subgroup) cases")


def test_criterion_08_lattice_identities(all_test_graphs):
    rng = random.Random(99)
    for g in all_test_graphs:
        basis = dual_cycles(g)
        for a in g.vertex_ids:
            ea = dual_cycle(basis, a)
            assert all(c > 0 for c in ea.coeffs)
            for b in g.vertex_ids:
                assert dot_vertex(ea, b) == (-1 if a == b else 0)
        group = discriminant_group(g, basis)
        for h1 in enumerate_subgroups(group):
            flat = flat_subgroup(h1)
            assert flat.order * h1.order == group.order
            assert flat_subgroup(flat) == h1
        for _ in range(5):
            d = QCycle(g, [Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                           for _ in g.vertex_ids])
            assert expand(basis, to_dual_coordinates(d)) == d
    _passed(8, "duality, positivity, flat identities, dual round-trip")


def test_criterion_09_blowup_coherence(tree_h60, a2_chain):
    rng = random.Random(42)
    for g in (tree_h60, a2_chain):
        order = discriminant_group(g).order
        h1 = trivial_subgroup(discriminant_group(g))
        report = run_pipeline(g, h1)
        history = report.history
        for k, event in enumerate(history.events):
            pre, post = report.rounds[k].graph, report.rounds[k + 1].graph
            # pairing preserved for random cycles
            for _ in range(4):
                c1 = QCycle(pre, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in pre.vertex_ids])
                c2 = QCycle(pre, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                                  for _ in pre.vertex_ids])
                p1 = pullback_vertex_cycle(post, event, c1)
                p2 = pullback_vertex_cycle(post, event, c2)
                assert intersect(p1, p2) == intersect(c1, c2)
            # |H| is a blowup invariant (via the SNF diagonal product)
            diag = smith_normal_form(post.intersection_matrix()).diagonal()
            prod = 1
            for d in diag:
                prod *= d
            assert prod == order
            # generators enumerated from scratch on either side of the
            # blowup (fresh dual bases) are pullbacks of each other
            fresh = hilbert_basis(post, DualBasis(post), h1,
                                  end_map_after(history, k))
            before = hilbert_basis(pre, DualBasis(pre), h1,
                                   end_map_after(history, k - 1))
            prev = {exponent_vector(m, sorted(m.exponents)):
                    expansion(pre, m) for m in before}
            new = {exponent_vector(m, sorted(m.exponents)):
                   expansion(post, m) for m in fresh}
            assert set(prev) == set(new)
            for vec, cycle in prev.items():
                assert pullback_vertex_cycle(post, event, cycle) == new[vec]
        # and every round's Z and witnesses are those a fresh basis gives
        assert_rounds_match_hilbert_basis(report, h1)
    _passed(9, "pairing, |H|, and generators coherent through every blowup")


def test_criterion_10_base_point_closure(tree_h12):
    basis = dual_cycles(tree_h12)
    assert base_point_set(tree_h12, basis) == {3, 4}
    history = GraphHistory(tree_h12)
    for label in (3, 4):
        history.blowup_end(label)
    blown = history.current
    assert base_point_set(blown, dual_cycles(blown)) == frozenset()
    _passed(10, "after blowing up ends 3 and 4 the base-point set is empty")


def test_criterion_11_splice_skeletons(tree_h12, tree_h60):
    systems12 = {s.node: s for s in
                 neumann_wahl_system(tree_h12, dual_cycles(tree_h12))}
    assert {m.monomial_string() for m in systems12[5].monomials} == \
        {"z1^2", "z2^2", "z3*z4"}
    assert {m.monomial_string() for m in systems12[8].monomials} == \
        {"z3^3", "z4^3", "z1^5*z2^5"}
    systems60 = {s.node: s for s in
                 neumann_wahl_system(tree_h60, dual_cycles(tree_h60))}
    assert {m.monomial_string() for m in systems60[5].monomials} == \
        {"z1^3", "z2^2", "z3*z4"}
    _passed(11, "splice equation monomial sets match on both graphs")
