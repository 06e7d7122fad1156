"""Graph parsing, validation, branches, blowups, and pullback bookkeeping."""

import random
from fractions import Fraction
from math import prod

import pytest
from hypothesis import given, strategies as st

from splicemult import (
    BlowupEvent,
    GraphHistory,
    ResolutionGraph,
    blowup_edge,
    blowup_end_point,
    branches,
    discriminant_group,
    dual_cycles,
    is_minimal,
    parse_and_validate,
)
from splicemult.errors import InputError, InternalError
from splicemult.linalg import is_negative_definite

from conftest import (QCycle, RecordedHistory, blowup_histories,
                      branches_by_search, chain_armed_stars, dual_cycle,
                      graph_json, intersect, lower_centres_twice,
                      multi_node_trees, pullback_vertex_cycle, random_trees)


# --- parsing and validation -----------------------------------------------------


def test_parse_two_node_graph(tree_h12):
    g = parse_and_validate(graph_json(tree_h12))
    assert g == tree_h12
    assert g.ends == (1, 2, 3, 4)
    assert g.nodes == (5, 8)
    assert all(g.degree(v) >= 1 for v in g.vertex_ids)


def test_parse_minimal_chain():
    g = parse_and_validate(
        '{"vertices": [{"id": 1, "weight": -2}, {"id": 2, "weight": -2}],'
        ' "edges": [[1, 2]]}')
    assert g.ends == (1, 2)
    assert g.nodes == ()


def test_parse_rejects_bad_weight():
    with pytest.raises(InputError, match="vertex 1 has weight 1 >= 0"):
        ResolutionGraph({1: 1, 2: -2}, [(1, 2)])
    with pytest.raises(InputError, match="vertex 1 has weight 0 >= 0"):
        ResolutionGraph({1: 0, 2: -2}, [(1, 2)])


def test_parse_rejects_cycle():
    with pytest.raises(InputError, match="not a connected tree"):
        ResolutionGraph({1: -2, 2: -2, 3: -2}, [(1, 2), (2, 3), (3, 1)])


def test_parse_rejects_disconnected():
    with pytest.raises(InputError, match="not a connected tree"):
        ResolutionGraph({1: -2, 2: -2, 3: -2, 4: -2}, [(1, 2), (3, 4)])


def test_tree_check_comes_before_definiteness():
    """n - 1 edges that leave a vertex out: the breadth-first pass of the
    definiteness test finds it, and names the tree, not the form."""
    with pytest.raises(InputError, match="^graph is not a connected tree$"):
        ResolutionGraph({1: -1, 2: -1, 3: -1, 4: -1},
                        [(1, 2), (2, 3), (3, 1)])


def test_parse_rejects_too_small():
    with pytest.raises(InputError, match="at least 2 vertices"):
        ResolutionGraph({1: -2}, [])


def test_parse_rejects_not_negative_definite():
    # chain of (-1, -1) has determinant 0
    with pytest.raises(InputError, match="not negative definite"):
        ResolutionGraph({1: -1, 2: -1}, [(1, 2)])


def test_parse_rejects_malformed_documents():
    with pytest.raises(InputError, match="invalid JSON"):
        parse_and_validate("not json")
    with pytest.raises(InputError, match="needs 'vertices' and 'edges'"):
        parse_and_validate('{"vertices": []}')
    with pytest.raises(InputError, match="duplicate vertex id 1"):
        parse_and_validate(
            '{"vertices": [{"id": 1, "weight": -2}, {"id": 1, "weight": -2}],'
            ' "edges": []}')
    with pytest.raises(InputError, match="references an unknown vertex"):
        parse_and_validate(
            '{"vertices": [{"id": 1, "weight": -2}, {"id": 2, "weight": -2}],'
            ' "edges": [[1, 7]]}')


def test_non_contiguous_ids_allowed():
    g = ResolutionGraph({10: -2, 30: -2, 20: -2}, [(10, 20), (20, 30)])
    assert g.vertex_ids == (10, 20, 30)
    assert g.ends == (10, 30)


def test_is_minimal():
    assert is_minimal(ResolutionGraph({1: -2, 2: -2}, [(1, 2)]))
    assert not is_minimal(ResolutionGraph({1: -2, 2: -1}, [(1, 2)]))


# --- branches --------------------------------------------------------------------


def test_branches_two_node_graph(tree_h12):
    assert branches(tree_h12, 5) == (
        frozenset({1}), frozenset({2}), frozenset({3, 4, 6, 7, 8, 9, 10}))
    assert branches(tree_h12, 8) == (
        frozenset({9, 3}), frozenset({10, 4}), frozenset({7, 6, 5, 1, 2}))


def test_branches_chain(a2_chain):
    assert branches(a2_chain, 1) == (frozenset({2}),)


def test_branches_partition(all_test_graphs):
    for g in all_test_graphs:
        for v in g.vertex_ids:
            comps = branches(g, v)
            assert len(comps) == g.degree(v)
            union = set()
            for c in comps:
                assert not (union & c)
                union |= c
            assert union == set(g.vertex_ids) - {v}


def _assert_branches_match_search(g):
    for v in g.vertex_ids:
        assert branches(g, v) == branches_by_search(g, v)


@given(multi_node_trees())
def test_branches_match_search_on_multi_node_trees(g):
    """The rooted tree's subtrees and their complement are the components
    a search from each neighbour finds, in the same order."""
    _assert_branches_match_search(g)


@given(chain_armed_stars())
def test_branches_match_search_on_chain_armed_stars(g):
    """Stars rooted at their centre, so every branch is a child's
    subtree."""
    _assert_branches_match_search(g)


@given(blowup_histories())
def test_branches_match_search_after_blowups(history):
    """A blown-up graph eliminates on first read, rooted at its own least
    id, with new vertices before and between the old ones in id order."""
    _assert_branches_match_search(history.initial)
    for k in range(len(history.events)):
        _assert_branches_match_search(history.graph_after(k))


def test_rooted_tree_is_a_preorder_from_the_least_id(tree_h12):
    """Each vertex's subtree is the slice of the preorder that starts at
    it, and the root is the least id."""
    order, parent, size = tree_h12.rooted_tree()
    assert order[0] == 1 and parent[1] is None
    assert sorted(order) == list(tree_h12.vertex_ids)
    for i, v in enumerate(order):
        below = set(order[i:i + size[v]])
        assert below == {u for u in order if _descends(u, v, parent)}


def _descends(u, v, parent):
    while u is not None and u != v:
        u = parent[u]
    return u == v


# --- blowups ---------------------------------------------------------------------


def test_blowup_edge_chain(a2_chain):
    g2, event = blowup_edge(a2_chain, 1, 2)
    assert g2.weight(1) == -3 and g2.weight(2) == -3 and g2.weight(3) == -1
    assert set(g2.edges) == {(1, 3), (2, 3)}
    assert event.kind == "edge" and event.new_vertex == 3
    assert event.weight_changes == ((1, -2, -3), (2, -2, -3))


def test_blowup_edge_rejects_non_edge(a2_chain, tree_h12):
    with pytest.raises(InternalError, match=r"\(1, 2\) is not an edge"):
        blowup_edge(tree_h12, 1, 2)
    with pytest.raises(InternalError, match=r"\(1, 1\) is not an edge"):
        blowup_edge(a2_chain, 1, 1)


def test_blowup_edge_h60_weights(tree_h60):
    g2, _ = blowup_edge(tree_h60, 1, 5)
    assert g2.weight(1) == -4 and g2.weight(5) == -4 and g2.weight(11) == -1


def test_three_blowups_toward_node(tree_h60):
    """Repeated blowup along the chain growing between vertices 1 and 5."""
    g, _ = blowup_edge(tree_h60, 1, 5)
    g, _ = blowup_edge(g, 11, 5)
    g, _ = blowup_edge(g, 12, 5)
    assert g.weight(1) == -4
    assert g.weight(11) == -2 and g.weight(12) == -2 and g.weight(13) == -1
    assert g.weight(5) == -6


def test_blowup_end_point_chain(a2_chain):
    g2, event = blowup_end_point(a2_chain, 1)
    assert g2.weight(1) == -3 and g2.weight(2) == -2 and g2.weight(3) == -1
    assert set(g2.edges) == {(1, 2), (1, 3)}
    assert event.kind == "end" and event.new_vertex == 3


def test_blowup_end_point_moves_end(tree_h12):
    g2, event = blowup_end_point(tree_h12, 3)
    assert g2.weight(3) == -3
    assert g2.ends == (1, 2, 4, event.new_vertex)


def test_blowup_end_point_rejects_node(tree_h12):
    with pytest.raises(InternalError, match="vertex 5 is not an end"):
        blowup_end_point(tree_h12, 5)


def test_history_end_map_tracks_blowups(tree_h12):
    hist = GraphHistory(tree_h12)
    assert hist.end_map == {1: 1, 2: 2, 3: 3, 4: 4}
    ev = hist.blowup_end(3)
    assert hist.end_map[3] == ev.new_vertex
    hist.blowup_edge(1, 5)
    assert hist.end_map[3] == ev.new_vertex  # edge blowups do not move ends
    assert set(hist.end_map.values()) <= set(hist.current.vertex_ids)
    # end map is a bijection onto the current ends
    assert sorted(hist.end_map.values()) == sorted(hist.current.ends)


@st.composite
def weighted_trees(draw):
    """Weights in [-4, -1] on a random tree: often indefinite."""
    n = draw(st.integers(2, 9))
    weights = {i: draw(st.integers(-4, -1)) for i in range(1, n + 1)}
    edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
    return weights, edges


@given(weighted_trees())
def test_leaf_first_definiteness_matches_general_test(tree):
    weights, edges = tree
    matrix = [[weights[i] if i == j else 0 for j in sorted(weights)]
              for i in sorted(weights)]
    for a, b in edges:
        matrix[a - 1][b - 1] = matrix[b - 1][a - 1] = 1
    try:
        ResolutionGraph(weights, edges)
        accepted = True
    except InputError as exc:
        assert "not negative definite" in str(exc)
        accepted = False
    assert accepted == is_negative_definite(matrix)


# --- pullback ---------------------------------------------------------------------


def test_pullback_dual_cycle_chain(a2_chain):
    basis = dual_cycles(a2_chain)
    hist = GraphHistory(a2_chain)
    event = hist.blowup_edge(1, 2)
    pb = pullback_vertex_cycle(hist.current, event, dual_cycle(basis, 1))
    assert pb.coeffs == (Fraction(2, 3), Fraction(1, 3), Fraction(1))


def test_pullback_to_current_composes(a2_chain):
    basis = dual_cycles(a2_chain)
    hist = RecordedHistory(a2_chain)
    first = hist.blowup_edge(1, 2)
    second = hist.blowup_edge(1, 3)
    mid, last = hist.graph_after(0), hist.current
    pulled = pullback_vertex_cycle(
        last, second, pullback_vertex_cycle(mid, first,
                                            dual_cycle(basis, 1)))
    assert pulled == dual_cycle(dual_cycles(last), 1)
    # starting from an intermediate graph works too
    assert pullback_vertex_cycle(
        last, second, dual_cycle(dual_cycles(mid), 3)) == \
        dual_cycle(dual_cycles(last), 3)


def test_fresh_id_fills_gaps():
    g = ResolutionGraph({10: -2, 30: -2, 20: -2}, [(10, 20), (20, 30)])
    g2, event = blowup_edge(g, 10, 20)
    assert event.new_vertex == 1  # smallest unused positive id
    g3, event2 = blowup_end_point(g2, 30)
    assert event2.new_vertex == 2


def _replayed(pre, event):
    """The graph after `event`, built by the constructor from pre's
    weights and edges."""
    u = event.new_vertex
    weights = {v: pre.weight(v) for v in pre.vertex_ids}
    weights.update((v, w) for v, _, w in event.weight_changes)
    weights[u] = -1
    edges = [e for e in pre.edges
             if event.kind != "edge" or e != event.center]
    edges += [(c, u) for c in event.center]
    return ResolutionGraph(weights, edges)


@given(blowup_histories())
def test_derived_graphs_equal_constructor_built_graphs(history):
    """A blown-up graph, patched from its parent's tables, is the graph
    the constructor builds from the blown-up weights and edges: equal,
    with the same hash, vertex order and positions, ends, nodes,
    neighbours, intersection matrix, branch determinants and rooted tree.
    The ids are multiples of 3, so new vertices land inside the vertex
    order and below the old root: a blown-up graph is rooted at its own
    least id.  Its elimination, run on first read, lists parents before
    children along edges, Q_v is the product of P over v's children, and
    each slice of the preorder is a subtree."""
    for k, event in enumerate(history.events):
        derived = history.graph_after(k)
        built = _replayed(history.graph_before(k), event)
        assert derived == built and hash(derived) == hash(built)
        assert (derived.vertex_ids, derived.edges, derived.ends,
                derived.nodes) == (built.vertex_ids, built.edges, built.ends,
                                   built.nodes)
        for v in built.vertex_ids:
            assert derived.index(v) == built.index(v)
            assert derived.neighbors(v) == built.neighbors(v)
            assert derived.weight(v) == built.weight(v)
        assert derived.intersection_matrix() == built.intersection_matrix()
        assert derived.branch_determinants() == built.branch_determinants()
        assert derived.rooted_tree() == built.rooted_tree()
        assert derived._rooted == built._rooted

        order, parent, below, rest = derived._rooted
        root = derived.vertex_ids[0]
        assert order[0] == root and parent[root] is None
        assert sorted(order) == list(derived.vertex_ids)
        place = {v: i for i, v in enumerate(order)}
        assert all(place[parent[v]] < place[v]
                   and derived.has_edge(parent[v], v) for v in order[1:])
        assert all(rest[v] == prod(below[c] for c in derived.neighbors(v)
                                   if c != parent[v]) for v in order)
        preorder, _, size = derived.rooted_tree()
        for i, v in enumerate(preorder):
            assert set(preorder[i:i + size[v]]) == {
                u for u in order if _descends(u, v, parent)}


def test_blowup_with_a_nonnegative_weight_is_an_internal_error(tree_h12):
    """A change to a weight >= 0 is not a change from w to w - 1, so the
    certificate refuses it before any table is patched."""
    from splicemult.graph import BlowupEvent, _blown_up

    event = BlowupEvent(kind="edge", center=(1, 5), new_vertex=11,
                        weight_changes=((1, -2, 0), (5, -2, -3)))
    with pytest.raises(InternalError, match="^blowup produced an invalid "
                       "graph: vertex 1 goes from -2 to 0, not from -2 to "
                       "-3$"):
        _blown_up(tree_h12, event)


def test_blown_up_graph_that_is_not_definite_is_an_internal_error(tree_h12):
    """A blown-up graph eliminates on first read of its rooted tree, and
    one that is not negative definite there is a bug, not invalid input:
    here its new vertex is given weight 1 after the certificate."""
    h, event = blowup_edge(tree_h12, 1, 5)
    h._weights[event.new_vertex] = 1
    with pytest.raises(InternalError, match="^blowup produced an invalid "
                       "graph: intersection matrix is not negative "
                       "definite$"):
        h.rooted_tree()


@given(st.sets(st.integers(-3, 12), min_size=2, max_size=9))
def test_fresh_id_is_the_least_unused_positive_id(ids):
    """The bisection over the sorted ids agrees with a scan of 1, 2, ...,
    also when ids are zero or negative."""
    from splicemult.graph import _fresh_id

    chain = sorted(ids)
    g = ResolutionGraph(dict.fromkeys(chain, -2), zip(chain, chain[1:]))
    assert _fresh_id(g) == next(i for i in range(1, 20) if i not in ids)


def test_blowup_failing_a_constructor_check_is_an_internal_error(
        tree_h12, monkeypatch):
    """A blowup of a valid graph is valid again, so a derived graph that
    fails its certificate is a bug (exit 4), never invalid input (exit
    1).  The certificate pins every weight change to w -> w - 1, so it
    also refuses changes that keep the form definite: here every centre
    vertex loses 2 instead of 1."""
    lower_centres_twice(monkeypatch)
    prefix = "^blowup produced an invalid graph: "
    with pytest.raises(InternalError, match=prefix + "vertex 1 goes from -2 "
                       "to -4, not from -2 to -3$"):
        blowup_edge(tree_h12, 1, 5)
    with pytest.raises(InternalError, match=prefix + "vertex 1 goes from -2 "
                       "to -4, not from -2 to -3$"):
        blowup_end_point(tree_h12, 1)
    with pytest.raises(InternalError, match=prefix + "vertex 2 goes from -2 "
                       "to -4, not from -2 to -3$"):
        GraphHistory(tree_h12).blowup_end(2)


@pytest.mark.parametrize("center, weight_changes, reason", [
    # vertex 8 rises to -1, where the form is no longer definite (P_8 < 0
    # rooted at 1); the certificate refuses the change itself
    ((7, 8), ((7, -2, -3), (8, -2, -1)),
     r"vertex 8 goes from -2 to -1, not from -2 to -3"),
    # the centre vertex 1 loses 2, the other centre vertex 5 loses 1
    ((1, 5), ((1, -2, -4), (5, -2, -3)),
     r"vertex 1 goes from -2 to -4, not from -2 to -3"),
    # a weight change at vertex 6, off the centre (1, 5)
    ((1, 5), ((1, -2, -3), (6, -4, -5)),
     r"the weights change at \[1, 6\], not at the centre \[1, 5\]"),
    # an edge blowup that lowers only one of its two centre vertices
    ((1, 5), ((5, -2, -3),),
     r"the weights change at \[5\], not at the centre \[1, 5\]"),
])
def test_blowup_certificate_names_the_vertex_and_the_check(
        tree_h12, center, weight_changes, reason):
    from splicemult.graph import _blown_up

    event = BlowupEvent(kind="edge", center=center, new_vertex=11,
                        weight_changes=weight_changes)
    with pytest.raises(InternalError, match=f"^blowup produced an invalid "
                       f"graph: {reason}$"):
        _blown_up(tree_h12, event)


def test_pullback_preserves_pairing_chain(a2_chain):
    basis = dual_cycles(a2_chain)
    hist = GraphHistory(a2_chain)
    event = hist.blowup_edge(1, 2)
    e1, e2 = dual_cycle(basis, 1), dual_cycle(basis, 2)
    p1 = pullback_vertex_cycle(hist.current, event, e1)
    p2 = pullback_vertex_cycle(hist.current, event, e2)
    assert intersect(p1, p1) == intersect(e1, e1) == Fraction(-2, 3)
    assert intersect(p1, p2) == intersect(e1, e2) == Fraction(-1, 3)


def test_pullback_rejects_wrong_graph(a2_chain, tree_h12):
    hist = GraphHistory(a2_chain)
    event = hist.blowup_edge(1, 2)
    wrong = QCycle.zero(tree_h12)
    with pytest.raises(InternalError, match="not indexed by the pre-event"):
        pullback_vertex_cycle(hist.current, event, wrong)


def test_pullback_properties_random():
    """Pairing preserved, duals of old vertices pull back to new duals, and
    |H| is a blowup invariant."""
    rng = random.Random(23)
    for g in random_trees(seed=101, count=8):
        basis = dual_cycles(g)
        order = discriminant_group(g).order
        hist = GraphHistory(g)
        if rng.random() < 0.5:
            event = hist.blowup_edge(*rng.choice(g.edges))
        else:
            event = hist.blowup_end(rng.choice(g.ends))
        new_graph = hist.current
        new_basis = dual_cycles(new_graph)
        assert discriminant_group(new_graph).order == order

        for _ in range(3):
            c1 = QCycle(g, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in g.vertex_ids])
            c2 = QCycle(g, [Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                            for _ in g.vertex_ids])
            p1 = pullback_vertex_cycle(new_graph, event, c1)
            p2 = pullback_vertex_cycle(new_graph, event, c2)
            assert intersect(p1, p2) == intersect(c1, c2)

        for v in g.vertex_ids:
            pb = pullback_vertex_cycle(new_graph, event, dual_cycle(basis, v))
            assert pb == dual_cycle(new_basis, v)
