"""Weighted dual graphs and their blowup transformations.

A resolution graph is a connected tree of at least two vertices, each
carrying an integer weight <= -1, whose intersection matrix (weights on the
diagonal, 1 for every edge) is negative definite.  Graphs are immutable;
blowups return a fresh graph together with a bookkeeping event, and a
GraphHistory strings events together while tracking which vertex carries
each original end's curve variable.

The constructor checks negative definiteness by a leaf-first elimination
of the tree rooted at its least id, walked in depth-first preorder, and
keeps that one rooted order, which the branch determinants, the tree
solve (lattice) and the branches of the monomial condition (monomial)
read instead of walking the tree again.  A blown-up graph is its
parent's tables, patched, with a certificate that its weight changes are
exactly the blowup's; it eliminates only if the rooted tree is read.
"""

import json
from bisect import bisect_left, bisect_right, insort
from collections import namedtuple
from types import MappingProxyType

from .errors import InputError, InternalError


NOT_A_TREE = "graph is not a connected tree"
NOT_DEFINITE = "intersection matrix is not negative definite"


class ResolutionGraph:
    """Immutable vertex-weighted tree with negative definite form."""

    __slots__ = ("_ids", "_pos", "_weights", "_edges", "_adj", "_ends",
                 "_nodes", "_rooted")

    def __init__(self, weights, edges):
        """weights: mapping vertex id -> weight; edges: iterable of id pairs."""
        items = sorted(weights.items())
        if not {*map(type, weights), *map(type, weights.values())} <= {int}:
            raise InputError("vertex ids and weights must be integers")
        if len(items) < 2:
            raise InputError("a resolution graph needs at least 2 vertices")
        for v, w in items:
            if w >= 0:
                raise InputError(f"vertex {v} has weight {w} >= 0")
        self._ids = tuple(v for v, _ in items)
        self._pos = dict(zip(self._ids, range(len(items))))
        self._weights = dict(items)

        seen = set()
        adj = {v: [] for v in self._ids}
        for pair in edges:
            a, b = pair
            if a not in self._pos or b not in self._pos:
                raise InputError(f"edge {pair!r} references an unknown vertex")
            if a == b:
                raise InputError(f"self-loop at vertex {a}")
            key = (a, b) if a < b else (b, a)
            if key in seen:
                raise InputError(f"duplicate edge {key}")
            seen.add(key)
            adj[a].append(b)
            adj[b].append(a)
        self._edges = tuple(sorted(seen))
        self._adj = {v: tuple(sorted(ns)) for v, ns in adj.items()}

        if len(self._edges) != len(self._ids) - 1:
            raise InputError(NOT_A_TREE)
        self._ends = tuple(v for v in self._ids if len(self._adj[v]) == 1)
        self._nodes = tuple(v for v in self._ids if len(self._adj[v]) >= 3)

        self._rooted = self._eliminate_leaves()
        if self._rooted is None:
            raise InputError(NOT_DEFINITE)

    def _elimination(self):
        """The leaf-first elimination (see _eliminate_leaves).  The
        constructor keeps it; a blown-up graph eliminates on first read,
        and a blown-up graph that is not definite is a bug."""
        if self._rooted is None:
            self._rooted = self._eliminate_leaves()
            if self._rooted is None:
                _invalid(NOT_DEFINITE)
        return self._rooted

    def _eliminate_leaves(self):
        """Symmetric elimination of -I(E) in O(n), leaves first, in integers.

        By Sylvester's criterion -I(E) is positive definite iff every pivot
        of a symmetric elimination is positive, in any elimination order.
        On a tree, eliminating a leaf creates no fill-in: it only subtracts
        1/pivot from the diagonal entry of its one remaining neighbour.
        Rooted at any vertex, the pivot at v is P_v / Q_v, where P_v is the
        determinant of -I(E) on the subtree below v and Q_v = prod_c P_c
        over v's children:  P_v = -w_v * Q_v - Q_v * sum_c Q_c / P_c.  The
        sum is kept over the common denominator Q_v, so no division is
        made, and the form is negative definite iff every P_v > 0.

        Rooted at the first vertex id, returns (order, parent, size, P, Q):
        the vertices in depth-first preorder, children in ascending id
        order, each one's parent (None at the root), each subtree's size,
        so that order[i:i + size[v]] is v's subtree for v = order[i], and
        the maps v -> P_v and v -> Q_v; or None at the first pivot that is
        not positive.  The walk is also the connectivity test: with n - 1
        edges the graph is a tree exactly when the walk reaches every
        vertex, and InputError(NOT_A_TREE) is raised, before any pivot,
        when it does not.
        """
        adj = self._adj
        root = self._ids[0]
        parent = {root: None}
        order = []
        stack = [root]
        while stack:
            v = stack.pop()
            order.append(v)
            for u in reversed(adj[v]):
                if u not in parent:
                    parent[u] = v
                    stack.append(u)
        if len(order) != len(self._ids):
            raise InputError(NOT_A_TREE)
        weights = self._weights
        below = {}
        size = dict.fromkeys(order, 1)
        q = dict.fromkeys(order, 1)  # Q_v over the children seen so far
        s = dict.fromkeys(order, 0)  # Q_v * sum_c Q_c / P_c over them
        for v in reversed(order):
            det = below[v] = -weights[v] * q[v] - s[v]
            if det <= 0:
                return None
            p = parent[v]
            if p is not None:
                s[p] = s[p] * det + q[v] * q[p]
                q[p] *= det
                size[p] += size[v]
        return order, parent, size, below, q

    def rooted_tree(self):
        """(order, parent, size) of the tree the leaf-first elimination
        rooted at the graph's least id: the vertices in depth-first
        preorder, each one's parent (None at the root), and each subtree's
        size, so that order[i:i + size[v]] is v's subtree for v = order[i].
        Shared: do not change it."""
        return self._elimination()[:3]

    def branch_determinants(self):
        """det(-I(E)) and the branch determinants of every directed edge.

        Returns (det, branch), where branch[p, c] = D(p -> c) is det(-I)
        on the component holding c when the edge (p, c) is cut.  The
        constructor's leaf-first elimination gives D(parent -> c) = P_c;
        one pass from the root gives the other direction, with no second
        elimination.  Cutting an edge (v, c) splits -I into two blocks
        joined by one entry -1, so
        det = D(v -> c) D(c -> v) - R(v -> c) R(c -> v), where R(v -> c) is
        the determinant of c's component with c removed (1 when that is
        empty): Q_c for a child c, and prod_{y != c} D(v -> y) on v's
        side.  Each division is exact.  O(n) integer steps, no recursion.
        """
        order, parent, _, below, rest = self._elimination()
        det = below[order[0]]
        branch = {}
        for v in order:
            p = parent[v]
            around = rest[v] if p is None else rest[v] * branch[v, p]
            for c in self._adj[v]:
                if c != p:
                    pc = branch[v, c] = below[c]
                    branch[c, v] = (det + rest[c] * (around // pc)) // pc
        return det, branch

    # --- basic queries ------------------------------------------------------

    @property
    def vertex_ids(self):
        return self._ids

    @property
    def edges(self):
        return self._edges

    def __len__(self):
        return len(self._ids)

    def __contains__(self, v):
        return v in self._pos

    def index(self, v):
        try:
            return self._pos[v]
        except KeyError:
            raise InternalError(f"vertex {v} is not in the graph") from None

    def weight(self, v):
        self.index(v)
        return self._weights[v]

    def neighbors(self, v):
        self.index(v)
        return self._adj[v]

    def degree(self, v):
        """Valence delta_v = number of neighbours."""
        return len(self.neighbors(v))

    def has_edge(self, v, w):
        return v in self._pos and w in self._adj[v]

    @property
    def ends(self):
        """Vertices of valence 1, in id order."""
        return self._ends

    @property
    def nodes(self):
        """Vertices of valence >= 3, in id order."""
        return self._nodes

    def intersection_matrix(self):
        """Symmetric matrix: weights on the diagonal, 1 for each edge."""
        n = len(self._ids)
        m = [[0] * n for _ in range(n)]
        for i, v in enumerate(self._ids):
            m[i][i] = self._weights[v]
            for u in self._adj[v]:
                m[i][self._pos[u]] = 1
        return m

    # --- identity -------------------------------------------------------------

    def _key(self):
        return (self._ids, tuple(self._weights[v] for v in self._ids),
                self._edges)

    def __eq__(self, other):
        return isinstance(other, ResolutionGraph) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"ResolutionGraph({len(self._ids)} vertices, "
                f"ends={list(self.ends)}, nodes={list(self.nodes)})")


def graph_from_dict(obj):
    """Build a validated graph from a parsed input document."""
    if not isinstance(obj, dict):
        raise InputError("graph document must be a JSON object")
    try:
        vertices = obj["vertices"]
        edges = obj["edges"]
    except (KeyError, TypeError):
        raise InputError("graph document needs 'vertices' and 'edges'") from None
    if not isinstance(vertices, list) or not isinstance(edges, list):
        raise InputError("'vertices' and 'edges' must be lists")
    weights = {}
    for entry in vertices:
        if not isinstance(entry, dict) or "id" not in entry or "weight" not in entry:
            raise InputError(f"bad vertex entry {entry!r}")
        v, w = entry["id"], entry["weight"]
        if type(v) is not int or type(w) is not int:
            raise InputError(f"bad vertex entry {entry!r}")
        if v in weights:
            raise InputError(f"duplicate vertex id {v}")
        weights[v] = w
    pairs = []
    for e in edges:
        if (not isinstance(e, list) or len(e) != 2
                or type(e[0]) is not int or type(e[1]) is not int):
            raise InputError(f"bad edge entry {e!r}")
        pairs.append((e[0], e[1]))
    return ResolutionGraph(weights, pairs)


def parse_json(text):
    """json.loads(text); malformed or too deeply nested JSON is an InputError."""
    try:
        return json.loads(text)
    except ValueError as exc:  # also an int past sys.get_int_max_str_digits()
        raise InputError(f"invalid JSON: {exc}") from None
    except RecursionError:
        raise InputError("invalid JSON: nested too deeply to parse") from None


def parse_and_validate(text):
    """Parse a JSON graph document and verify every graph invariant."""
    return graph_from_dict(parse_json(text))


def is_minimal(g):
    """True when no (-1)-vertex of valence <= 2 exists (nothing blow-downable)."""
    return all(g.weight(v) != -1 or g.degree(v) >= 3 for v in g.vertex_ids)


def branches(g, v):
    """Connected components of the graph minus v, one per neighbour of v.

    Read off the rooted tree (ResolutionGraph.rooted_tree): each child of
    v contributes its subtree, a slice of the preorder, and unless v is
    the root the rest of the preorder, outside v's subtree, is the
    component through v's parent.  Components are returned as frozensets
    ordered by (size, sorted vertex list) so the output is deterministic.
    """
    g.index(v)
    order, parent, size = g.rooted_tree()
    start = order.index(v)
    stop = start + size[v]
    comps = [] if parent[v] is None else [order[:start] + order[stop:]]
    i = start + 1
    while i < stop:
        j = i + size[order[i]]
        comps.append(order[i:j])
        i = j
    comps = sorted(map(sorted, comps), key=lambda c: (len(c), c))
    return tuple(map(frozenset, comps))


class BlowupEvent(namedtuple("BlowupEvent",
                              "kind center new_vertex weight_changes")):
    """One blowup: kind is 'edge' (center = the two edge vertices) or 'end'
    (center = the end vertex whose boundary point was blown up), and
    weight_changes a tuple of (vertex, old weight, new weight).  A named
    tuple: immutable, and built with no per-field set-up."""

    __slots__ = ()


def _fresh_id(g):
    """The least positive integer that is not a vertex id.  Sorted, the
    positive ids p_0 < p_1 < ... have p_k = k + 1 up to the first gap and
    p_k > k + 1 from there on, so the gap is found by bisection, and at
    once when the ids are 1..n."""
    ids = g.vertex_ids
    first = bisect_right(ids, 0)
    count = len(ids) - first
    if ids[-1] == count:
        return count + 1
    return 1 + bisect_left(range(count), True,
                           key=lambda k: ids[first + k] > k + 1)


def _blown_up(g, event):
    """The graph that `event` derives from g.

    g's tables are copied and patched where the blowup touches them: the
    new vertex u of weight -1, the centre's weights and adjacency, the
    edges, and the ends in an end blowup (the nodes never change).  The
    certificate is that the event's weight changes are exactly its centre
    vertices, each going from its weight w in g to w - 1.  That suffices:
    with those weights h is the blowup of g, whose lattice is the
    orthogonal sum pi*L + Z E_u with E_u^2 = -1.  So h is negative
    definite, and every determinant identity of the blowup follows: each
    subtree of h that holds u has the determinant of the subtree of g it
    blows up, and every other subtree is g's.  A blowup of a negative
    definite tree is again one, so a failed check is a bug, not invalid
    input.  h eliminates only when its elimination is first read (see
    _elimination).
    """
    u, centre = event.new_vertex, event.center
    h = ResolutionGraph.__new__(ResolutionGraph)
    weights = h._weights = dict(g._weights)
    weights[u] = -1
    changed = [v for v, _, _ in event.weight_changes]
    if sorted(changed) != sorted(centre):
        _invalid(f"the weights change at {changed}, not at the centre "
                 f"{list(centre)}")
    for v, old, new in event.weight_changes:
        w = weights[v]
        if (old, new) != (w, w - 1):
            _invalid(f"vertex {v} goes from {old} to {new}, not from {w} "
                     f"to {w - 1}")
        weights[v] = new
    k = bisect_left(g._ids, u)
    ids = h._ids = g._ids[:k] + (u,) + g._ids[k:]
    pos = h._pos = dict(g._pos)
    for j in range(k, len(ids)):
        pos[ids[j]] = j
    adj = h._adj = dict(g._adj)
    adj[u] = centre
    edges = list(g._edges)
    if event.kind == "edge":
        v, w = centre
        del edges[bisect_left(edges, centre)]
        adj[v], adj[w] = _swapped(adj[v], w, u), _swapped(adj[w], v, u)
        h._ends = g._ends
    else:
        (p,) = centre
        adj[p] = tuple(sorted(adj[p] + (u,)))
        h._ends = tuple(sorted({*g._ends, u} - {p}))
    for v in centre:
        insort(edges, (min(u, v), max(u, v)))
    h._edges = tuple(edges)
    h._nodes = g._nodes
    h._rooted = None
    return h


def _swapped(neighbours, old, new):
    """The sorted tuple `neighbours` with `old` replaced by `new`."""
    neighbours = list(neighbours)
    neighbours.remove(old)
    insort(neighbours, new)
    return tuple(neighbours)


def _invalid(reason):
    raise InternalError(f"blowup produced an invalid graph: {reason}")


def blowup_edge(g, v, w):
    """Blow up the intersection point of the edge (v, w).

    Inserts a fresh (-1)-vertex between v and w and decrements both their
    weights.  The new graph patches g's tables and certifies its weight
    changes (see _blown_up).
    Dual cycles follow by pullback, E'_x* = pi*(E_x*), with no new solve.
    """
    if not g.has_edge(v, w):
        raise InternalError(f"({v}, {w}) is not an edge")
    wv, ww = g.weight(v), g.weight(w)
    event = BlowupEvent(kind="edge", center=(min(v, w), max(v, w)),
                        new_vertex=_fresh_id(g),
                        weight_changes=((v, wv, wv - 1), (w, ww, ww - 1)))
    return _blown_up(g, event), event


def blowup_end_point(g, i):
    """Blow up a point of the end curve on the end vertex i.

    Attaches a fresh (-1)-leaf to i and decrements i's weight; the curve
    variable that lived on i moves to the new leaf (tracked by GraphHistory).
    """
    g.index(i)
    if g.degree(i) != 1:
        raise InternalError(f"vertex {i} is not an end")
    wi = g.weight(i)
    event = BlowupEvent(kind="end", center=(i,), new_vertex=_fresh_id(g),
                        weight_changes=((i, wi, wi - 1),))
    return _blown_up(g, event), event


class GraphHistory:
    """Append-only record of the blowups applied to a graph: the graph they
    lead to (`current`) and the events, in order.

    end_map sends each original end index to the vertex currently carrying
    its curve variable: edge blowups never move it, an end-point blowup moves
    it onto the new leaf.  It is built from the ascending ends and a blowup
    only reassigns a label's value, so it iterates in label order.  It is
    a read-only view of the history's own map, not a copy.
    """

    def __init__(self, graph):
        self.current = graph
        self._events = []
        self._end_map = {e: e for e in graph.ends}

    @property
    def events(self):
        return tuple(self._events)

    @property
    def end_map(self):
        return MappingProxyType(self._end_map)

    def blowup_edge(self, v, w):
        self.current, event = blowup_edge(self.current, v, w)
        self._events.append(event)
        return event

    def blowup_end(self, label):
        if label not in self._end_map:
            raise InternalError(f"{label} is not a tracked end index")
        self.current, event = blowup_end_point(self.current,
                                               self._end_map[label])
        self._events.append(event)
        self._end_map[label] = event.new_vertex
        return event
