"""Rational cycles, the intersection pairing, and the discriminant group.

The cycle lattice L is freely generated by the vertices; the dual lattice
L* is generated by the dual cycles E_v* with E_v* . E_w = -delta_vw, i.e.
the columns of B = (-I)^{-1}.  The finite quotient H = L*/L is computed
from the Smith normal form of -I and drives all subgroup arithmetic, which
is done by explicit element enumeration (exactness beats cleverness at the
orders that occur here).
"""

import itertools
from fractions import Fraction
from math import gcd, lcm

from .errors import (
    CapExceededError,
    GraphMismatchError,
    IndexMismatchError,
    InternalError,
    UnknownVertexError,
)
from .linalg import invert_rational_matrix, mat_vec, smith_normal_form

DEFAULT_GROUP_CAP = 5000


class QCycle:
    """Rational cycle on a fixed graph, stored in vertex-basis coordinates."""

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph, coeffs):
        if len(coeffs) != len(graph):
            raise GraphMismatchError("coefficient count != vertex count")
        self.graph = graph
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    @classmethod
    def zero(cls, graph):
        return cls(graph, (0,) * len(graph))

    @classmethod
    def from_coefficients(cls, graph, mapping):
        """Build from a map vertex id -> coefficient (missing ids mean 0)."""
        for v in mapping:
            if v not in graph:
                raise UnknownVertexError(f"vertex {v} is not in the graph")
        return cls(graph, [mapping.get(v, 0) for v in graph.vertex_ids])

    def coefficient(self, v):
        """M_v(D): the coefficient of E_v in this cycle."""
        return self.coeffs[self.graph.index(v)]

    def as_dict(self):
        return {v: c for v, c in zip(self.graph.vertex_ids, self.coeffs)}

    # --- arithmetic -----------------------------------------------------------

    def _check(self, other):
        if self.graph != other.graph:
            raise GraphMismatchError("cycles live on different graphs")

    def __add__(self, other):
        self._check(other)
        return QCycle(self.graph, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        self._check(other)
        return QCycle(self.graph, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return QCycle(self.graph, [-a for a in self.coeffs])

    def __mul__(self, scalar):
        return QCycle(self.graph, [a * scalar for a in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, QCycle) and self.graph == other.graph
                and self.coeffs == other.coeffs)

    def __hash__(self):
        return hash((self.graph, self.coeffs))

    def __repr__(self):
        parts = ", ".join(f"{v}: {c}" for v, c in self.as_dict().items() if c)
        return f"QCycle({{{parts}}})"

    # --- cycle predicates -------------------------------------------------------

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def is_integral(self):
        return all(c.denominator == 1 for c in self.coeffs)

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)

    # --- intersection pairing -----------------------------------------------

    def _apply_form(self):
        """I(E) applied to the coefficient vector, via the adjacency lists."""
        g = self.graph
        out = []
        for v in g.vertex_ids:
            val = g.weight(v) * self.coefficient(v)
            for u in g.neighbors(v):
                val += self.coefficient(u)
            out.append(val)
        return out

    def dot_vertex(self, v):
        """Intersection number D . E_v."""
        i = self.graph.index(v)
        return self._apply_form()[i]

    def dot(self, other):
        self._check(other)
        applied = other._apply_form()
        return sum(a * b for a, b in zip(self.coeffs, applied))


def intersect(d1, d2):
    """Exact intersection number d1 . d2 (symmetric, bilinear)."""
    return d1.dot(d2)


def to_dual_coordinates(d):
    """Coordinates of a cycle in the dual basis: (-D . E_v)_v.

    Expanding sum_v coord_v * E_v* reproduces the cycle exactly.
    """
    return tuple(-x for x in d._apply_form())


class DualBasis:
    """The matrix B = (-I)^{-1}; column v holds the coefficients of E_v*.

    The constructor inverts -I exactly.  A blown-up graph's basis instead
    comes from `pulled_back`, which updates the previous basis in O(n^2)
    without any inversion.
    """

    __slots__ = ("graph", "matrix", "_duals")

    def __init__(self, graph):
        neg = [[-x for x in row] for row in graph.intersection_matrix()]
        self.graph = graph
        self.matrix = [tuple(row) for row in invert_rational_matrix(neg)]
        self._duals = {}

    @classmethod
    def pulled_back(cls, history, event, basis):
        """The dual basis of the graph after `event`, from the one before it.

        Blowing up a point is a pullback pi*, so for an old vertex v,
        E'_v* = pi*(E_v*): the old entries stay and the new vertex u gets
        sum_{c in centre} B[c][v].  The new vertex's own dual is
        E_u* = E_u + sum_{c in centre} pi*(E_c*), whose entry at u is
        1 + sum_{c, c' in centre} B[c][c'].
        """
        k = history.event_index(event)
        pre, post = history.graph_before(k), history.graph_after(k)
        if basis.graph != pre:
            raise IndexMismatchError(
                "basis is not indexed by the pre-event graph")
        centre = [pre.index(c) for c in event.center]
        at_new = [sum(row[c] for c in centre) for row in basis.matrix]
        p = post.index(event.new_vertex)
        matrix = [row[:p] + (x,) + row[p:]
                  for row, x in zip(basis.matrix, at_new)]
        new_row = list(at_new)
        new_row.insert(p, 1 + sum(at_new[c] for c in centre))
        matrix.insert(p, tuple(new_row))
        obj = cls.__new__(cls)
        obj.graph = post
        obj.matrix = matrix
        obj._duals = {}
        return obj

    def entry(self, a, b):
        """Coefficient of E_a in E_b* (symmetric; equals -E_a* . E_b*)."""
        return self.matrix[self.graph.index(a)][self.graph.index(b)]

    def dual_cycle(self, v):
        """The cycle E_v* with E_v* . E_w = -delta_vw; all entries positive."""
        if v not in self._duals:
            j = self.graph.index(v)
            self._duals[v] = QCycle(self.graph,
                                    [row[j] for row in self.matrix])
        return self._duals[v]

    def expand(self, coords):
        """The cycle sum_v coords_v * E_v* in vertex coordinates (= B @ c)."""
        vec = _as_vector(self.graph, coords)
        return QCycle(self.graph, mat_vec(self.matrix, vec))

    def pairing(self, c1, c2):
        """Intersection of two dual-basis combinations: -c1^T B c2."""
        v1 = _as_vector(self.graph, c1)
        v2 = _as_vector(self.graph, c2)
        applied = mat_vec(self.matrix, v2)
        return -sum(a * b for a, b in zip(v1, applied))


def dual_cycles(g):
    """Dual basis of a validated graph."""
    return DualBasis(g)


def _as_vector(graph, coords):
    """Normalize dual-coordinate input (mapping or aligned sequence)."""
    if isinstance(coords, dict):
        for v in coords:
            if v not in graph:
                raise UnknownVertexError(f"vertex {v} is not in the graph")
        return [coords.get(v, 0) for v in graph.vertex_ids]
    coords = list(coords)
    if len(coords) != len(graph):
        raise GraphMismatchError("coordinate vector has wrong length")
    return coords


class DiscriminantGroup:
    """H = L*/L presented through the Smith normal form of -I(E).

    With U(-I)V = S, the class of a dual-coordinate vector c is U c reduced
    modulo the diagonal; only diagonal entries > 1 contribute.  Elements are
    normal-form tuples over the invariant factors.
    """

    __slots__ = ("graph", "basis", "snf", "invariant_factors", "order",
                 "_slots", "_u", "_uinv")

    def __init__(self, graph, basis=None):
        if basis is not None and basis.graph != graph:
            raise GraphMismatchError("dual basis was built on another graph")
        self.graph = graph
        self.basis = basis if basis is not None else DualBasis(graph)
        neg = [[-x for x in row] for row in graph.intersection_matrix()]
        self.snf = smith_normal_form(neg)
        diag = self.snf.diagonal()
        self._slots = tuple(j for j, d in enumerate(diag) if d > 1)
        self.invariant_factors = tuple(diag[j] for j in self._slots)
        order = 1
        for d in diag:
            order *= d
        self.order = order
        self._u = self.snf.U
        inv = invert_rational_matrix(self._u)
        if any(x.denominator != 1 for row in inv for x in row):
            raise InternalError("Smith transform U has a non-integral inverse")
        self._uinv = [[int(x) for x in row] for row in inv]

    @property
    def zero(self):
        return (0,) * len(self.invariant_factors)

    def project(self, coords):
        """Normal form of the class of sum_v coords_v * E_v*."""
        vec = _as_vector(self.graph, coords)
        y = mat_vec(self._u, vec)
        return tuple(y[j] % d for j, d in zip(self._slots, self.invariant_factors))

    def representative(self, nf):
        """An integer dual-coordinate vector projecting onto the normal form."""
        n = len(self.graph)
        y = [0] * n
        for j, val in zip(self._slots, nf):
            y[j] = val
        return tuple(mat_vec(self._uinv, y))

    def add(self, a, b):
        return tuple((x + y) % d for x, y, d in
                     zip(a, b, self.invariant_factors))

    def negate(self, a):
        return tuple((-x) % d for x, d in zip(a, self.invariant_factors))

    def element_order(self, nf):
        out = 1
        for x, d in zip(nf, self.invariant_factors):
            out = lcm(out, d // gcd(d, x))
        return out

    def elements(self):
        """All normal forms, in lexicographic order."""
        return [tuple(t) for t in
                itertools.product(*[range(d) for d in self.invariant_factors])]

    def pairing(self, nf1, nf2):
        """The linking pairing H x H -> Q/Z, returned as a Fraction in [0, 1)."""
        val = self.basis.pairing(self.representative(nf1),
                                 self.representative(nf2))
        return val - (val.numerator // val.denominator)


def discriminant_group(g, basis=None):
    """H = L*/L with invariant factors from the Smith normal form of I(E)."""
    return DiscriminantGroup(g, basis)


class SubgroupData:
    """A subgroup of the discriminant group with its full element set."""

    __slots__ = ("group", "generators", "elements", "order", "index",
                 "_canonical")

    def __init__(self, group, generators, elements):
        self.group = group
        self.generators = tuple(tuple(_as_vector(group.graph, g))
                                for g in generators)
        self.elements = frozenset(elements)
        self.order = len(self.elements)
        if group.order % self.order:
            raise ValueError("element set size does not divide |H|")
        self.index = group.order // self.order
        self._canonical = None

    @property
    def canonical_elements(self):
        if self._canonical is None:
            self._canonical = tuple(sorted(self.elements))
        return self._canonical

    def contains(self, nf):
        return nf in self.elements

    def contains_vector(self, coords):
        return self.group.project(coords) in self.elements

    def minimal_generators(self):
        """Small deterministic generating set (highest order first)."""
        grp = self.group
        chosen = []
        span = {grp.zero}
        for nf in sorted(self.elements,
                         key=lambda e: (-grp.element_order(e), e)):
            if nf in span:
                continue
            chosen.append(nf)
            span = _closure(grp, chosen)
            if len(span) == self.order:
                break
        return tuple(chosen)

    def __eq__(self, other):
        return (isinstance(other, SubgroupData)
                and self.group.graph == other.group.graph
                and self.elements == other.elements)

    def __hash__(self):
        return hash((self.group.graph, self.elements))

    def __repr__(self):
        return f"SubgroupData(order={self.order}, index={self.index})"


def _closure(group, generator_nfs):
    """Additive closure of the given normal forms (contains zero)."""
    elems = {group.zero}
    frontier = [group.zero]
    while frontier:
        x = frontier.pop()
        for g in generator_nfs:
            y = group.add(x, g)
            if y not in elems:
                elems.add(y)
                frontier.append(y)
    return elems


def _check_cap(group, cap):
    if group.order > cap:
        raise CapExceededError(
            f"|H| = {group.order} exceeds the enumeration cap {cap}")


def subgroup(generators, group, cap=DEFAULT_GROUP_CAP):
    """Subgroup of H generated by dual-coordinate integer vectors."""
    _check_cap(group, cap)
    nfs = [group.project(g) for g in generators]
    return SubgroupData(group, generators, _closure(group, nfs))


def trivial_subgroup(group, cap=DEFAULT_GROUP_CAP):
    return subgroup([], group, cap)


def full_subgroup(group, cap=DEFAULT_GROUP_CAP):
    """H itself, generated by the classes of all dual cycles E_v*."""
    n = len(group.graph)
    gens = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    sub = subgroup(gens, group, cap)
    if sub.order != group.order:
        raise InternalError(
            f"the dual cycles generate {sub.order} of {group.order} classes")
    return sub


def perp_member(coords, h1):
    """Whether the class of sum coords_v E_v* pairs integrally with H1.

    This is the computational content of membership in Theta^{-1}(H1-perp):
    a character is trivial on H1 exactly when all pairings against the
    generators are integers.
    """
    basis = h1.group.basis
    return all(basis.pairing(coords, g).denominator == 1
               for g in h1.generators)


def flat_subgroup(h1, cap=DEFAULT_GROUP_CAP):
    """H1-flat: all classes of H pairing integrally with every element of H1."""
    group = h1.group
    _check_cap(group, cap)
    kept = []
    for nf in group.elements():
        rep = group.representative(nf)
        if all(group.basis.pairing(rep, g).denominator == 1
               for g in h1.generators):
            kept.append(nf)
    data = SubgroupData(group, [], kept)
    gens = [group.representative(nf) for nf in data.minimal_generators()]
    return SubgroupData(group, gens, kept)


def enumerate_subgroups(group, cap=DEFAULT_GROUP_CAP):
    """Every subgroup of H exactly once, deterministically ordered.

    Brute-force closure search; order is (subgroup order, sorted element
    list).
    """
    _check_cap(group, cap)
    all_elems = group.elements()
    trivial = frozenset({group.zero})
    seen = {trivial}
    queue = [trivial]
    while queue:
        current = queue.pop()
        gens = sorted(current)
        for x in all_elems:
            if x in current:
                continue
            bigger = frozenset(_closure(group, gens + [x]))
            if bigger not in seen:
                seen.add(bigger)
                queue.append(bigger)
    out = []
    for elems in sorted(seen, key=lambda s: (len(s), sorted(s))):
        data = SubgroupData(group, [], elems)
        gens = [group.representative(nf) for nf in data.minimal_generators()]
        out.append(SubgroupData(group, gens, elems))
    return out
