"""The dual basis, the discriminant group and its subgroups.

The cycle lattice L is freely generated by the vertices; the dual lattice
L* is generated by the dual cycles E_v* with E_v* . E_w = -delta_vw, i.e.
the columns of B = (-I)^{-1}.  B is carried as integer numerators over one
denominator |H| = det(-I), and so is every rational cycle of the program:
a cycle is the integer vector |H| * D in vertex order.  The linking
pairing and the flat subgroup's congruences run in integers, and a
rational value is written as text ("p/q", _FractionText) only when it is
printed.  The end duals generate the finite quotient H = L*/L, so its
invariant factors d are read off the Smith form of B's k x k end block
and checked against B on every command.  H is Z^r / diag(d) Z^r in the
Smith coordinates of -I (rows of U, representatives from V), built,
checked against the end block's factors and certified only when a
caller projects onto them or pairs in them (see DiscriminantGroup).  A
subgroup H1 is the lattice between diag(d) Z^r and Z^r that is its
preimage, stored as a canonical Hermite basis and as nothing else:
generators given as dual-coordinate vectors are projected and reduced
to that basis at once; membership, order and index come from it; its
rows' pairings with the unit classes (`pairings`, hnf * P for the
pairing matrix P) give H1-flat and the zero-sum search's congruences;
and the elements of H1 are listed only when a caller asks for them.
"""

import itertools
from math import gcd, lcm, prod
from operator import itemgetter, mul

from .errors import CapExceededError, InternalError
from .linalg import _hermite_reduce, _replay, mat_vec, smith_normal_form

# enumerate_subgroups lists every element of every subgroup for `table`;
# this bounds that output.
ENUMERATION_CAP = 5000


class DualBasis:
    """The matrix B = (-I)^{-1} = num / den; column v holds the
    coefficients of E_v*.

    `num` is an integer matrix and den = det(-I) = |H|: every dual entry
    has a denominator dividing |H|, so one common denominator carries the
    whole basis, and its readers (the group's pairing matrix, the
    monomial searches) run in integers.  The constructor solves -I on
    the tree (_tree_solve) by the path formula of Eisenbud and Neumann:
    num[u][v] is the product of the determinants of the components of
    the graph minus the path from u to v.  The branch determinants come from the graph's own rooted
    elimination, and each row from its parent's by rerooting, O(n^2)
    integer steps in all; it then checks num (-I) = den Id entry by
    entry, over the edges, and raises InternalError on a mismatch.  The
    blowup loop solves only the input graph: past it, the zero-sum search
    carries the rows it reads by the pullback E'_x* = pi*(E_x*) (see
    monomial.ZeroSumSearch), and blowups keep |det I(E)|, so `den` is |H|
    throughout.
    """

    __slots__ = ("graph", "num", "den")

    def __init__(self, graph):
        self.graph = graph
        self.num, self.den = _tree_solve(graph)


def _tree_solve(graph):
    """(num, den) with num / den = (-I(E))^{-1} and den = det(-I), from
    the branch determinants and the path formula, checked against -I."""
    den, branch = graph.branch_determinants()
    num = _path_numerators(graph, branch)
    _check_inverse(graph, num, den)
    return num, den


def _path_numerators(graph, branch):
    """The numerators det(-I) * (-I)^{-1} on a tree, from the branch
    determinants D(p -> c) of graph.branch_determinants.

    num[u][x] is the product of the determinants of the components of the
    graph minus the path from u to x; num[u][u] = prod_y D(u -> y).  Rows
    are built in the preorder of graph.rooted_tree.  The root's row takes
    one pass down the tree: a step to a child x divides out D(p -> x) (a
    factor, so exactly) and multiplies in R(p -> x) = num[x][x] / D(x -> p),
    the components below x.  A child u's row is its parent p's rerooted:
    off u's subtree the path gains u, num[u][x] = num[p][x] / D(p -> u) *
    R(p -> u); on it the path loses p, num[u][x] = num[p][x] / R(u -> p) *
    D(u -> p).  Every division is exact.  O(n^2) steps, no recursion.
    """
    order, parent, size = graph.rooted_tree()
    full = dict.fromkeys(order, 1)
    for (v, _), d in branch.items():
        full[v] *= d
    root = order[0]
    down = {root: full[root]}
    for x in order[1:]:
        p = parent[x]
        down[x] = down[p] // branch[p, x] * (full[x] // branch[x, p])
    rows = {root: list(map(down.__getitem__, order))}
    for i in range(1, len(order)):
        u = order[i]
        p = parent[u]
        j = i + size[u]
        off, up = branch[p, u], branch[u, p]  # D(p -> u), D(u -> p)
        gain, loss = full[u] // up, full[p] // off  # R(p -> u), R(u -> p)
        rows[u] = [x // loss * up if i <= k < j else x // off * gain
                   for k, x in enumerate(rows[p])]
    at = dict(zip(order, range(len(order))))
    pick = itemgetter(*map(at.__getitem__, graph.vertex_ids))
    return [pick(rows[v]) for v in graph.vertex_ids]


def _check_inverse(graph, num, den):
    """Raise InternalError unless num (-I) = den Id, one row at a time
    over the edges (_apply_form)."""
    form = _form(graph)
    for u, row in enumerate(num):
        out = _apply_form(form, row)
        out[u] -= den
        if any(out):
            raise InternalError(
                f"tree solve check num * (-I) == {den} * Id failed "
                f"at row {graph.vertex_ids[u]}")


def _form(graph):
    """-I(E) as its diagonal -w_v and its edges as index pairs, in vertex
    order."""
    return ([-w for w in map(graph.weight, graph.vertex_ids)],
            [(graph.index(a), graph.index(b)) for a, b in graph.edges])


def _apply_form(form, vec):
    """(-I) vec, which is also vec (-I): entry v is -w_v vec_v minus the
    sum of vec over v's neighbours.  O(n) on a tree."""
    diagonal, edges = form
    out = list(map(mul, diagonal, vec))
    for a, b in edges:
        out[a] -= vec[b]
        out[b] -= vec[a]
    return out


def dual_cycles(g):
    """Dual basis of a validated graph."""
    return DualBasis(g)


class _FractionText(dict):
    """str(Fraction(x, den)) by numerator x, with `quote` on both sides,
    each built on first use.  den is positive."""

    def __init__(self, den, quote=""):
        super().__init__()
        self.den = den
        self.quote = quote

    def __missing__(self, x):
        g = gcd(x, self.den)
        text = str(x // g) if g == self.den else f"{x // g}/{self.den // g}"
        out = self[x] = self.quote + text + self.quote
        return out


def _as_vector(graph, coords):
    """Normalize dual-coordinate input (mapping or aligned sequence)."""
    if isinstance(coords, dict):
        for v in coords:
            if v not in graph:
                raise InternalError(f"vertex {v} is not in the graph")
        return [coords.get(v, 0) for v in graph.vertex_ids]
    coords = list(coords)
    if len(coords) != len(graph):
        raise InternalError("coordinate vector has wrong length")
    return coords


class DiscriminantGroup:
    """H = L*/L, read off the end block of the dual basis.

    In a splice quotient H acts diagonally on the end-curve variables, so
    the end duals E_e* generate H (peel the leaves of the tree), and the
    pairing is perfect: a -> sum_l a_l [E_l*] maps Z^k onto H with kernel
    {a : a N = 0 mod |H|} for the end block N = num[ends][ends] mod |H|
    (`end_block`, |H| b(E_l*, E_m*) up to sign).  With U N V = S
    (`end_smith`) the kernel is {a : (a U^{-1})_i = 0 mod e_i},
    e_i = |H| / gcd(|H|, s_i), so H = prod Z/e_i, and the e_i > 1 in
    reverse order are the invariant factors d_j.  Two checks tie them to
    num / den, which the tree solve gives independently: prod e_i = den,
    which also proves that the ends generate H, and d_r = den / gcd(den,
    every entry of num), the exponent of H.  den = det(-I) = |H|, so
    det I(E) = (-1)^n |H| needs no elimination of its own.

    Elements are normal-form tuples over the d_j in the Smith coordinates
    of -I, which only `project` and `pairing_matrix` read (`table`,
    `mult --subgroup`), so they are built on the first such call.  With
    U(-I)V = S the class of c in H = Z^n / (-I) Z^n is U c modulo the
    diagonal, whose entries d_j > 1 must be the end block's factors.  The
    coordinates are the slot rows U_j of U and the representatives
    rep_k = ((-I) V)[:, k] / d_k, the slot columns of U^{-1}.  They are
    certified when built: U_j (-I) = 0 mod d_j for every slot j (over the
    edges), so c -> (U_j c mod d_j)_j kills L and induces a homomorphism
    phi: H -> prod Z/d_j; U_j . rep_k = delta_jk mod d_j, so phi(rep_k)
    is the k-th unit vector and phi is onto; and |H| = den = prod d_j, so
    phi is an isomorphism, under which the unit classes rep_k are a basis
    of H.  A failed check raises InternalError and names the check.

    `pairing_matrix` is the symmetric r x r integer matrix
    P_jk = -rep_j^T num rep_k mod |H| = |H| b(e_j, e_k) mod |H| of the
    linking form b on the unit classes: |H| b(x, y) = x^T P y mod |H| for
    normal forms x, y.  `end_forms` holds the normal form of every end's
    dual E_e*: `table` builds one zero-sum search per subgroup of one
    group, and each reads every end's class.  Both are built on first use.
    """

    __slots__ = ("graph", "basis", "end_block", "end_smith", "order", "det",
                 "invariant_factors", "_coordinates", "_pairing", "_ends")

    def __init__(self, graph, basis=None):
        if basis is not None and basis.graph != graph:
            raise InternalError("dual basis was built on another graph")
        self.graph = graph
        self.basis = basis if basis is not None else DualBasis(graph)
        num, den = self.basis.num, self.basis.den
        at = [graph.index(e) for e in graph.ends]
        self.end_block = tuple(tuple(num[i][j] % den for j in at) for i in at)
        self.end_smith = smith_normal_form(self.end_block)
        factors = [den // gcd(den, s) for s in self.end_smith.diagonal()]
        self.invariant_factors = tuple(e for e in reversed(factors) if e > 1)
        self.order = prod(self.invariant_factors)
        if den != self.order:
            raise InternalError(f"end block check prod e_i == |H| failed: "
                                f"{self.order} != {den}")
        exponent = den // gcd(den, *itertools.chain.from_iterable(num))
        largest = self.invariant_factors[-1] if self.invariant_factors else 1
        if largest != exponent:
            raise InternalError(
                f"Smith normal form check d_r == exponent of H failed: "
                f"d_r = {largest}, |H| / gcd(|H|, num) = {exponent}")
        self.det = (-1) ** len(graph) * self.order
        self._coordinates = self._pairing = self._ends = None

    def _coords(self):
        """(slot rows of U, representatives), built and certified once."""
        if self._coordinates is None:
            rows, reps = _smith_coordinates(self)
            _certify_coordinates(self, rows, reps)
            self._coordinates = rows, reps
        return self._coordinates

    def pairing_matrix(self):
        """P_jk = |H| b(e_j, e_k) mod |H| (see above), with one product of
        `num` per unit class."""
        if self._pairing is None:
            reps = self._coords()[1]
            applied = [mat_vec(self.basis.num, rep) for rep in reps]
            self._pairing = tuple(
                tuple(-sum(map(mul, rep, col)) % self.order
                      for col in applied)
                for rep in reps)
        return self._pairing

    def end_forms(self):
        """The normal form of E_e* by end e."""
        if self._ends is None:
            self._ends = {e: self.project({e: 1}) for e in self.graph.ends}
        return self._ends

    def project(self, coords):
        """Normal form of the class of sum_v coords_v * E_v*."""
        vec = _as_vector(self.graph, coords)
        rows, _ = self._coords()
        return tuple(sum(map(mul, row, vec)) % d
                     for row, d in zip(rows, self.invariant_factors))

    def element_order(self, nf):
        out = 1
        for x, d in zip(nf, self.invariant_factors):
            out = lcm(out, d // gcd(d, x))
        return out


def _smith_coordinates(group):
    """Slot rows U_j and representatives rep_k = ((-I) V)[:, k] / d_k of
    U(-I)V = S, whose d_j > 1 must be the end block's (DiscriminantGroup)."""
    form = _form(group.graph)
    snf = smith_normal_form(
        [[-x for x in row] for row in group.graph.intersection_matrix()])
    slots = [j for j, d in enumerate(snf.diagonal()) if d > 1]
    factors = tuple(snf.S[j][j] for j in slots)
    if factors != group.invariant_factors:
        raise InternalError(
            f"Smith normal form check factors of -I == factors of the end "
            f"block failed: {factors} != {group.invariant_factors}")
    rows = tuple(tuple(snf.U[j]) for j in slots)
    reps = []
    for j, d in zip(slots, factors):
        col = _apply_form(form, [row[j] for row in snf.V])
        if any(x % d for x in col):
            raise InternalError("Smith transform U has a non-integral inverse")
        reps.append(tuple(x // d for x in col))
    return rows, tuple(reps)


def _certify_coordinates(group, rows, reps):
    """Raise InternalError unless U_j (-I) = 0 mod d_j and
    U_j . rep_k = delta_jk mod d_j for all slots j, k: the isomorphism
    certificate of DiscriminantGroup, in O(r n + r^2 n)."""
    form = _form(group.graph)
    ids = group.graph.vertex_ids
    for j, (row, d) in enumerate(zip(rows, group.invariant_factors)):
        for v, x in zip(ids, _apply_form(form, row)):
            if x % d:
                raise InternalError(
                    f"Smith normal form check U_j * (-I) == 0 mod d_j "
                    f"failed: j = {j}, d_j = {d}, column E{v}")
        for k, rep in enumerate(reps):
            if (sum(map(mul, row, rep)) - (j == k)) % d:
                raise InternalError(
                    f"Smith normal form check U_j * rep_k == delta_jk "
                    f"mod d_j failed: j = {j}, k = {k}, d_j = {d}")


def discriminant_group(g, basis=None):
    """H = L*/L, read off the end block of the dual basis."""
    return DiscriminantGroup(g, basis)


class SubgroupData:
    """A subgroup H1 of the discriminant group, stored as a lattice.

    `hnf` is the canonical Hermite basis of the preimage of H1 in the Smith
    coordinates Z^r, and the only description of H1 that the program
    keeps.  The preimage contains diag(d) Z^r, so the basis is upper
    triangular with pivots p_i dividing d_i, and [H : H1] = prod p_i.
    Membership, order and index come from the basis; its rows generate
    H1, and their pairings with the unit classes are `pairings(h1)`.
    """

    __slots__ = ("group", "hnf", "order", "index", "_canonical")

    def __init__(self, group, hnf):
        self.group = group
        self.hnf = hnf
        self.index = _pivot_product(hnf)
        self.order = group.order // self.index
        self._canonical = None

    @property
    def canonical_elements(self):
        """The elements in lexicographic order: sum c_i * row_i mod d over
        0 <= c_i < d_i / p_i, one normal form per coset of diag(d) Z^r."""
        if self._canonical is None:
            d = self.group.invariant_factors
            ranges = [range(di // row[i])
                      for i, (di, row) in enumerate(zip(d, self.hnf))]
            self._canonical = tuple(sorted(
                tuple(sum(c * row[j] for c, row in zip(cs, self.hnf)) % dj
                      for j, dj in enumerate(d))
                for cs in itertools.product(*ranges)))
        return self._canonical

    def minimal_generators(self):
        """Small generating set: highest order first, ties in lex order."""
        grp = self.group
        chosen = []
        span = _preimage_basis(grp.invariant_factors, chosen)
        for nf in sorted(self.canonical_elements, key=grp.element_order,
                         reverse=True):
            if _pivot_product(span) == self.index:
                break
            if _lattice_contains(span, nf):
                continue
            chosen.append(nf)
            span = _preimage_basis(grp.invariant_factors, chosen)
        return tuple(chosen)

    def __eq__(self, other):
        return (isinstance(other, SubgroupData)
                and self.group.graph == other.group.graph
                and self.hnf == other.hnf)

    def __hash__(self):
        return hash((self.group.graph, self.hnf))

    def __repr__(self):
        return f"SubgroupData(order={self.order}, index={self.index})"


def _preimage_basis(factors, nfs):
    """Canonical Hermite basis of the lattice spanned by the normal forms
    and diag(factors); it has full rank, so its first r rows are the basis."""
    h, _, _ = _hermite_reduce([*map(list, nfs), *_diagonal(factors)])
    return tuple(tuple(row) for row in h[:len(factors)])


def _diagonal(values):
    """The square matrix diag(values), as a tuple of rows."""
    r = len(values)
    return tuple(tuple(x if i == j else 0 for j in range(r))
                 for i, x in enumerate(values))


def _pivot_product(hnf):
    """Index of the lattice in Z^r: the product of the Hermite pivots."""
    return prod(row[i] for i, row in enumerate(hnf))


def _lattice_contains(hnf, x):
    """Membership in an upper triangular lattice basis by back substitution."""
    x = list(x)
    for i, row in enumerate(hnf):
        q, rem = divmod(x[i], row[i])
        if rem:
            return False
        if q:
            x = [a - q * b for a, b in zip(x, row)]
    return True


def subgroup(generators, group):
    """Subgroup of H generated by dual-coordinate integer vectors: their
    classes are projected once and reduced to the Hermite basis."""
    return SubgroupData(group, _preimage_basis(
        group.invariant_factors, [group.project(g) for g in generators]))


def trivial_subgroup(group):
    """{0}, whose preimage is diag(d) Z^r itself."""
    return SubgroupData(group, _diagonal(group.invariant_factors))


def full_subgroup(group):
    """H itself, whose preimage is Z^r: the identity basis, since the
    unit classes of the Smith coordinates are a basis of H (see
    DiscriminantGroup)."""
    return SubgroupData(group, _diagonal((1,) * len(group.invariant_factors)))


def pairings(h1):
    """hnf * P for the group's pairing matrix P: entry (j, k) is
    |H| b(h_j, e_k) mod |H| for the Hermite row h_j of H1 and the unit
    class e_k.  P is symmetric, so row j pairs h_j with a normal form x
    as row_j . x mod |H|.  O(r^3), with no product of `num`."""
    pairing = h1.group.pairing_matrix()
    return [[sum(map(mul, h, row)) for row in pairing] for h in h1.hnf]


def flat_subgroup(h1):
    """H1-flat = H1^perp: all classes of H pairing integrally with every
    element of H1.

    In Smith coordinates, x lies in H1-flat exactly when
    sum_j x_j * b(e_j, h) is an integer for every Hermite row h of H1.
    The numerators of these pairings over |H| are the entries of
    `pairings(h1)`, hnf * P.  Over their least common denominator D they
    are congruences A x = 0 mod D, whose solutions are the first r
    coordinates of the integer left kernel of the stacked matrix
    [A^T; D * Id]; they span the preimage of the flat, whose canonical
    Hermite basis the flat is built from.  `table` computes one flat per
    pair {H1, H1-flat} and certifies the pair (see SubgroupLattice).
    """
    group = h1.group
    r = len(group.invariant_factors)
    nums = pairings(h1)
    scale = gcd(group.order, *(x for row in nums for x in row))
    den = group.order // scale
    stacked = [[(x // scale) % den for x in row] for row in zip(*nums)]
    stacked += _diagonal((den,) * r)
    _, rank, log = _hermite_reduce(stacked)
    u = _replay(log, len(stacked))
    flat = SubgroupData(group, _preimage_basis(
        group.invariant_factors, [row[:r] for row in u[rank:]]))
    if flat.order * h1.order != group.order:
        raise InternalError(
            f"|H1| * |H1-flat| = {h1.order} * {flat.order} != |H|")
    return flat


def _certify_flat(h1, flat):
    """Raise InternalError unless `flat` is H1^perp and H1 is flat^perp.

    The pairing is perfect, so |H1^perp| = |H| / |H1|.  If every Hermite
    row of H1 pairs integrally with every Hermite row of `flat` (x^T P y
    = 0 mod |H|), then flat lies in H1^perp and H1 in flat^perp, as the
    rows generate the two subgroups; with |H1| * |flat| = |H| both
    inclusions are equalities.  O(r^4).
    """
    group = h1.group
    if h1.order * flat.order != group.order:
        raise InternalError(
            f"flat check |H1| * |H1-flat| == |H| failed for "
            f"H1 = {_fmt_subgroup(h1)}, H1-flat = {_fmt_subgroup(flat)}: "
            f"{h1.order} * {flat.order} != {group.order}")
    pairing = group.pairing_matrix()
    for h in h1.hnf:
        applied = [sum(map(mul, h, row)) for row in pairing]
        for k in flat.hnf:
            x = sum(map(mul, applied, k)) % group.order
            if x:
                raise InternalError(
                    f"flat pairing check failed: {_fmt_subgroup(flat)} is "
                    f"not the flat of {_fmt_subgroup(h1)}: the Hermite rows "
                    f"{_fmt_nf(h)} and {_fmt_nf(k)} pair to "
                    f"{_FractionText(group.order)[x]}, not to 0")


def _torsion_tails(below, m, start):
    """Every t with 0 <= t_j < p_j and m * t in the span of `below`.

    `below` is a canonical Hermite basis whose row k has its pivot p_k at
    column start + k.  Column by column, m * t_c must equal acc_c + q * p_k
    for the combination acc of earlier rows, a linear congruence in t_c.
    """
    partial = [((), (0,) * (start + len(below)))]
    for k, row in enumerate(below):
        c, p = start + k, row[start + k]
        g = gcd(m, p)
        step = p // g
        nxt = []
        for t, acc in partial:
            if acc[c] % g:
                continue
            first = (acc[c] // g) * pow(m // g, -1, step) % step
            for x in range(first, p, step):
                q = (m * x - acc[c]) // p
                nxt.append((t + (x,),
                            tuple(a + q * b for a, b in zip(acc, row))))
        partial = nxt
    return [t for t, _ in partial]


def enumerate_subgroups(group):
    """Every subgroup of H exactly once, ordered by (order, sorted elements).

    Subgroups correspond one-to-one to the canonical Hermite bases of the
    lattices between diag(d) Z^r and Z^r.  These are built from the last
    row up: row i is (0, ..., 0, p, t) with p | d_i and 0 <= t_j < p_j, and
    it must put d_i e_i into the lattice, i.e. (d_i / p) * t must lie in the
    span of the rows below it.  Each subgroup is its basis, with no
    projection and no reduction.
    """
    if group.order > ENUMERATION_CAP:
        raise CapExceededError(f"|H| = {group.order} exceeds the "
                               f"enumeration cap {ENUMERATION_CAP}")
    d = group.invariant_factors
    bases = [()]
    for i in reversed(range(len(d))):
        bases = [((0,) * i + (p,) + t,) + below
                 for below in bases
                 for p in range(1, d[i] + 1) if d[i] % p == 0
                 for t in _torsion_tails(below, d[i] // p, i + 1)]
    out = [SubgroupData(group, hnf) for hnf in bases]
    out.sort(key=lambda s: (s.order, s.canonical_elements))
    return out


class SubgroupLattice:
    """Every subgroup of H, each built once, with the flat involution and
    the printed names, for `table`.

    `subgroups` is enumerate_subgroups(group).  `flat(h1)` is H1-flat, one
    of `subgroups`, found by its Hermite basis.  The linking form is
    perfect, so (H1-flat)-flat = H1: flat_subgroup runs once per pair
    {H1, H1-flat}, and the pair is certified (_certify_flat) and recorded
    in both directions.  `name(sub)` is the printed name, built on first
    use; the element list is the subgroup's own `canonical_elements`.
    """

    __slots__ = ("subgroups", "_by_basis", "_flats", "_names")

    def __init__(self, group):
        self.subgroups = enumerate_subgroups(group)
        self._by_basis = {s.hnf: s for s in self.subgroups}
        self._flats = {}  # Hermite basis -> the enumerated flat
        self._names = {}  # Hermite basis -> printed name

    def flat(self, h1):
        flat = self._flats.get(h1.hnf)
        if flat is None:
            computed = flat_subgroup(h1)
            flat = self._by_basis.get(computed.hnf)
            if flat is None:
                raise InternalError(
                    f"the flat {_fmt_subgroup(computed)} of "
                    f"{self.name(h1)} is not among the "
                    f"{len(self.subgroups)} enumerated subgroups")
            _certify_flat(h1, flat)
            self._flats[h1.hnf] = flat
            self._flats[flat.hnf] = h1
        return flat

    def name(self, sub):
        text = self._names.get(sub.hnf)
        if text is None:
            text = self._names[sub.hnf] = _fmt_subgroup(sub)
        return text


def _fmt_nf(nf):
    return "(" + ",".join(str(x) for x in nf) + ")"


def _fmt_subgroup(sub):
    """The printed name: {0}, or its minimal generators as normal forms."""
    gens = sub.minimal_generators()
    if not gens:
        return "{0}"
    return "<" + ", ".join(_fmt_nf(nf) for nf in gens) + ">"
