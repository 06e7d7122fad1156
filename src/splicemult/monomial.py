"""Monomial cycles: the monomial condition, base points, the minima of the
H1-invariant monoid, and Hilbert bases.

A monomial cycle is a nonnegative integer combination of end duals E_i*;
it stands for the monomial prod z_i^{a_i} in the end-curve variables.  All
searches run in integers: the dual basis is carried as integer numerators
over one denominator |H| = |det I(E)| (every dual entry's denominator
divides it), which the knapsacks, the residue congruences and the zero-sum
search read directly, and the zero-sum search packs each of its tuple keys
into one int.  Every dual-basis entry is strictly positive, which makes
all bounds finite.

The witness search of the monomial condition, `admissible_monomials`, is
one lazy generator: deciding the condition reads the first witness of each
(node, branch) pair, and only the splice-equation skeletons read them all.
"""

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub

from .errors import CapExceededError, ConditionError, InternalError
from .graph import branches
from .lattice import QCycle, _as_vector

BOX_CAP = 10 ** 8  # points in a Hilbert-basis enumeration box
SEARCH_CAP = 2_000_000  # nodes of one knapsack search
RESIDUE_CAP = 10 ** 5  # |H1|: bounds the classes a zero-sum search tabulates


class MonomialCycle:
    """Exponent vector over end indices plus its vertex-basis expansion.

    The expansion is held as integer numerators over the dual basis's
    denominator den = |H|; the QCycle `expansion` is built from them the
    first time it is read, so a witness that is only counted or printed
    never builds a Fraction.
    """

    __slots__ = ("exponents", "_graph", "_num", "_den", "_expansion")

    def __init__(self, exponents, graph, num, den):
        self.exponents = dict(sorted(exponents.items()))
        self._graph = graph
        self._num = tuple(num)
        self._den = den
        self._expansion = None

    @property
    def expansion(self):
        """sum_i a_i E_i* in vertex coordinates, as a QCycle."""
        if self._expansion is None:
            den = self._den
            self._expansion = QCycle(
                self._graph, [Fraction(x, den) for x in self._num])
        return self._expansion

    @property
    def degree(self):
        return sum(self.exponents.values())

    def exponent_vector(self, labels):
        return tuple(self.exponents.get(l, 0) for l in labels)

    def monomial_string(self):
        return monomial_string(self.exponents)

    def __eq__(self, other):
        return (isinstance(other, MonomialCycle)
                and self.exponents == other.exponents
                and self.expansion == other.expansion)

    def __repr__(self):
        return f"MonomialCycle({self.monomial_string()})"


def monomial_string(exponents):
    """The monomial prod z_label^a of an exponent map, e.g. "z2*z3^2"."""
    parts = []
    for label, a in sorted(exponents.items()):
        if a == 1:
            parts.append(f"z{label}")
        elif a > 1:
            parts.append(f"z{label}^{a}")
    return "*".join(parts) if parts else "1"


def monomial_cycle(basis, exponents, end_map=None):
    """Build a monomial cycle; exponent keys are end indices, mapped onto
    current end vertices by end_map (identity when omitted)."""
    g = basis.graph
    if end_map is None:
        end_map = {e: e for e in g.ends}
    exps = {}
    total = [0] * len(g)
    for label, a in exponents.items():
        if label not in end_map:
            raise InternalError(f"{label} is not a tracked end index")
        if a < 0:
            raise InternalError("exponents must be nonnegative")
        exps[label] = a
        if a:
            row = basis.num[g.index(end_map[label])]
            total = [x + a * y for x, y in zip(total, row)]
    for label in end_map:
        exps.setdefault(label, 0)
    return MonomialCycle(exps, g, total, basis.den)


# --- integer knapsack helpers -------------------------------------------------


def _representable(t, ws):
    """Whether the integer t is a nonnegative integer combination of the
    integer weights ws.

    Bitset dynamic programming; bit v of the accumulator records that
    value v is reachable.
    """
    if t == 0:
        return True
    if t < 0:
        return False
    mask = (1 << (t + 1)) - 1
    bits = 1
    for w in ws:
        if w <= 0 or w > t:
            continue
        prev = -1
        while bits != prev:
            prev = bits
            bits = (bits | (bits << w)) & mask
    return bool((bits >> t) & 1)


def _exact_solutions(t, ws, where):
    """Yield every nonnegative integer vector a with sum a_k * ws_k = t, for
    an integer target t and positive integer weights ws, in lexicographic
    order.

    Finite because the weights are strictly positive.  A partial vector is
    extended only when the gcd of the weights still to come divides what
    remains, so each level steps its exponent along one residue class, and
    that class and its inverse are worked out once per level.  The search
    is a depth-first walk over an explicit stack: a node adds its children
    to the node count when it expands them, so the count (capped at
    SEARCH_CAP, and `where` names the search in the error) is the number of
    nodes of the recursion "one call per prefix" visited so far.  A caller
    that stops early has counted a prefix of the same walk, so it trips the
    cap only where the full search would.  At the last level the pruning
    leaves one exponent, remaining / weight, so every child of the
    second-last level is a solution and is written out in that closed form.
    """
    if not ws:
        if t == 0:
            yield ()
        return
    tails = [0] * (len(ws) + 1)  # tails[k] = gcd(ws[k:]); gcd() = 0
    for k in reversed(range(len(ws))):
        tails[k] = gcd(ws[k], tails[k + 1])
    if t < 0 or t % tails[0]:
        return
    count = 1  # the root
    if count > SEARCH_CAP:
        _search_cap_exceeded(where)
    last = len(ws) - 1
    w_last = ws[last]
    if not last:
        yield (t // w_last,)
        return
    # the a with rest | remaining - a * w form one class modulo
    # step = rest / h, because h = gcd(w, rest) divides remaining
    levels = []
    for k in range(last):
        w, h, rest = ws[k], tails[k], tails[k + 1]
        levels.append((w, h, rest // h, pow(w // h, -1, rest // h)))
    stack = [(0, t, ())]  # (level, remaining, exponents so far)
    while stack:
        k, remaining, head = stack.pop()
        w, h, step, inv = levels[k]
        first = (remaining // h) * inv % step
        top = remaining // w
        if first > top:
            continue
        count += (top - first) // step + 1
        if count > SEARCH_CAP:
            _search_cap_exceeded(where)
        children = range(first, top + 1, step)
        if k == last - 1:
            for a in children:
                yield head + (a, (remaining - a * w) // w_last)
        else:  # pushed in reverse, so the least exponent is expanded first
            stack.extend([(k + 1, remaining - a * w, head + (a,))
                          for a in reversed(children)])


def _search_cap_exceeded(where):
    raise CapExceededError(
        f"knapsack search bound exceeded: more than {SEARCH_CAP} "
        f"nodes (SEARCH_CAP) at {where}")


# --- monomial condition -------------------------------------------------------


def _minimal_vectors(vectors):
    """Componentwise-minimal elements, scanned in graded-lex order."""
    ordered = sorted(vectors, key=lambda v: (sum(v), v))
    kept = []
    for v in ordered:
        if not any(all(x <= y for x, y in zip(k, v)) for k in kept):
            kept.append(v)
    return kept


def admissible_monomials(g, basis, node, branch):
    """Yield the minimal monomial cycles D with D - E_node* effective,
    integral and supported on the branch, each as soon as it is found, in
    the lexicographic order of its exponents at the branch's ends.

    Ends outside the branch are forced to exponent zero: for such an end j,
    D . E_j = -a_j, while (D - E_node*) . E_j >= 0 because the difference is
    effective without an E_j component; hence a_j = 0.  Matching the
    coefficient at the node itself is a knapsack equation with positive
    weights, whose solutions are the candidates; no two are comparable, so
    every one that passes is minimal.  The search is lazy: the monomial
    condition reads one witness per pair and stops it there, and only the
    splice equations read them all.

    Everything runs in integers, on the columns of `num` for E_node* and
    the branch's end duals, all over the one denominator den = |H|.  A
    candidate is first tested for integrality at the branch's ends (its
    numerators there congruent to E_node*'s modulo den); only one that
    passes has its vector built and given the full test.  By the lemma
    below the two tests agree on every candidate.  Write v = node and
    Y = D - E_v*, so Y_v = 0.
    - Zero off the branch: on a tree, (E_i*)_x (E_v*)_v = (E_i*)_v (E_v*)_x
      whenever the path from i to x runs through v.  Every end i of D lies
      in the branch, so for x off the branch D_x = D_v (E_v*)_x / (E_v*)_v
      = (E_v*)_x, and Y_x = 0.
    - Integral: Y lies in L*, and its coefficient at an end e is
      -Y . E_e*.  The classes of the ends generate L*/L, so Y pairs
      integrally with all of L* once it does with every E_e*: Y is in L.
      Off the branch Y vanishes, so the branch's ends suffice.
    - Effective: Y is supported on the branch, and Y . E_x = -a_x <= 0 for
      every x in it (a_x = 0 unless x is an end).  The branch is connected
      and its form negative definite, so minus the inverse of its form has
      positive entries, and Y >= 0.
    The full test (effective, integral, zero off the branch) still runs on
    every candidate that passes the first, so the verdict never rests on
    the lemma.
    """
    branch = frozenset(branch)
    branch_ends = sorted(e for e in g.ends if e in branch)
    den = basis.den
    # num is symmetric, so its rows are the columns E_v*
    node_col, *end_cols = [basis.num[g.index(v)]
                           for v in [node] + branch_ends]
    at_node = g.index(node)
    at_ends = [g.index(e) for e in branch_ends]
    # per end coordinate: E_node*'s residue and the end duals' numerators
    checks = [(node_col[j] % den, [col[j] for col in end_cols])
              for j in at_ends]
    inside = [v in branch for v in g.vertex_ids]
    where = f"node {node}, branch {sorted(branch)}"
    for combo in _exact_solutions(node_col[at_node],
                                  [col[at_node] for col in end_cols], where):
        if any(sum(map(mul, combo, row)) % den != r for r, row in checks):
            continue
        d = [0] * len(g)
        for a, col in zip(combo, end_cols):
            if a:
                d = [x + a * y for x, y in zip(d, col)]
        if all((x >= 0 and x % den == 0) if ins else x == 0
               for x, ins in zip(map(sub, d, node_col), inside)):
            exps = dict.fromkeys(g.ends, 0)
            exps.update(zip(branch_ends, combo))
            yield MonomialCycle(exps, g, d, den)


def _pairs(g):
    """Every (node, sorted branch tuple) pair, by node and then in
    `branches` order."""
    for node in g.nodes:
        for branch in branches(g, node):
            yield node, tuple(sorted(branch))


def monomial_condition(g, basis):
    """The (node, sorted branch tuple) pairs with no admissible monomial, in
    node and branch order; empty exactly when the condition holds.  Each
    pair's search stops at its first witness."""
    return [(node, branch) for node, branch in _pairs(g)
            if next(admissible_monomials(g, basis, node, branch), None)
            is None]


def _raise_failures(failures):
    bad = ", ".join(f"node {node} branch {list(branch)}"
                    for node, branch in failures)
    raise ConditionError(f"monomial condition fails at: {bad}")


def require_monomial_condition(g, basis):
    """ConditionError naming every failing (node, branch) pair when the
    monomial condition does not hold."""
    failures = monomial_condition(g, basis)
    if failures:
        _raise_failures(failures)


# --- base points ----------------------------------------------------------------


def base_point_set(g, basis):
    """Ends whose coefficient target is not a combination of the others.

    End i is a base point exactly when M_i(E_i*) is NOT a nonnegative
    integer combination of { M_i(E_j*) : j another end }.

    The test runs on row i of `num` divided by its gcd, so the bitset is
    no longer than the lcm of the entries' own denominators makes it.
    """
    ends = g.ends
    out = set()
    for i in ends:
        row = basis.num[g.index(i)]
        target = row[g.index(i)]
        weights = [row[g.index(j)] for j in ends if j != i]
        common = gcd(target, *weights)
        if not _representable(target // common,
                              [w // common for w in weights]):
            out.add(i)
    return frozenset(out)


# --- the monoid of H1-invariant monomial cycles -----------------------------------


def _generator_vectors(g, h1):
    """H1's generator vectors re-keyed onto a (possibly blown-up) graph.

    Vertex ids persist through blowups, so a dual-coordinate vector on the
    original graph extends by zeros; that extension IS the pullback class.
    """
    source = h1.group.graph
    vecs = []
    for gen in h1.generators:
        as_map = {v: c for v, c in zip(source.vertex_ids, gen)}
        vecs.append(_as_vector(g, as_map))
    return vecs


def _congruences(basis, h1, vertices):
    """The integer form of "pairs integrally with H1" on the end duals.

    Returns one modulus m_j per generator of H1 and, for each end vertex,
    the tuple of residues r_j = m_j * (E_v* . gen_j) mod m_j.  The monomial
    cycle sum_i a_i E_i* pairs integrally with H1 exactly when
    sum_i a_i r_ij = 0 mod m_j for every j.  Both are blowup invariants.

    E_v* . gen_j = -(num @ gen_j)_v / |H|, so the rows of `num` at the
    end vertices are applied once per generator; m_j is |H| over the gcd
    of |H| and those numerators.
    """
    g, den = basis.graph, basis.den
    rows = [basis.num[g.index(v)] for v in vertices]
    moduli, columns = [], []
    for gv in _generator_vectors(g, h1):
        nums = [-sum(map(mul, row, gv)) for row in rows]
        scale = gcd(den, *nums)
        moduli.append(den // scale)
        columns.append([(x // scale) % (den // scale) for x in nums])
    residues = tuple(tuple(col[k] for col in columns)
                     for k in range(len(rows)))
    return tuple(moduli), residues


def _class_steps(residues, moduli):
    """Number the classes reachable from class 0 (which gets 0) and
    tabulate, per end label, the class one step along that end leads to;
    also the negation table, class -c for each class c.

    The reachable classes are the subgroup K that the residues generate,
    built one residue r at a time: if t is the least t >= 1 with t r in K,
    the cosets K, K + r, ..., K + (t - 1) r are disjoint and their union
    is the subgroup K and r generate.  The classes are held as one column
    per modulus, so each of these steps, a step along an end and a
    negation is one pass over each column, and each class is named by
    its mixed-radix code."""
    strides = [1]
    for m in moduli:
        strides.append(strides[-1] * m)

    def codes(columns, size):
        if not columns:
            return [0] * size
        out = columns[0]  # stride 1
        for xs, stride in zip(columns[1:], strides[1:]):
            out = [c + x * stride for c, x in zip(out, xs)]
        return out

    columns, size = [[0] for _ in moduli], 1
    index = {0: 0}  # class number by code
    for r in residues.values():
        if sum(map(mul, r, strides)) in index:
            continue  # t = 1
        order = lcm(*(m // gcd(d, m) for d, m in zip(r, moduli)))
        multiples = [[s * d % m for s in range(order)]
                     for d, m in zip(r, moduli)]
        t = next((s for s, c in enumerate(codes(multiples, order))
                  if s and c in index), order)
        columns = [[(x + y) % m for y in ys[:t] for x in xs]
                   for xs, ys, m in zip(columns, multiples, moduli)]
        size *= t
        index = dict(zip(codes(columns, size), range(size)))
    tables = {}
    for l, r in residues.items():
        stepped = [[(x + d) % m for x in xs] if d else xs
                   for xs, d, m in zip(columns, r, moduli)]
        tables[l] = [index[c] for c in codes(stepped, size)]
    negated = [[-x % m for x in xs] for xs, m in zip(columns, moduli)]
    negation = [index[c] for c in codes(negated, size)]
    return tables, negation


class ZeroSumSearch:
    """Minima of M_v over the nonzero H1-invariant monomial cycles.

    A monomial cycle pairs integrally with H1 exactly when its ends'
    residues sum to the zero class of prod Z/m_j (see `_congruences`), so a
    nonzero member is a walk from class 0 back to class 0 in which end i
    is a step by its residue, weighted |H| * M_v(E_i*) = num[v][i] (every
    dual entry has a denominator dividing |det I(E)| = |H|, which blowups
    keep).  A shortest-path search over the classes finds the lightest such
    walk.  The residues are characters of H1, so there are at most |H1|
    classes; they form a group, and the search meets itself in the middle
    (see `_shortest`), settling only the classes whose least walk weighs
    less than about half the answer.

    Every dual entry is positive, so a member attaining min M_v is a
    Hilbert-basis generator and the minimum over all nonzero members is
    the minimum over the generators.  Z_v, the edge checks and the end
    witnesses need only these minima, so no Hilbert basis is built.

    Results are kept by vertex tuple and removed end, and an end or edge
    query is read off the vertex queries' members whenever one of them is
    the answer (see `least`).  Vertex ids persist through blowups and
    E'_i* = pi*(E_i*) keeps every old vertex's weights, so after `advance`
    only the keys that involve a new vertex are searched again.
    """

    def __init__(self, basis, h1, end_map=None):
        if h1.order > RESIDUE_CAP:
            raise CapExceededError(
                f"zero-sum search: |H1| = {h1.order} residue classes "
                f"exceed the cap {RESIDUE_CAP}")
        if end_map is None:
            end_map = {e: e for e in basis.graph.ends}
        self.labels = tuple(sorted(end_map))
        self._scale = h1.group.order
        self._check_scale(basis)
        moduli, residues = _congruences(
            basis, h1, [end_map[l] for l in self.labels])
        self._steps, self._negation = _class_steps(
            dict(zip(self.labels, residues)), moduli)
        self._units = {l: tuple(int(l == m) for m in self.labels)
                       for l in self.labels}
        self._memo = {}
        self.advance(basis, end_map)

    def _check_scale(self, basis):
        if basis.den != self._scale:
            raise InternalError(
                f"dual basis denominator {basis.den} != |H| = {self._scale}")

    def advance(self, basis, end_map):
        """Continue on a blown-up graph, given its dual basis and end map."""
        if tuple(sorted(end_map)) != self.labels:
            raise InternalError("end map does not match the end labels")
        self._check_scale(basis)
        self._basis = basis
        self._end_map = dict(end_map)

    def _weights(self, v):
        """|H| * M_v(E_i*) per end label: the integer row of `num` at v."""
        g = self._basis.graph
        row = self._basis.num[g.index(v)]
        return {label: row[g.index(e)] for label, e in self._end_map.items()}

    def least(self, vertices, without=None):
        """The least nonzero member with exponent 0 at end `without`, as
        ((|H| * M_v for v in vertices), {label: exponent}); None when there
        is none.  The values are integers: every dual entry's denominator
        divides |H|.  Members are ordered by the M_v lexicographically,
        then by degree, then by exponent vector: the graded-lex order in
        which `hilbert_basis` lists its generators.

        An end query ((v,), label) or an edge query (v, w) runs no search
        when the member of a vertex query ((x,), None), x among its
        vertices, has exponent 0 at `without` and attains Z_y at every
        vertex y of the query (for an end query, Z_v itself): that member
        is then the answer.  It is least in (degree, exponents) among the
        members attaining Z_x, a set that holds every member attaining
        Z_y at each y, and it is one of these; so no member with exponent
        0 at `without` is less in the order above.
        """
        key = (tuple(vertices), without)
        if key not in self._memo:
            found = self._from_vertex_queries(*key)
            if found is None:
                found = self._searched(*key)
            self._memo[key] = found
        return self._memo[key]

    def _from_vertex_queries(self, vertices, without):
        """The member of a vertex query that answers this query, as `least`
        describes, or None when none does."""
        if without is None and len(vertices) == 1:
            return None  # a vertex query itself
        minima = [self.least((x,)) for x in vertices]
        z = tuple(found[0][0] for found in minima)
        weights = [self._weights(v) for v in vertices]
        for _, exps in minima:
            if without not in exps and all(
                    sum(a * w[l] for l, a in exps.items()) == t
                    for w, t in zip(weights, z)):
                return z, exps
        return None

    def _searched(self, vertices, without):
        """The answer to a query from `_shortest`."""
        per_vertex = [self._weights(v) for v in vertices]
        keys = {l: (*(w[l] for w in per_vertex), 1, *self._units[l])
                for l in self.labels if l != without}
        total = self._shortest(keys)
        if total is None:
            return None
        k = len(vertices)
        return (total[:k],
                {l: a for l, a in zip(self.labels, total[k + 1:]) if a})

    def z(self):
        """The gcd cycle Z on the current graph, Z_v = min M_v, as the
        integers |H| * Z_v in vertex order."""
        g = self._basis.graph
        return tuple(self.least((v,))[0][0] for v in g.vertex_ids)

    def _shortest(self, keys):
        """The least key of a nonempty walk from class 0 back to class 0
        by the steps in `keys`, as a tuple, or None when there is none.

        Step keys are tuples (M_v..., 1, unit exponent vector) of
        nonnegative integers, compared lexicographically and added
        componentwise.  This order is total and additive (a < b gives
        a + c < b + c), and a key carries its walk's exponents, so the
        least key is one member, the one `least` describes.

        Dijkstra from class 0, whose key 0 is the empty walk, settles each
        class c at the least key d(c) of a walk from 0 to c.  The steps of
        a walk can be taken in any order, and a walk from n back to 0,
        translated by -n, is a walk from 0 to -n with the same key.  So
        whenever a settled class c is relaxed along a step of key w to a
        class n whose negation -n is settled, d(c) + w + d(-n) is the key
        of a member; it is recorded as a candidate whether or not n is
        settled (n = 0 gives d(c) + w, and a single step that lands on
        class 0 is the relaxation of class 0 itself).

        The search stops as soon as twice the least key left to pop is at
        least the best candidate B, and pushes no label whose double
        reaches B.  Then B is the least member A.  B >= A always; suppose
        B > A at the stop.  Let 0 = P_0 < P_1 < ... < P_k = A be the keys
        of the prefixes of a least walk and c_0, ..., c_k its classes, and
        take the last prefix j with 2 P_j < A; the rest after step j + 1
        has a key S = A - P_{j+1} with 2 S <= A.  Its class c_j has
        d(c_j) <= P_j, and the negated class after the next step has
        d(-c_{j+1}) <= S (the rest, translated), both less than half of A.
        No label on their least walks was pruned, since each doubles to
        less than A < B, so both classes were settled before the least key
        left doubled to B or more (or the heap ran out).  Whichever of the
        two was settled last was relaxed along step j + 1 with the other
        already settled: c_j steps to c_{j+1}, or -c_{j+1} steps to -c_j.
        Either relaxation recorded a candidate of at most
        d(c_j) + w + d(-c_{j+1}) <= A < B, a contradiction.

        Each key is packed into one int, one field of `width` bits per
        component, most significant first.  A least walk to a class visits
        no class twice (cutting out a loop lowers the key), so a settled
        key has at most `size` - 1 steps, a label at most `size`, a
        candidate at most 2 * `size` - 1 and a doubled label 2 * `size`.
        No key the search builds exceeds (2 * size + 2) times the largest
        step component in any field: no field carries into the next, and
        int order, addition and doubling are tuple order, addition and
        doubling.  Every such key is below 2^(width * fields), where B
        starts.  The unpacked answer is checked against its exponents.
        """
        if not keys:
            return None
        negation = self._negation
        size = len(negation)
        fields = len(next(iter(keys.values())))
        width = ((2 * size + 2) * max(map(max, keys.values()))).bit_length()

        def pack(key):
            out = 0
            for x in key:
                out = (out << width) | x
            return out

        moves = [(pack(w), self._steps[l]) for l, w in keys.items()]
        settled = [None] * size  # d(c) once class c is settled
        tentative = [None] * size  # least key pushed so far, per class
        ceiling = 1 << (width * fields)  # above every key the fields hold
        best = ceiling  # least candidate member so far
        heap = [(0, 0)]
        while heap and 2 * heap[0][0] < best:
            d, c = heapq.heappop(heap)
            if settled[c] is not None:
                continue
            settled[c] = d
            for w, table in moves:
                n = table[c]
                nd = d + w
                back = settled[negation[n]]
                if back is not None and nd + back < best:
                    best = nd + back
                if settled[n] is not None or 2 * nd >= best:
                    continue
                if tentative[n] is None or nd < tentative[n]:
                    tentative[n] = nd
                    heapq.heappush(heap, (nd, n))
        if best == ceiling:
            return None
        return self._unpacked(best, keys, fields, width)

    def _unpacked(self, packed, keys, fields, width):
        """The tuple of a packed key, which must be the sum of the step
        keys its own exponent fields count."""
        mask = (1 << width) - 1
        total = tuple((packed >> (width * (fields - 1 - i))) & mask
                      for i in range(fields))
        exps = dict(zip(self.labels, total[fields - len(self.labels):]))
        expected = [0] * fields
        for label, a in exps.items():
            if not a:
                continue
            if label not in keys:
                raise InternalError(
                    f"zero-sum search used end {label}, which it excludes")
            expected = [x + a * y for x, y in zip(expected, keys[label])]
        if tuple(expected) != total:
            raise InternalError(
                f"zero-sum search key {total} is not the sum of its steps")
        return total


# --- the full Hilbert basis (a reference for the search above) --------------------


@dataclass(frozen=True)
class HilbertBasis:
    """Minimal generators of the monomial cycles pairing integrally with H1."""

    graph: object
    labels: tuple
    end_vertices: tuple
    orders: tuple
    generators: tuple  # of MonomialCycle, graded-lex order

    def __len__(self):
        return len(self.generators)

    def __iter__(self):
        return iter(self.generators)

    def __getitem__(self, k):
        return self.generators[k]


def hilbert_basis(g, basis, h1, end_map=None):
    """Minimal generating set of the monoid of H1-invariant monomial cycles.

    For each end the additive order of its pairing vector bounds the box:
    ord_i * e_i is always a member, so any member with a_i > ord_i splits
    off a copy of it.  Enumerating the box [0, ord_i]^ends and keeping the
    componentwise-minimal members is therefore exact.  The pipeline uses
    ZeroSumSearch instead; this is the reference it is tested against.
    """
    if end_map is None:
        end_map = {e: e for e in g.ends}
    labels = tuple(sorted(end_map))
    vertices = tuple(end_map[l] for l in labels)
    moduli, residues = _congruences(basis, h1, vertices)
    orders = tuple(lcm(*(m // gcd(m, r) for m, r in zip(moduli, row)))
                   for row in residues)

    volume = 1
    for o in orders:
        volume *= o + 1
    if volume > BOX_CAP:
        raise CapExceededError(
            f"enumeration box volume {volume} exceeds the cap {BOX_CAP}")

    # one congruence per generator of H1
    rows = [(m, col) for m, col in zip(moduli, zip(*residues)) if m > 1]
    members = []
    for combo in itertools.product(*(range(o + 1) for o in orders)):
        if not any(combo):
            continue
        if all(sum(a * r for a, r in zip(combo, col)) % m == 0
               for m, col in rows):
            members.append(combo)

    generators = []
    for combo in _minimal_vectors(members):
        exps = {l: a for l, a in zip(labels, combo)}
        generators.append(monomial_cycle(basis, exps, end_map))
    return HilbertBasis(graph=g, labels=labels, end_vertices=vertices,
                        orders=orders, generators=tuple(generators))


def gcd_cycle(generators):
    """Componentwise minimum of the generators' expansions.

    Every monoid member dominates one of its generator summands in every
    coordinate (all dual entries are positive), so this minimum over the
    generators equals the gcd over the whole monoid.
    """
    gens = list(generators)
    if not gens:
        raise InternalError("gcd of an empty generator set")
    expansions = [m.expansion if isinstance(m, MonomialCycle) else m
                  for m in gens]
    g = expansions[0].graph
    coeffs = [min(e.coeffs[i] for e in expansions) for i in range(len(g))]
    return QCycle(g, coeffs)


# --- Neumann-Wahl equation skeletons ---------------------------------------------


@dataclass(frozen=True)
class NodeSystem:
    """Equations attached to one node: one chosen admissible monomial per
    branch and a (delta-2) x delta coefficient matrix all of whose maximal
    minors are nonzero (Vandermonde rows c_ij = j^(i-1))."""

    node: int
    branches: tuple
    monomials: tuple  # of MonomialCycle, one per branch
    coefficients: tuple  # of tuple of int

    def equations(self):
        out = []
        for row in self.coefficients:
            terms = []
            for c, m in zip(row, self.monomials):
                s = m.monomial_string()
                terms.append(s if c == 1 else f"{c}*{s}")
            out.append(" + ".join(terms))
        return out


def _skeleton_choice(witnesses):
    """Deterministic pick among minimal admissible monomials: smallest
    maximal exponent, then lowest degree, then lexicographic; None when
    there are none."""
    def key(m):
        exps = tuple(m.exponents[l] for l in sorted(m.exponents))
        return (max(exps), sum(exps), exps)
    return min(witnesses, key=key, default=None)


def neumann_wahl_system(g, basis):
    """Splice equation skeletons, one block of delta_v - 2 equations per
    node.  The one caller that reads every witness of every pair."""
    chosen = [(node, branch,
               _skeleton_choice(admissible_monomials(g, basis, node, branch)))
              for node, branch in _pairs(g)]
    failures = [(node, branch) for node, branch, m in chosen if m is None]
    if failures:
        _raise_failures(failures)
    systems = []
    for node in g.nodes:
        entries = [(branch, m) for v, branch, m in chosen if v == node]
        delta = len(entries)
        rows = tuple(tuple(j ** i for j in range(1, delta + 1))
                     for i in range(delta - 2))
        systems.append(NodeSystem(
            node=node,
            branches=tuple(branch for branch, _ in entries),
            monomials=tuple(m for _, m in entries),
            coefficients=rows,
        ))
    return systems
