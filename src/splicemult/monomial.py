"""Monomial cycles: the monomial condition, base points, the minima of the
H1-invariant monoid, and Hilbert bases.

A monomial cycle is a nonnegative integer combination of end duals E_i*;
it stands for the monomial prod z_i^{a_i} in the end-curve variables.  All
searches run in integers: the dual basis is carried as integer numerators
over one denominator |H| = |det I(E)| (every dual entry's denominator
divides it), which the knapsacks and the zero-sum search read directly.
A zero-sum search is built from H1 alone, over every end of its graph.
The search's classes are the group K = prod Z/e_i in Smith coordinates:
one small Smith form of the ends' pairings with generators of H1 (for
H1 = H, the group's form of its end block) gives each end its residue,
a class is a mixed-radix code, and each step table rotates every digit
of the codes.  The search packs each key (M_v..., degree, exponents)
into one int: the degree and exponent fields have one layout for the
whole run, the M_v fields a width per query, and an answer is read back
and checked in O(ends); with one class (|H1| = 1) it reads each answer
off the rows.  Round 1's Z searches only the nodes where it can, and
reads chain and arm vertices off their members (ZeroSumSearch.z).  Every dual-basis entry is strictly positive, which makes
all bounds finite.

The witness search of the monomial condition, `admissible_monomials`, is
one lazy generator: deciding the condition reads the first witness of each
(node, branch) pair, and only the splice-equation skeletons read them all.
The branches come from the graph's rooted tree, and the tables each pair's
search reads are built once per graph (_pairs).
"""

import heapq
import itertools
from collections import namedtuple
from math import gcd, lcm, prod
from operator import lshift, mul, not_, sub

from .errors import CapExceededError, ConditionError, InternalError
from .graph import branches
from .lattice import pairings
from .linalg import smith_normal_form

BOX_CAP = 10 ** 8  # points in a Hilbert-basis enumeration box
SEARCH_CAP = 2_000_000  # nodes of one knapsack search
RESIDUE_CAP = 10 ** 5  # |H1|: bounds the classes a zero-sum search tabulates


class _Record:
    """Equality, hash and repr of a record class (HilbertBasis here, the
    round records of the pipeline) by the field names in its `_fields`:
    two records are equal when they are of one class and their fields are
    equal, and the repr is Class(field=value, ...)."""

    _fields = ()

    def _values(self):
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


class MonomialCycle:
    """A monomial prod z_i^{a_i}: its exponents by end index, and its
    cycle sum_i a_i E_i* as the integers `num` = |H| * (sum_i a_i E_i*)_v
    in vertex order over den = |H|."""

    __slots__ = ("exponents", "num", "den")

    def __init__(self, exponents, num, den):
        self.exponents = dict(sorted(exponents.items()))
        self.num = tuple(num)
        self.den = den

    def monomial_string(self):
        return monomial_string(self.exponents)

    def __eq__(self, other):
        return (isinstance(other, MonomialCycle)
                and self.exponents == other.exponents
                and self.num == other.num and self.den == other.den)

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


# --- integer knapsack helpers -------------------------------------------------


def _representable(t, ws):
    """Whether the integer t is a nonnegative integer combination of the
    integer weights ws.

    Bitset dynamic programming; bit v of the accumulator records that
    value v is reachable.  Shifts by w, 2w, 4w, ... up to t add every
    multiple of a weight w up to t in O(log(t / w)) passes.
    """
    if t == 0:
        return True
    if t < 0:
        return False
    mask = (1 << (t + 1)) - 1
    bits = 1
    for w in ws:
        while 0 < w <= t:
            bits = (bits | (bits << w)) & mask
            w *= 2
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
    """Raise the cap error at `where`: a text, or a (node, sorted branch)
    pair, whose text is built only here."""
    if type(where) is not str:
        where = f"node {where[0]}, branch {list(where[1])}"
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
    the lemma.  The search is _witnesses, which monomial_condition and
    neumann_wahl_system run on tables built once per graph (_pairs).
    """
    return _cycles(g, basis, _pair_tables(g, node, sorted(branch), g.index))


def _pair_tables(g, node, branch, index):
    """(node, the branch as a tuple, its ends, their positions, and the
    masks of the vertex order inside and outside the branch) for one
    sorted branch list of `node`; `index` maps a vertex to its
    position."""
    inside = set(branch).__contains__
    ends = list(filter(inside, g.ends))
    mask = list(map(inside, g.vertex_ids))
    return (node, tuple(branch), ends, list(map(index, ends)), mask,
            list(map(not_, mask)))


def _witnesses(g, basis, pair):
    """The witness search of admissible_monomials on one pair's tables
    (see _pair_tables): yields each witness as (its exponents at the
    branch's ends, its numerators over den in vertex order)."""
    node, branch, _, at_ends, inside, outside = pair
    den = basis.den
    num = basis.num
    at_node = g.index(node)
    # num is symmetric, so its rows are the columns E_v*
    node_col = num[at_node]
    end_cols = [num[j] for j in at_ends]
    # per end coordinate: E_node*'s residue and the end duals' numerators
    checks = [(node_col[j] % den, [col[j] for col in end_cols])
              for j in at_ends]
    for combo in _exact_solutions(node_col[at_node],
                                  [col[at_node] for col in end_cols],
                                  (node, branch)):
        if any(sum(map(mul, combo, row)) % den != r for r, row in checks):
            continue
        d = [0] * len(g)
        for a, col in zip(combo, end_cols):
            if a:
                d = [x + a * y for x, y in zip(d, col)]
        # D - E_node*: zero outside, nonnegative and integral inside
        diff = list(map(sub, d, node_col))
        on = list(itertools.compress(diff, inside))
        if (not any(itertools.compress(diff, outside)) and min(on) >= 0
                and not any(x % den for x in on)):
            yield combo, d


def _cycles(g, basis, pair):
    """The witnesses of one pair (see _witnesses) as MonomialCycles."""
    ends = pair[2]
    for combo, d in _witnesses(g, basis, pair):
        exps = dict.fromkeys(g.ends, 0)
        exps.update(zip(ends, combo))
        yield MonomialCycle(exps, d, basis.den)


def _pairs(g):
    """The tables of every (node, branch) pair (see _pair_tables), by
    node and then in `branches` order, with one position map per graph."""
    index = dict(zip(g.vertex_ids, range(len(g)))).__getitem__
    for node in g.nodes:
        for branch in branches(g, node):
            yield _pair_tables(g, node, sorted(branch), index)


def monomial_condition(g, basis):
    """The (node, sorted branch tuple) pairs with no admissible monomial, in
    node and branch order; empty exactly when the condition holds.  Each
    pair's search stops at its first witness."""
    return [pair[:2] for pair in _pairs(g)
            if next(_witnesses(g, basis, pair), None) is None]


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


def is_base_point(row, k):
    """Whether the end in slot k of an end row is a base point.

    `row` holds |H| * M_i(E_j*) for the end i and every end j, in some
    order of the ends, with i itself in slot k.  End i is a base point
    exactly when M_i(E_i*) is NOT a nonnegative integer combination of
    { M_i(E_j*) : j another end }.  The test runs on the row divided by
    its gcd, so the bitset is no longer than the lcm of the entries' own
    denominators makes it.
    """
    target = row[k]
    weights = [*row[:k], *row[k + 1:]]
    common = gcd(target, *weights)
    return not _representable(target // common,
                              [w // common for w in weights])


def base_point_set(g, basis):
    """The ends of g that are base points (see is_base_point), from the
    end rows of its dual basis."""
    ends = g.ends
    columns = [g.index(j) for j in ends]
    return frozenset(
        i for k, i in enumerate(ends)
        if is_base_point([basis.num[g.index(i)][c] for c in columns], k))


# --- the monoid of H1-invariant monomial cycles -----------------------------------


def _congruences(h1):
    """The integer form of "pairs integrally with H1" on the end duals, in
    the Smith coordinates of the group K of residue classes.

    Returns the moduli e_i and, for each end of the group's graph in
    order, its residue tuple r_l in prod Z/e_i: the monomial cycle
    sum_l a_l E_l* pairs integrally with H1 exactly when sum_l a_l r_l = 0
    in prod Z/e_i.

    pe has one row per end and one column per generator g_j of H1, with
    entries |H| b(g_j, E_l*) mod |H| up to one sign per column, so the
    cycle pairs integrally with H1 exactly when a pe = 0 mod |H|.  For
    H1 = H the g_j are the end duals, and pe is the group's end block,
    whose Smith form the group has.  Otherwise the g_j are the Hermite
    rows of H1 (one zero in H gives a zero column), and pe_lj is row j of
    lattice.pairings(h1) applied to E_l*'s normal form.  With U pe V = S
    and V unimodular, a pe = 0 mod |H| is (a U^{-1})_i = 0 mod e_i =
    |H| / gcd(|H|, s_i), and end l's residue in slot i, (U^{-1})_li, is
    (pe V)_li / s_i, a division checked to be exact.  Slots with e_i = 1
    are dropped.  a -> a U^{-1} is onto, so K is prod Z/e_i, and
    `_class_steps` numbers its classes by their mixed-radix codes.

    The end block and the normal forms are read on the input graph: a
    blowup keeps every end's class, as the end dual that moves onto a new
    leaf u is E'_u* = E_u + pi*(E_i*) and pi* keeps pairings.  With
    H1 = 0 there is no congruence, and no Smith form is built.
    """
    group = h1.group
    ends = group.graph.ends
    if h1.order == 1:
        return (), ((),) * len(ends)
    den = group.order
    if h1.index == 1:
        pe, snf = group.end_block, group.end_smith
    else:
        forms, rows = group.end_forms(), pairings(h1)
        pe = [[sum(map(mul, row, forms[l])) % den for row in rows]
              for l in ends]
        snf = smith_normal_form(pe)
    slots = [(i, s, den // gcd(den, s))
             for i, s in enumerate(snf.diagonal()) if s % den]
    columns = [[v[i] for v in snf.V] for i, _, _ in slots]
    residues = []
    for l, row in zip(ends, pe):
        residue = []
        for column, (i, s, e) in zip(columns, slots):
            x = sum(map(mul, row, column))
            if x % s:
                raise InternalError(
                    f"zero-sum search check s_i | (pe V)_li failed: end "
                    f"{l}, slot {i}, s_i = {s}, (pe V)_li = {x}")
            residue.append(x // s % e)
        residues.append(tuple(residue))
    return tuple(e for _, _, e in slots), tuple(residues)


def _class_steps(residues, moduli):
    """Tabulate, per end label, the class one step along that end leads
    to, and the negation table, class -c for each class c.

    A class of K = prod Z/e_i is its mixed-radix code sum_i x_i t_i, with
    strides t_0 = 1 and t_{i+1} = t_i e_i.  A step by a residue r moves
    each digit x_i to x_i + r_i mod e_i, a rotation of range(e_i).  Over
    the codes below t_{i+1}, the table is one block per value x of digit
    i: the rotation's image of x times t_i, plus the table below t_i.  So
    a table is built digit by digit, with no class looked up.  Reversing
    the codes sends every digit x_i to e_i - 1 - x_i, so the negation
    table, x_i -> -x_i mod e_i, is the step table of (1, ..., 1)
    reversed."""
    def stepped(residue):
        out, stride = [0], 1
        for d, m in zip(residue, moduli):
            rotation = list(range(d, m)) + list(range(d))
            if stride == 1:
                out = rotation
            else:
                out = [b + t for b in [stride * x for x in rotation]
                       for t in out]
            stride *= m
        return out

    tables = {l: stepped(r) for l, r in residues.items()}
    return tables, stepped((1,) * len(moduli))[::-1]


def _node_paths(g):
    """Each maximal path of vertices of valence <= 2 out of a node p, as
    (p, path, q), the path's vertices from p outwards: q is the node at
    its far end, or None when the path is an arm and ends at a leaf.  A
    chain is yielded once from each end; an edge between two nodes is no
    path."""
    for p in g.nodes:
        for v in g.neighbors(p):
            path, previous = [v], p
            while g.degree(v) == 2:
                a, b = g.neighbors(v)
                previous, v = v, b if a == previous else a
                path.append(v)
            if g.degree(v) == 1:
                yield p, path, None
            elif len(path) > 1:
                yield p, path[:-1], v


class ZeroSumSearch:
    """Minima of M_v over the nonzero H1-invariant monomial cycles.

    The monomials are those in every end-curve variable of the graph H1
    was built on: its ends are the labels.  A monomial cycle pairs
    integrally with H1 exactly when its ends' residues sum to the zero
    class of K = prod Z/e_i, the Smith coordinates of the residues (see
    `_congruences`), so a nonzero member is a walk from class 0 back to
    class 0 in which end i is a step by its residue, weighted
    |H| * M_v(E_i*) = num[v][i] (every dual entry has a denominator
    dividing |det I(E)| = |H|, which blowups keep).  A shortest-path
    search over the classes finds the lightest such walk.  A class is its
    mixed-radix code in K, and a step table rotates each digit of the
    codes (see `_class_steps`).  The residues are characters of H1, and
    there are exactly |H1| classes: the ends' classes generate H
    (DiscriminantGroup) and the pairing is perfect, so the residue map
    has image H / H1^perp, of order |H1|.  The residues generate K, so
    |K| = prod e_i, checked to be |H1|.  The classes form a group, and
    the search meets itself in the middle (see `_shortest`), settling
    only the classes whose least walk weighs less than about half the
    answer.

    Every dual entry is positive, so a member attaining min M_v is a
    Hilbert-basis generator and the minimum over all nonzero members is
    the minimum over the generators.  Z_v, the edge checks and the end
    witnesses need only these minima, so no Hilbert basis is built.

    Results are kept by vertex tuple and removed end, and an end or edge
    query is read off the vertex queries' members whenever one of them is
    the answer (see `least`).  On the graph H1 was built on, `z` searches
    only the nodes: every member is harmonic off the ends, so a vertex of
    a chain or an arm takes a node's member whenever that member attains
    Z at the chain's other node, or has exponent 0 at the arm's leaf (at
    exponent 1, the lesser of it and the leaf's end query's member).

    With one class (|H1| = 1, the universal abelian cover) no search runs:
    every end step lands on class 0, so each step is a member, and every
    dual entry is positive, so a walk of two or more steps is heavier in
    every M_v than each of its steps.  The answer is the least single
    step, read off the rows.  Among steps with equal rows the last label
    wins, since its unit exponent vector is the least.

    Keys are ints (see `_shortest`): the degree and exponent fields have
    one layout for the run, each label's step packed there once, and a
    query packs its row entries above them and checks its answer, read
    back with shifts and masks, against its exponents in O(ends).

    The search reads only the end-weight row of each vertex v, the
    integers |H| * M_v(E_i*) in label order (`row`): every row of the
    group's dual basis once, when it is built (round 1's Z reads them
    all).  It follows the blowups of its graph (`advance`) with no dual
    basis.  Blowing up is a pullback: E'_x* = pi*(E_x*) for every old
    vertex x, and the end dual that moves onto a new leaf u is
    E'_u* = E_u + pi*(E_i*).  pi* keeps every old coefficient and puts
    at u the sum of the coefficients at the centre.  So an old vertex
    keeps its row (its entry at a moved label is still E_i*'s), its
    minima and every result kept for it, and the new vertex's row is the
    sum of its centre's rows, label by label, plus |H| (the 1 of E_u at
    u) at the label of an end that moved onto it.  Vertex ids persist,
    so only the keys that involve a new vertex are searched again.
    """

    def __init__(self, h1):
        if h1.order > RESIDUE_CAP:
            raise CapExceededError(
                f"zero-sum search: |H1| = {h1.order} residue classes "
                f"exceed the cap {RESIDUE_CAP}")
        group = h1.group
        g = group.graph
        self.labels = g.ends
        self._scale = group.order  # the basis's den, certified by the group
        moduli, residues = _congruences(h1)
        if prod(moduli) != h1.order:
            raise InternalError(
                f"zero-sum search check |K| == |H1| failed: the end "
                f"residues generate K with |K| = {prod(moduli)}, "
                f"|H1| = {h1.order}")
        self._steps, self._negation = _class_steps(
            dict(zip(self.labels, residues)), moduli)
        # the degree and exponent fields of every key (see `_shortest`)
        count = len(self.labels)
        self._field = b = (2 * len(self._negation) + 2).bit_length()
        self._low = b * (count + 1)
        self._suffixes = [1 << b * count | 1 << b * i
                          for i in reversed(range(count))]
        self._slots = {l: i for i, l in enumerate(self.labels)}
        self._memo = {}
        self._graph = g
        self.derived = {}  # vertex -> node whose member z() read it off
        columns = list(map(g.index, self.labels))
        self._rows = {v: tuple(row[c] for c in columns)
                      for v, row in zip(g.vertex_ids, group.basis.num)}

    def row(self, v):
        """|H| * M_v(E_i*) for each end label i, in label order: the
        integer row of v's dual-basis numerators at the current ends."""
        row = self._rows.get(v)
        if row is None:
            raise InternalError(f"vertex {v} is not in the graph")
        return row

    def advance(self, event, label=None):
        """Continue on the graph after the blowup `event` (see the class
        docstring): the new vertex gets its row, and an end blowup moves
        the end `label`, which its caller chose, onto the new leaf."""
        u = event.new_vertex
        if u in self._rows:
            raise InternalError(f"vertex {u} is already in the search")
        new = [sum(column) for column in zip(*map(self.row, event.center))]
        if event.kind == "end" and label in self._slots:
            new[self._slots[label]] += self._scale
        elif event.kind == "end" or label is not None:
            raise InternalError(f"{event.kind} blowup at "
                                f"{list(event.center)} with end label {label}")
        self._rows[u] = tuple(new)

    def least(self, vertices, without=None):
        """The least nonzero member with exponent 0 at end `without`, as
        ((|H| * M_v for v in vertices), {label: exponent}).  There is one:
        a graph has two or more ends, and o steps along one other than
        `without`, o its order in K, are a member.  The values are
        integers: every dual entry's denominator divides |H|.  Members are
        ordered by the M_v lexicographically, then by degree, then by
        exponent vector: the graded-lex order of `hilbert_basis`.

        An end query ((v,), label) or an edge query (v, w) runs no search
        when the member of a vertex query ((x,), None), x among its
        vertices, has exponent 0 at `without` and attains Z_y at every
        vertex y of the query (for an end query, Z_v itself): that member
        is then the answer.  It is least in (degree, exponents) among the
        members attaining Z_x, a set that holds every member attaining
        Z_y at each y, and it is one of these; so no member with exponent
        0 at `without` is less in the order above.

        A one-class run (|H1| = 1) answers every query with the single end
        step, other than `without`, of least (M_v..., exponents): the last
        label among equal rows (see the class docstring).
        """
        key = (tuple(vertices), without)
        if key not in self._memo:
            if len(self._negation) == 1:
                best = label = None
                for l, values in zip(self.labels, zip(*map(self.row, key[0]))):
                    if l != without and (best is None or values <= best):
                        best, label = values, l
                found = best, {label: 1}
            else:
                found = (self._from_vertex_queries(*key)
                         or self._searched(*key))
            self._memo[key] = found
        return self._memo[key]

    def _from_vertex_queries(self, vertices, without):
        """The member of a vertex query that answers this query, as `least`
        describes, or None when none does.  When every vertex's query holds
        the same member object (`z` writes one for a node and its derived
        path), that member attains each Z_y, its own vertex's answer, and
        no row sum is needed."""
        if without is None and len(vertices) == 1:
            return None  # a vertex query itself
        minima = [self.least((x,)) for x in vertices]
        z = tuple(found[0][0] for found in minima)
        first = minima[0][1]
        if without not in first and all(e is first for _, e in minima):
            return z, first  # one member attains every Z_y: no row sums
        rows = [self.row(v) for v in vertices]
        slots = self._slots
        for _, exps in minima:
            if without not in exps and all(
                    sum(a * row[slots[l]] for l, a in exps.items()) == t
                    for row, t in zip(rows, z)):
                return z, exps
        return None

    def _searched(self, vertices, without):
        """The answer to a query from `_shortest`, read back from its
        packed key and checked against its exponents in O(ends)."""
        rows = [self.row(v) for v in vertices]
        low, field, count = self._low, self._field, len(self.labels)
        width = ((2 * len(self._negation) + 2)
                 * max(map(max, rows))).bit_length()
        shifts = [low + width * j for j in reversed(range(len(rows)))]
        top = low + width * len(rows)  # above the M_v fields
        moves = [(sum(map(lshift, column, shifts)) | suffix, self._steps[l])
                 for l, suffix, column
                 in zip(self.labels, self._suffixes, zip(*rows))
                 if l != without]
        best = self._shortest(moves, 1 << top)
        mask = (1 << field) - 1
        exps = {l: a for i, l in enumerate(self.labels, 1)
                if (a := (best >> field * (count - i)) & mask)}
        degree = (best >> field * count) & mask
        values = tuple((best >> s) & ((1 << width) - 1) for s in shifts)
        if without in exps:
            raise InternalError(
                f"zero-sum search used end {without}, which it excludes")
        slots = self._slots
        if (best >> top or degree != sum(exps.values())
                or any(t != sum(a * row[slots[l]] for l, a in exps.items())
                       for row, t in zip(rows, values))):
            total = (*values, degree, *(exps.get(l, 0) for l in self.labels))
            raise InternalError(
                f"zero-sum search key {total} is not the sum of its steps")
        return values, exps

    def z(self):
        """The gcd cycle Z on the current graph, Z_v = min M_v, as the
        integers |H| * Z_v in vertex order (ids ascending).

        Before the first `advance`, on the graph H1 was built on, the
        nodes are searched first, and the other vertices where this lemma
        applies are read off members; `derived` maps each vertex its first
        part answers to its node p.  A search after a blowup keeps no
        adjacency, and searches every vertex.

        Lemma.  Let P be a maximal path of vertices of valence <= 2 out of
        a node p: a chain to a node q, or an arm whose last vertex is the
        leaf l.  If p's member m_p attains Z_q, or has exponent 0 at l,
        then m_p answers ((v,), None) for every v in P.  If m_p has
        exponent 1 at l and m' answers the end query ((l,), l), the lesser
        of m_p and m' in (M_v, degree, exponents) answers ((v,), None).

        Proof.  A member D = sum_l a_l E_l* has D.E_v = -a_v at an end v
        and 0 elsewhere, so on P, -I_P D_P = D_p e_first + D_q e_last,
        with D_q := a_l on an arm.  -I_P is a positive definite path
        block, so (-I_P)^{-1} has positive entries (Eisenbud and Neumann
        1985; see lattice._path_numerators), and M_v = alpha M_p +
        beta M_q (beta a_l on an arm) with alpha, beta > 0.  Every member
        has M_p >= Z_p, M_q >= Z_q and a_l >= 0, so M_v is least exactly
        for the members attaining Z_p and Z_q (with a_l = 0), and m_p is
        one.  m_p is least in (degree, exponents) among the members
        attaining Z_p, a set holding all of these, so it is the answer at
        v; when m_q also attains Z_p, the two are that same member.
        `run_pipeline` checks the premise, Z.E_v = 0 at every derived v:
        a member missing Z_q, or with a_l > 0, breaks it at P's far end.
        At exponent 1, M_v >= alpha Z_p + beta when a_l >= 1, with equality
        exactly when M_p = Z_p and a_l = 1 (m_p is least there in (degree,
        exponents)), and M_v = alpha M_p, proportional to M_l, when a_l = 0
        (m' is least there).  That rests on the rows alone, row(v) = alpha
        row(p) + |H| beta at l, checked here by cross-multiplication; one
        class, which runs no search, keeps the vertex query.
        """
        g = self._graph
        if len(self._rows) == len(g):  # advance only adds rows
            slots, labels = self._slots, self.labels

            def value(exps, v):
                row = self._rows[v]
                return sum(a * row[slots[l]] for l, a in exps.items())

            for p in g.nodes:
                self.least((p,))
            for p, path, q in _node_paths(g):
                exps, l = self.least((p,))[1], path[-1]
                if (l not in exps if q is None
                        else value(exps, q) == self.least((q,))[0][0]):
                    for v in path:
                        self._memo[(v,), None] = (value(exps, v),), exps
                        self.derived[v] = p
                elif q is None and exps[l] == 1 and len(self._negation) > 1:
                    end, s, rp = ((l,), l), slots[l], self.row(p)
                    if end not in self._memo:
                        self._memo[end] = self._searched(*end)
                    i = s == 0  # a slot other than l's
                    for v in path:  # row(v) = alpha row(p) + beta at l
                        rv = self.row(v)
                        if (any(rv[j] * rp[i] != rp[j] * rv[i]
                                for j in range(len(rp)) if j != s)
                                or rv[s] * rp[i] <= rp[s] * rv[i]):
                            raise InternalError(
                                f"arm lemma check failed: row({v}) is not "
                                f"alpha row({p}) + beta at end {l}, beta > 0")
                        m = min(exps, self._memo[end][1], key=lambda e: (
                            value(e, v), sum(e.values()),
                            [e.get(x, 0) for x in labels]))
                        self._memo[(v,), None] = (value(m, v),), m
        return tuple(self.least((v,))[0][0] for v in sorted(self._rows))

    def _shortest(self, moves, ceiling):
        """The least key of a nonempty walk from class 0 back to class 0 by
        the steps `moves`, pairs (step key, class table).  Every key is
        below `ceiling`; `ceiling` itself comes back only if no walk was
        found, which `_searched` reads as a key that is not the sum of its
        steps.

        A key stands for the tuple (M_v..., degree, exponent vector) of a
        walk, of nonnegative integers compared lexicographically and added
        componentwise; a step's degree is 1 and its exponent vector a unit
        vector.  This order is total and additive (a < b gives a + c <
        b + c), and a key carries its walk's exponents, so the least key is
        one member, the one `least` describes.

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

        Each key is one int, its fields most significant first.  A least
        walk to a class visits no class twice (cutting out a loop lowers
        the key), so a settled key has at most `size` - 1 steps, a label
        at most `size`, a candidate at most 2 * `size` - 1 and a doubled
        label 2 * `size`.  So no field exceeds 2 * size + 2 times its
        largest step component: 1 in the degree and exponent fields, of
        (2 * size + 2).bit_length() bits for the whole run, and the
        largest row entry in the M_v fields, of a width set per query.
        No field carries into the next, so int order, addition and
        doubling are tuple order, addition and doubling, and every key is
        below `ceiling`, where B starts.  A key k is compared with half =
        ceil(B / 2), not doubled (2 k < B exactly when k < half), and a
        settled c keeps tentative[c] = d(c), so one test prunes a label.
        """
        negation = self._negation
        size = len(negation)
        settled = [None] * size  # d(c) once class c is settled
        tentative = [ceiling] * size  # least key pushed so far, per class
        tentative[0] = 0
        best = ceiling  # least candidate member so far
        half = (best + 1) >> 1
        pop, push = heapq.heappop, heapq.heappush
        heap = [(0, 0)]
        while heap and heap[0][0] < half:
            d, c = pop(heap)
            if settled[c] is not None:
                continue
            settled[c] = d
            for w, table in moves:
                n = table[c]
                nd = d + w
                back = settled[negation[n]]
                if back is not None and nd + back < best:
                    best = nd + back
                    half = (best + 1) >> 1
                if nd < half and nd < tentative[n]:
                    tentative[n] = nd
                    push(heap, (nd, n))
        return best


# --- the full Hilbert basis (a reference for the search above) --------------------


class HilbertBasis(_Record):
    """Minimal generators of the monomial cycles pairing integrally with H1:
    `generators` is a tuple of MonomialCycle in graded-lex order."""

    _fields = ("graph", "labels", "end_vertices", "orders", "generators")

    def __init__(self, graph, labels, end_vertices, orders, generators):
        self.graph = graph
        self.labels = labels
        self.end_vertices = end_vertices
        self.orders = orders
        self.generators = generators

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
    `end_map` sends every end of H1's graph to its carrier on g.
    """
    labels = h1.group.graph.ends
    if end_map is None:
        end_map = {e: e for e in g.ends}
    if tuple(sorted(end_map)) != labels:
        raise InternalError(
            f"end map labels {sorted(end_map)} are not the ends "
            f"{list(labels)} of the graph H1 was built on")
    vertices = tuple(end_map[l] for l in labels)
    moduli, residues = _congruences(h1)
    orders = tuple(lcm(*(m // gcd(m, r) for m, r in zip(moduli, row)))
                   for row in residues)

    volume = 1
    for o in orders:
        volume *= o + 1
    if volume > BOX_CAP:
        raise CapExceededError(
            f"enumeration box volume {volume} exceeds the cap {BOX_CAP}")

    # one congruence per Smith modulus e_i of the class group K
    rows = list(zip(moduli, zip(*residues)))
    members = []
    for combo in itertools.product(*(range(o + 1) for o in orders)):
        if not any(combo):
            continue
        if all(sum(a * r for a, r in zip(combo, col)) % m == 0
               for m, col in rows):
            members.append(combo)

    end_rows = [basis.num[basis.graph.index(v)] for v in vertices]
    generators = []
    for combo in _minimal_vectors(members):
        num = [0] * len(basis.graph)
        for a, row in zip(combo, end_rows):
            if a:
                num = [x + a * y for x, y in zip(num, row)]
        generators.append(MonomialCycle(dict(zip(labels, combo)), num,
                                        basis.den))
    return HilbertBasis(graph=g, labels=labels, end_vertices=vertices,
                        orders=orders, generators=tuple(generators))


def gcd_cycle(generators):
    """Componentwise minimum of the generators' cycles, as the integers
    |H| * Z_v in vertex order (ZeroSumSearch.z() on the same graph).

    Every monoid member dominates one of its generator summands in every
    coordinate (all dual entries are positive), so this minimum over the
    generators equals the gcd over the whole monoid.
    """
    gens = list(generators)
    if not gens:
        raise InternalError("gcd of an empty generator set")
    return tuple(map(min, zip(*(m.num for m in gens))))


# --- Neumann-Wahl equation skeletons ---------------------------------------------


class NodeSystem(namedtuple("NodeSystem",
                             "node branches monomials coefficients")):
    """Equations attached to one node: one chosen admissible monomial per
    branch (a MonomialCycle in `monomials`) and a (delta-2) x delta
    coefficient matrix, a tuple of int tuples all of whose maximal minors
    are nonzero (Vandermonde rows c_ij = j^(i-1))."""

    __slots__ = ()

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
    chosen = [(*pair[:2], _skeleton_choice(_cycles(g, basis, pair)))
              for pair in _pairs(g)]
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
