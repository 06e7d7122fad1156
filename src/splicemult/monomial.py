"""Monomial cycles: the monomial condition, base points, Hilbert bases.

A monomial cycle is a nonnegative integer combination of end duals E_i*;
it stands for the monomial prod z_i^{a_i} in the end-curve variables.  All
searches reduce to integer knapsack problems after clearing denominators
(every denominator divides |det I(E)|), and every dual-basis entry is
strictly positive, which makes all bounds finite.
"""

import itertools
from dataclasses import dataclass
from math import lcm

from .errors import CapExceededError, ConditionError, InternalError
from .graph import branches
from .lattice import QCycle, _as_vector

BOX_CAP = 10 ** 8  # points in a Hilbert-basis enumeration box
SEARCH_CAP = 2_000_000  # nodes of one knapsack search


class MonomialCycle:
    """Exponent vector over end indices plus its vertex-basis expansion."""

    __slots__ = ("exponents", "expansion")

    def __init__(self, exponents, expansion):
        self.exponents = dict(sorted(exponents.items()))
        self.expansion = expansion

    @property
    def degree(self):
        return sum(self.exponents.values())

    def exponent_vector(self, labels):
        return tuple(self.exponents.get(l, 0) for l in labels)

    def monomial_string(self):
        parts = []
        for label, a in self.exponents.items():
            if a == 1:
                parts.append(f"z{label}")
            elif a > 1:
                parts.append(f"z{label}^{a}")
        return "*".join(parts) if parts else "1"

    def __eq__(self, other):
        return (isinstance(other, MonomialCycle)
                and self.exponents == other.exponents
                and self.expansion == other.expansion)

    def __repr__(self):
        return f"MonomialCycle({self.monomial_string()})"


def monomial_cycle(basis, exponents, end_map=None):
    """Build a monomial cycle; exponent keys are end indices, mapped onto
    current end vertices by end_map (identity when omitted)."""
    g = basis.graph
    if end_map is None:
        end_map = {e: e for e in g.ends}
    exps = {}
    total = QCycle.zero(g)
    for label, a in exponents.items():
        if label not in end_map:
            raise InternalError(f"{label} is not a tracked end index")
        if a < 0:
            raise InternalError("exponents must be nonnegative")
        exps[label] = a
        if a:
            total = total + a * basis.dual_cycle(end_map[label])
    for label in end_map:
        exps.setdefault(label, 0)
    return MonomialCycle(exps, total)


# --- integer knapsack helpers -------------------------------------------------


def _clear_denominators(target, weights):
    """Scale a rational target and weights to integers by their lcm."""
    den = lcm(target.denominator, *(w.denominator for w in weights))
    t = target.numerator * (den // target.denominator)
    ws = [w.numerator * (den // w.denominator) for w in weights]
    return t, ws


def _representable(target, weights):
    """Whether target is a nonnegative integer combination of the weights.

    Bitset dynamic programming on the cleared-denominator problem; bit v of
    the accumulator records that value v is reachable.
    """
    t, ws = _clear_denominators(target, weights)
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


def _exact_solutions(target, weights):
    """All nonnegative integer vectors a with sum a_k * weights_k = target.

    Finite because the weights are strictly positive; the recursion counts
    its nodes against the cap.
    """
    t, ws = _clear_denominators(target, weights)
    if t < 0:
        return []
    out = []
    counter = [0]

    def rec(idx, remaining, partial):
        counter[0] += 1
        if counter[0] > SEARCH_CAP:
            raise CapExceededError("knapsack search bound exceeded")
        if idx == len(ws):
            if remaining == 0:
                out.append(tuple(partial))
            return
        w = ws[idx]
        if idx == len(ws) - 1:
            if remaining % w == 0:
                out.append(tuple(partial + [remaining // w]))
            return
        for a in range(remaining // w + 1):
            rec(idx + 1, remaining - a * w, partial + [a])

    rec(0, t, [])
    return out


# --- monomial condition -------------------------------------------------------


@dataclass(frozen=True)
class BranchMonomials:
    """Minimal admissible monomials for one (node, branch) pair."""

    node: int
    branch: tuple
    ends: tuple
    witnesses: tuple  # of MonomialCycle, graded-lex order

    @property
    def satisfied(self):
        return bool(self.witnesses)


@dataclass(frozen=True)
class MonomialConditionReport:
    graph: object
    entries: tuple

    @property
    def satisfied(self):
        return all(e.satisfied for e in self.entries)

    def failures(self):
        return [e for e in self.entries if not e.satisfied]


def _minimal_vectors(vectors):
    """Componentwise-minimal elements, scanned in graded-lex order."""
    ordered = sorted(vectors, key=lambda v: (sum(v), v))
    kept = []
    for v in ordered:
        if not any(all(x <= y for x, y in zip(k, v)) for k in kept):
            kept.append(v)
    return kept


def admissible_monomials(g, basis, node, branch):
    """All minimal monomial cycles D with D - E_node* effective, integral and
    supported on the branch.

    Ends outside the branch are forced to exponent zero: for such an end j,
    D . E_j = -a_j, while (D - E_node*) . E_j >= 0 because the difference is
    effective without an E_j component; hence a_j = 0.  Matching the
    coefficient at the node itself then bounds the search.
    """
    branch = frozenset(branch)
    branch_ends = sorted(e for e in g.ends if e in branch)
    target = basis.entry(node, node)
    weights = [basis.entry(node, e) for e in branch_ends]
    node_dual = basis.dual_cycle(node)
    witnesses = []
    for combo in _exact_solutions(target, weights):
        d = QCycle.zero(g)
        for a, e in zip(combo, branch_ends):
            if a:
                d = d + a * basis.dual_cycle(e)
        diff = d - node_dual
        if diff.is_integral() and diff.is_effective() and all(
                diff.coefficient(v) == 0
                for v in g.vertex_ids if v not in branch):
            witnesses.append(combo)
    out = []
    for combo in _minimal_vectors(witnesses):
        exps = {e: a for e, a in zip(branch_ends, combo)}
        out.append(monomial_cycle(basis, exps))
    return out


def monomial_condition(g, basis):
    """Check every (node, branch) pair for admissible monomials."""
    entries = []
    for node in g.nodes:
        for branch in branches(g, node):
            witnesses = admissible_monomials(g, basis, node, branch)
            entries.append(BranchMonomials(
                node=node,
                branch=tuple(sorted(branch)),
                ends=tuple(e for e in g.ends if e in branch),
                witnesses=tuple(witnesses),
            ))
    return MonomialConditionReport(graph=g, entries=tuple(entries))


def require_monomial_condition(g, basis):
    """The monomial condition report; ConditionError naming every failing
    (node, branch) pair when it does not hold."""
    report = monomial_condition(g, basis)
    if not report.satisfied:
        bad = ", ".join(f"node {e.node} branch {list(e.branch)}"
                        for e in report.failures())
        raise ConditionError(f"monomial condition fails at: {bad}")
    return report


# --- base points ----------------------------------------------------------------


def base_point_set(g, basis):
    """Ends whose coefficient target is not a combination of the others.

    End i is a base point exactly when M_i(E_i*) is NOT a nonnegative
    integer combination of { M_i(E_j*) : j another end }.
    """
    ends = g.ends
    out = set()
    for i in ends:
        target = basis.entry(i, i)
        weights = [basis.entry(i, j) for j in ends if j != i]
        if not _representable(target, weights):
            out.add(i)
    return frozenset(out)


# --- Hilbert basis of the congruence submonoid ----------------------------------


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

    def pulled_back(self, basis, end_map):
        """The same monoid's generators on a blown-up graph.

        The exponent set is a blowup invariant: an old end's dual pulls
        back (E'_i* = pi*(E_i*)), and the leaf that takes over an end's
        curve variable pairs with the pulled-back H1 exactly like that end
        did.  So only the expansions are rebuilt, on the new basis.
        """
        if tuple(sorted(end_map)) != self.labels:
            raise InternalError("end map does not match the end labels")
        gens = tuple(monomial_cycle(basis, m.exponents, end_map)
                     for m in self.generators)
        return HilbertBasis(graph=basis.graph, labels=self.labels,
                            end_vertices=tuple(end_map[l] for l in self.labels),
                            orders=self.orders, generators=gens)


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


def hilbert_basis(g, basis, h1, end_map=None):
    """Minimal generating set of the monoid of H1-invariant monomial cycles.

    For each end the additive order of its pairing vector bounds the box:
    ord_i * e_i is always a member, so any member with a_i > ord_i splits
    off a copy of it.  Enumerating the box [0, ord_i]^ends and keeping the
    componentwise-minimal members is therefore exact.
    """
    if end_map is None:
        end_map = {e: e for e in g.ends}
    labels = tuple(sorted(end_map))
    vertices = tuple(end_map[l] for l in labels)
    gen_vecs = _generator_vectors(g, h1)

    pairings = []
    for v in vertices:
        pairings.append([basis.pairing({v: 1}, gv) for gv in gen_vecs])
    orders = tuple(lcm(*(p.denominator for p in row)) for row in pairings)

    volume = 1
    for o in orders:
        volume *= o + 1
    if volume > BOX_CAP:
        raise CapExceededError(
            f"enumeration box volume {volume} exceeds the cap {BOX_CAP}")

    # integer residue form of the congruences, one modulus per generator
    k = len(gen_vecs)
    moduli = []
    residues = []
    for j in range(k):
        m = lcm(*(pairings[i][j].denominator for i in range(len(vertices))))
        moduli.append(m)
        residues.append([
            (pairings[i][j].numerator * (m // pairings[i][j].denominator)) % m
            for i in range(len(vertices))])

    members = []
    for combo in itertools.product(*(range(o + 1) for o in orders)):
        if not any(combo):
            continue
        ok = True
        for j in range(k):
            m = moduli[j]
            if m == 1:
                continue
            row = residues[j]
            if sum(a * r for a, r in zip(combo, row)) % m:
                ok = False
                break
        if ok:
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
    maximal exponent, then lowest degree, then lexicographic."""
    def key(m):
        exps = tuple(m.exponents[l] for l in sorted(m.exponents))
        return (max(exps), sum(exps), exps)
    return min(witnesses, key=key)


def neumann_wahl_system(g, basis):
    """Splice equation skeletons, one block of delta_v - 2 equations per node."""
    report = require_monomial_condition(g, basis)
    by_node = {}
    for entry in report.entries:
        by_node.setdefault(entry.node, []).append(entry)
    systems = []
    for node in g.nodes:
        entries = by_node.get(node, [])
        chosen = tuple(_skeleton_choice(e.witnesses) for e in entries)
        delta = len(entries)
        rows = tuple(tuple(j ** i for j in range(1, delta + 1))
                     for i in range(delta - 2))
        systems.append(NodeSystem(
            node=node,
            branches=tuple(e.branch for e in entries),
            monomials=chosen,
            coefficients=rows,
        ))
    return systems
