"""Workload inputs, command lists and answer checks for the benchmark.

Every workload is a list of `Command`s: one `splicemult` argument vector
plus a check that turns (exit code, stdout, stderr) into an outcome.  The
outcome is "ok" or the name of a failure kind (see `classify_failure`).

Answers are checked against oracles that do not share the program's
algebra wherever one exists:

* Neumann 1983 (Abelian covers of quasihomogeneous surface singularities):
  the universal abelian cover of a star with Seifert invariants alpha_i is
  the Brieskorn complete intersection V(alpha_1..alpha_n), whose
  multiplicity is the product of the n-2 smallest alpha_i.
* Artin and Laufer: on a rational graph the quotient multiplicity is
  -Z_min^2, with Z_min found by Laufer's algorithm.
* |H| = |det I(E)|, with the determinant from a leaf-first elimination on
  the tree, and B * (-I(E)) = identity for the printed dual matrix B.
* The frozen |H| = 12 table of the paper (the values of tests/conftest.py).

Everything else is compared with outputs recorded from the program in
`corpus.json` (see record.py).  Seeded inputs are drawn from the recorded
pools by `stratified_sample`, so that every seed gives a pass of about
the same cost.
"""

import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
CORPUS_PATH = os.path.join(HERE, "corpus.json")

# The group-enumeration cap of the program at the commit that defined this
# benchmark; a UAC star with a larger |H| is a known cap failure there.
GROUP_CAP = 5000

# --- graphs as JSON documents ------------------------------------------------

# The paper's two-node tree (tests/conftest.py): all weights -2 except
# vertex 6 at -4 gives |H| = 12; weights -3 at 1 and 5 as well give 60.
TWO_NODE_EDGES = [(1, 5), (2, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 3),
                  (8, 10), (10, 4)]
H12_WEIGHTS = {i: (-4 if i == 6 else -2) for i in range(1, 11)}
H60_WEIGHTS = {i: (-3 if i in (1, 5) else (-4 if i == 6 else -2))
               for i in range(1, 11)}

# The frozen |H| = 12 table: (|H1|, Z in dual coordinates, multiplicity).
H12_FROZEN = [
    (1, {5: Fraction(1, 2)}, 6), (2, {1: 1}, 6), (2, {6: 1}, 6),
    (2, {2: 1}, 6), (3, {5: Fraction(1, 2)}, 2), (4, {5: 1}, 6),
    (6, {5: 1}, 4), (6, {1: 1}, 2), (6, {2: 1}, 2), (12, {5: 1}, 2),
]


def graph_doc(weights, edges):
    return {"vertices": [{"id": v, "weight": w}
                         for v, w in sorted(weights.items())],
            "edges": [list(e) for e in edges]}


def star_doc(centre, arms):
    """Star with centre vertex 1 and one single-vertex arm of weight -a for
    each a in `arms`."""
    weights = {1: centre}
    weights.update({k + 2: -a for k, a in enumerate(arms)})
    return graph_doc(weights, [(1, k + 2) for k in range(len(arms))])


def tree_doc(weights, parents):
    """Tree on vertices 1..n; vertex k + 2 hangs from parents[k]."""
    w = {k + 1: x for k, x in enumerate(weights)}
    return graph_doc(w, [(p, k + 2) for k, p in enumerate(parents)])


# --- independent oracles -------------------------------------------------------


def _adjacency(doc):
    weights = {v["id"]: v["weight"] for v in doc["vertices"]}
    adj = {v: [] for v in weights}
    for a, b in doc["edges"]:
        adj[a].append(b)
        adj[b].append(a)
    return weights, adj


def tree_det(doc):
    """det I(E) by eliminating leaves towards a root (all pivots nonzero on
    a negative definite tree)."""
    weights, adj = _adjacency(doc)
    root = min(weights)
    order, parent, stack = [], {root: None}, [root]
    while stack:
        v = stack.pop()
        order.append(v)
        for u in adj[v]:
            if u != parent[v]:
                parent[u] = v
                stack.append(u)
    pivot = {}
    for v in reversed(order):
        pivot[v] = weights[v] - sum(Fraction(1) / pivot[u]
                                    for u in adj[v] if u != parent[v])
    det = Fraction(1)
    for p in pivot.values():
        det *= p
    return int(det)


def intersection_matrix(doc):
    weights, adj = _adjacency(doc)
    ids = sorted(weights)
    return [[weights[a] if a == b else int(b in adj[a]) for b in ids]
            for a in ids]


def neumann_uac_mult(arms):
    """Multiplicity of V(alpha_1..alpha_n): product of the n-2 smallest."""
    out = 1
    for a in sorted(arms)[:len(arms) - 2]:
        out *= a
    return out


def laufer(doc):
    """(-Z_min^2, rational?) by Laufer's computation sequence."""
    weights, adj = _adjacency(doc)
    z = {v: 1 for v in weights}

    def dot(v):
        return z[v] * weights[v] + sum(z[u] for u in adj[v])

    while True:
        v = next((v for v in sorted(weights) if dot(v) > 0), None)
        if v is None:
            break
        z[v] += 1
    zz = sum(z[v] * dot(v) for v in weights)
    kz = sum(z[v] * (-weights[v] - 2) for v in weights)
    return -zz, zz + kz == -2  # arithmetic genus p_a(Z) = 1 + (Z^2+KZ)/2


# --- failures ----------------------------------------------------------------

def classify_failure(rc, err):
    """Failure kind of a command that did not answer."""
    if rc == 3:
        if "enumeration box volume" in err:
            return "box_cap"
        if "exceeds the enumeration cap" in err:
            return "group_cap"
        if "knapsack search bound" in err:
            return "search_cap"
        if "blowups" in err:
            return "max_blowups"
        return "cap_other"
    return {1: "input", 2: "condition", None: "crash"}.get(rc, "exit_other")


class Command:
    """One CLI invocation with its answer check.

    `known_defect` names the failure kind the program showed on this input
    when the benchmark was defined; it still counts as a failure, but not as
    an unexpected one.  `check(out)` returns None when the answer on stdout
    is right and a message otherwise; it runs once per distinct stdout, and
    an answer missing a field it reads is wrong.
    """

    __slots__ = ("label", "argv", "check", "ok_codes", "known_defect",
                 "_verified")

    def __init__(self, label, argv, check, ok_codes=(0,), known_defect=None):
        self.label = label
        self.argv = argv
        self.check = check
        self.ok_codes = ok_codes
        self.known_defect = known_defect
        self._verified = {}

    def outcome(self, rc, out, err):
        """(kind, message): kind is "ok" or a failure kind."""
        if rc not in self.ok_codes:
            last = err.strip().splitlines()[-1:] or [""]
            return classify_failure(rc, err), last[0][:200]
        if out not in self._verified:
            try:
                self._verified[out] = self.check(out)
            except (KeyError, IndexError, TypeError, ValueError) as exc:
                self._verified[out] = f"malformed answer: {exc!r}"
        msg = self._verified[out]
        return ("ok", None) if msg is None else ("wrong_answer", msg)


# --- answer checks -------------------------------------------------------------


def _json(out):
    try:
        return json.loads(out), None
    except ValueError as exc:
        return None, f"stdout is not JSON: {exc}"


def _check_mult(doc, h1_is_h, expected):
    """Check `mult --json`: |H| and the index from the tree determinant,
    multiplicity = index * (-Z.Z) from the printed values, and the
    multiplicity against `expected` when one is known."""
    order = abs(tree_det(doc))

    def check(out):
        d, err = _json(out)
        if err:
            return err
        index = 1 if h1_is_h else order
        h1_order = order if h1_is_h else 1
        if (d["index"], d["H1_order"]) != (index, h1_order):
            return (f"index/|H1| = {d['index']}/{d['H1_order']}, "
                    f"expected {index}/{h1_order}")
        mult = d["multiplicity"]
        if Fraction(mult) != d["index"] * -Fraction(d["ZZ"]):
            return f"multiplicity {mult} != index * -({d['ZZ']})"
        if expected is not None and mult != expected:
            return f"multiplicity {mult}, expected {expected}"
        return None
    return check


def _nonzero(z_dual):
    return {int(v): Fraction(c) for v, c in z_dual.items() if Fraction(c)}


def _check_table(recorded, frozen=None):
    """Check `table --json` against the recorded rows (and the frozen h12
    table); every row must satisfy mult = index * (-Z.Z) and
    |H1| * |H1_flat| = |H|."""
    def row_key(r):
        return json.dumps(r["elements"])

    def check(out):
        d, err = _json(out)
        if err:
            return err
        if (d["order"], d["invariant_factors"]) != (
                recorded["order"], recorded["invariant_factors"]):
            return "discriminant group differs from the recorded one"
        rows = {row_key(r): r for r in d["rows"]}
        if len(rows) != len(recorded["rows"]):
            return f"{len(rows)} rows, expected {len(recorded['rows'])}"
        for r in d["rows"]:
            if r["multiplicity"] != r["index"] * -Fraction(r["ZZ"]):
                return f"row {r['subgroup']}: mult != index * -Z.Z"
            if r["order"] * len(r["flat_elements"]) != d["order"]:
                return f"row {r['subgroup']}: |H1| * |H1_flat| != |H|"
        for want in recorded["rows"]:
            got = rows.get(row_key(want))
            if got is None:
                return f"missing subgroup {want['elements']}"
            for field in ("order", "index", "multiplicity", "ZZ"):
                if got[field] != want[field]:
                    return f"row {got['subgroup']}: {field} differs"
            if sorted(got["flat_elements"]) != sorted(want["flat_elements"]):
                return f"row {got['subgroup']}: flat subgroup differs"
            if _nonzero(got["Z_dual"]) != _nonzero(want["Z_dual"]):
                return f"row {got['subgroup']}: Z differs"
        if frozen is not None:
            mine = sorted((r["order"], sorted(_nonzero(r["Z_dual"]).items()),
                           r["multiplicity"]) for r in d["rows"])
            if mine != sorted((o, sorted(z.items()), m)
                              for o, z, m in frozen):
                return "table differs from the paper's frozen h12 table"
        return None
    return check


def _check_invariants(doc, recorded):
    """Check `invariants --json`: determinant and |H| against the tree
    recursion, B * (-I) = identity, and the recorded ends, nodes, factors
    and base points."""
    det = tree_det(doc)
    imat = intersection_matrix(doc)

    def check(out):
        d, err = _json(out)
        if err:
            return err
        if d["det"] != det or d["order"] != abs(det):
            return f"det/|H| = {d['det']}/{d['order']}, expected {det}"
        prod = 1
        for f in d["invariant_factors"]:
            prod *= f
        if prod != d["order"]:
            return "invariant factors do not multiply to |H|"
        b = [[Fraction(x) for x in row] for row in d["dual_matrix"]]
        n = len(imat)
        for i in range(n):
            for j in range(n):
                s = -sum(b[i][k] * imat[k][j] for k in range(n))
                if s != (i == j):
                    return "dual matrix is not (-I(E))^-1"
        for field in ("ends", "nodes", "invariant_factors", "base_points"):
            if d[field] != recorded[field]:
                return f"{field} = {d[field]}, recorded {recorded[field]}"
        return None
    return check


def _check_text(expected):
    def check(out):
        return None if out == expected else (
            f"stdout {out[:80]!r} differs from the recorded output")
    return check


# --- seeded selection ----------------------------------------------------------


def stratified_sample(pool, count, rng, always):
    """`count` items of `pool` (dicts with a recorded "cost"): the `always`
    costliest every time, then one from each of `count - always` strata of
    the rest, taken in cost order.  Every seed then gets the same mix of
    cheap and costly inputs."""
    ranked = sorted(pool, key=lambda p: (-p["cost"], json.dumps(p)))
    out = ranked[:always]
    rest = ranked[always:]
    k = count - always
    for s in range(k):
        stratum = rest[s * len(rest) // k:(s + 1) * len(rest) // k]
        out.append(rng.choice(stratum))
    return out


def load_corpus():
    with open(CORPUS_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


class Inputs:
    """Writes the input documents of one workload into a directory."""

    def __init__(self, directory):
        self.directory = directory
        self.count = 0

    def write(self, doc):
        self.count += 1
        path = os.path.join(self.directory, f"g{self.count:03d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return path


def build(name, seed, directory, corpus):
    """The command list of workload `name` for `seed`, with its inputs
    written under `directory`."""
    rng = random.Random(f"{name}:{seed}")
    files = Inputs(directory)
    return _BUILDERS[name](rng, files, corpus)


def _table_paper(rng, files, corpus):
    cmds = []
    for label, weights, frozen in (("h12", H12_WEIGHTS, H12_FROZEN),
                                   ("h60", H60_WEIGHTS, None)):
        path = files.write(graph_doc(weights, TWO_NODE_EDGES))
        cmds.append(Command(f"table {label}", ["table", path, "--json"],
                            _check_table(corpus["tables"][label], frozen)))
    return cmds


def _uac_command(centre, arms, files):
    doc = star_doc(centre, arms)
    known = "group_cap" if abs(tree_det(doc)) > GROUP_CAP else None
    return Command(f"uac star({centre}; {','.join(map(str, arms))})",
                   ["mult", files.write(doc), "--uac", "--json"],
                   _check_mult(doc, False, neumann_uac_mult(arms)),
                   known_defect=known)


def _uac_blowup(rng, files, corpus):
    # Stars over the group cap (101 of 998 in the pool) are their own
    # stratum with a fixed count, so every seed shows that defect as often.
    pool = corpus["uac_stars"]
    capped = [p for p in pool if p["order"] > GROUP_CAP]
    plain = [p for p in pool if p["order"] <= GROUP_CAP]
    picks = (stratified_sample(plain, 27, rng, always=4)
             + [rng.choice(capped) for _ in range(3)])
    rng.shuffle(picks)
    stars = [(-1, [3, 4, 5, 7]), (-2, [5, 7, 11])]
    stars += [(p["centre"], p["arms"]) for p in picks]
    return [_uac_command(c, arms, files) for c, arms in stars]


def _quotient_command(centre, arms, files, recorded, known=None):
    doc = star_doc(centre, arms)
    zz, rational = laufer(doc)
    expected = zz if rational else recorded
    return Command(f"quotient star({centre}; {','.join(map(str, arms))})",
                   ["mult", files.write(doc), "--quotient", "--json"],
                   _check_mult(doc, True, expected), known_defect=known)


def _quotient_box(rng, files, corpus):
    fixed = corpus["quotient_fixed"]
    cmds = [_quotient_command(p["centre"], p["arms"], files, p["mult"],
                              p.get("known_defect")) for p in fixed]
    for p in stratified_sample(corpus["quotient_stars"], 12, rng, always=6):
        cmds.append(_quotient_command(p["centre"], p["arms"], files,
                                      p["mult"]))
    return cmds


def _inspect_trees(rng, files, corpus):
    cmds = []
    picks = stratified_sample(corpus["trees"], 60, rng, always=12)
    rng.shuffle(picks)
    for t in picks:
        doc = tree_doc(t["weights"], t["parents"])
        path = files.write(doc)
        rec = t["validate"]
        # exit 2 is the right answer where the monomial condition fails
        ok = (rec["rc"],) if rec["rc"] in (0, 2) else ()
        cmds.append(Command(f"validate tree {t['id']}", ["validate", path],
                            _check_text(rec["stdout"]), ok_codes=ok))
        cmds.append(Command(f"invariants tree {t['id']}",
                            ["invariants", path, "--json"],
                            _check_invariants(doc, t["invariants"])))
    return cmds


_BUILDERS = {
    "table_paper": _table_paper,
    "uac_blowup": _uac_blowup,
    "quotient_box": _quotient_box,
    "inspect_trees": _inspect_trees,
}
WORKLOADS = tuple(_BUILDERS)
