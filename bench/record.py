"""Rebuild bench/corpus.json: the input pools and the recorded answers.

    python3 bench/record.py

Run at the commit whose answers the benchmark should hold the program to.
For each pool it records every candidate input, the answer the program
gives, and a cost (median of three runs, in ms, scaled to the nominal CPU
speed by run.Speedometer) that
`workloads.stratified_sample` uses to give every seed the same mix of cheap
and costly inputs.  The pools:

* uac_stars: every star with 3-5 single-vertex arms of weight -7..-2 and a
  centre of weight -3..-1 that is negative definite, except
  star(-1; -3,-4,-5,-7), which the uac_blowup workload always runs.
  Answers are not recorded: the Neumann formula checks them.
* quotient_stars: every negative definite star with 3 single-vertex arms of
  weight -5..-2 and a centre of -2 or -1, with its quotient multiplicity.
* quotient_fixed: the three stars quotient_box always runs.
* trees: 360 random trees with 6-12 vertices and at least two nodes,
  weights from {-2, -2, -2, -3, -3, -4}, with the recorded validate output
  and the invariants fields that workloads.py compares.
* tables: the rows of `table --json` on the paper's two graphs.
"""

import itertools
import json
import os
import random
import statistics
from fractions import Fraction

import run
import workloads as wl

TREE_POOL = 360
SCRATCH = os.path.join(run.ROOT, ".bench_work", "record")


class Recorder:
    """Runs commands on input documents and times them."""

    def __init__(self, cli, speedometer):
        self.cli = cli
        self.speedometer = speedometer

    def __call__(self, doc, args):
        """(exit code, stdout, stderr, cost in ms) of one command on `doc`."""
        path = os.path.join(SCRATCH, "g.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        argv = [args[0], path] + args[1:]
        results = [self.speedometer.time(run.invoke, self.cli, argv)
                   for _ in range(3)]
        (rc, out, err), _, _ = results[0]
        cost = statistics.median(r[1] for r in results) * 1000
        return rc, out, err, round(cost, 2)


def _negative_definite_star(centre, arms):
    return centre + sum(Fraction(1, a) for a in arms) < 0


def uac_stars(rec):
    out = []
    for centre in (-1, -2, -3):
        for k in (3, 4, 5):
            for arms in itertools.combinations_with_replacement(range(2, 8),
                                                                k):
                if (not _negative_definite_star(centre, arms)
                        or (centre, arms) == (-1, (3, 4, 5, 7))):
                    continue
                doc = wl.star_doc(centre, arms)
                _, _, _, cost = rec(doc, ["mult", "--uac", "--json"])
                out.append({"centre": centre, "arms": list(arms),
                            "order": abs(wl.tree_det(doc)), "cost": cost})
    return out


def _quotient(rec, centre, arms):
    rc, out, err, cost = rec(wl.star_doc(centre, arms),
                                 ["mult", "--quotient", "--json"])
    entry = {"centre": centre, "arms": list(arms), "cost": cost}
    if rc == 0:
        entry["mult"] = json.loads(out)["multiplicity"]
    else:
        entry["mult"] = None
        entry["known_defect"] = wl.classify_failure(rc, err)
    return entry


def quotient_stars(rec):
    return [_quotient(rec, centre, arms)
            for centre in (-2, -1)
            for arms in itertools.combinations_with_replacement(range(2, 6),
                                                                3)
            if _negative_definite_star(centre, arms)]


def quotient_fixed(rec):
    return [_quotient(rec, c, arms) for c, arms in
            ((-3, [3] * 5), (-1, [3, 4, 5, 7]), (-2, [5, 7, 11]))]


def trees(rec):
    from splicemult import ResolutionGraph, SpliceMultError

    rng = random.Random(1983)
    out, seen = [], set()
    while len(out) < TREE_POOL:
        n = rng.randint(6, 12)
        weights = [rng.choice([-2, -2, -2, -3, -3, -4]) for _ in range(n)]
        parents = [rng.randint(1, i) for i in range(1, n)]
        key = (tuple(weights), tuple(parents))
        try:
            g = ResolutionGraph({k + 1: w for k, w in enumerate(weights)},
                                [(p, k + 2) for k, p in enumerate(parents)])
        except SpliceMultError:
            continue
        if len(g.nodes) < 2 or key in seen:
            continue
        seen.add(key)
        doc = wl.tree_doc(weights, parents)
        rc, text, _, cost_v = rec(doc, ["validate"])
        rc_i, inv, _, cost_i = rec(doc, ["invariants", "--json"])
        if rc_i != 0:
            raise SystemExit(f"invariants failed on tree {key}")
        inv = json.loads(inv)
        out.append({
            "id": len(out), "weights": weights, "parents": parents,
            "cost": round(cost_v + cost_i, 2),
            "validate": {"rc": rc, "stdout": text},
            "invariants": {f: inv[f] for f in
                           ("ends", "nodes", "invariant_factors",
                            "base_points")},
        })
    return out


def tables(rec):
    out = {}
    for label, weights in (("h12", wl.H12_WEIGHTS), ("h60", wl.H60_WEIGHTS)):
        rc, text, err, _ = rec(wl.graph_doc(weights,
                                                     wl.TWO_NODE_EDGES),
                                   ["table", "--json"])
        if rc != 0:
            raise SystemExit(f"table {label} failed: {err}")
        d = json.loads(text)
        out[label] = {
            "order": d["order"],
            "invariant_factors": d["invariant_factors"],
            "rows": [{f: r[f] for f in ("elements", "flat_elements", "order",
                                        "index", "multiplicity", "ZZ")}
                     | {"Z_dual": {v: c for v, c in r["Z_dual"].items()
                                   if Fraction(c)}}
                     for r in d["rows"]],
        }
    return out


def main():
    os.makedirs(SCRATCH, exist_ok=True)
    speedometer = run.Speedometer()
    rec = Recorder(run.import_program(), speedometer)
    try:
        corpus = {
            "tables": tables(rec),
            "quotient_fixed": quotient_fixed(rec),
            "quotient_stars": quotient_stars(rec),
            "uac_stars": uac_stars(rec),
            "trees": trees(rec),
        }
    finally:
        speedometer.close()
    with open(wl.CORPUS_PATH, "w", encoding="utf-8") as fh:
        json.dump(corpus, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    os.remove(os.path.join(SCRATCH, "g.json"))
    os.removedirs(SCRATCH)


if __name__ == "__main__":
    main()
