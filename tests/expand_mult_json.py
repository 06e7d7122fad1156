"""Rebuild whole rounds from a `mult --json` document.

`mult --json` writes round 1 whole and each later round as what its
blowup changed: `Z_vertex` holds the new vertex, `Z_dual` the blowup's
centre and new vertex, and `end_decisions` and `edge_checks` the records
the round made.  expand() turns that document into the one with every
round whole, as splicemult.pipeline.whole_rounds rebuilds the report:
each map and record list is the last round's, updated by the round's
own, where a round that blows up an end checks no edge and an edge
blowup removes its edge.  The other keys are kept as they are.

Standard library only, so that it runs where no package is installed:

    python tests/expand_mult_json.py < mult.json > whole.json

prints json.dumps(expand(doc), indent=2, sort_keys=True), as `mult
--json` writes its documents.
"""

import json
import sys


def expand(doc):
    """The `mult --json` document `doc` with every round whole."""
    z_vertex, z_dual, decisions, checks = {}, {}, {}, {}
    rounds = []
    for rnd in doc["rounds"]:
        z_vertex.update(rnd["Z_vertex"])
        z_dual.update(rnd["Z_dual"])
        decisions.update((d["end"], d) for d in rnd["end_decisions"])
        checks.update((tuple(c["edge"]), c) for c in rnd["edge_checks"])
        blowup = rnd["blowup"]
        kind = None if blowup is None else blowup["kind"]
        rounds.append({
            "Z_vertex": dict(z_vertex),
            "Z_dual": dict(z_dual),
            "blowup": blowup,
            "end_decisions": [decisions[e] for e in sorted(decisions)],
            "edge_checks": ([] if kind == "end"
                            else [checks[e] for e in sorted(checks)]),
        })
        if kind == "edge":
            del checks[tuple(blowup["center"])]
    return {**doc, "rounds": rounds}


def main():
    doc = json.load(sys.stdin)
    sys.stdout.write(json.dumps(expand(doc), indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
