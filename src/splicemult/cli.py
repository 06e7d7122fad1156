"""Command-line front end.

Five subcommands: validate, invariants, mult, table, splice-eqs.  Output is
fully deterministic; rationals are printed as exact "p/q" strings, never as
floats.  Exit codes: 0 success, 1 input/validation problem, 2 mathematical
precondition failure, 3 resource cap hit, 4 internal error (a bug).  Each
error family in errors.py carries its own code.
"""

import argparse
import functools
import json
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import ConditionError, InputError, InternalError, SpliceMultError
from .graph import is_minimal, parse_and_validate
from .lattice import (
    discriminant_group,
    dual_cycles,
    enumerate_subgroups,
    flat_subgroup,
    full_subgroup,
    subgroup,
    trivial_subgroup,
)
from .monomial import (
    base_point_set,
    monomial_condition,
    neumann_wahl_system,
    require_monomial_condition,
)
from .pipeline import MAX_BLOWUPS, run_pipeline

EXIT_OK = 0


def _emit_json(obj):
    """Print obj as print(json.dumps(obj, indent=2, sort_keys=True)) does,
    byte for byte.  With `indent` set the standard library falls back to
    its pure-Python encoder; this one joins each container's items once
    and escapes strings with the C `encode_basestring_ascii`.  The top two
    levels are written item by item, so no copy of the whole document is
    held (a `--json` report grows with rounds x vertices)."""
    write = sys.stdout.write
    for piece in _json_pieces(obj, "\n", 2):
        write(piece)
    write("\n")


def _json_pieces(obj, newline, levels):
    """The text of obj in pieces: the items of its top `levels` levels of
    containers one by one, everything below them joined by _json_text."""
    if not levels or not obj or type(obj) not in (dict, list, tuple):
        yield _json_text(obj, newline)
        return
    inner = newline + "  "
    if type(obj) is dict:
        items = ((_encode_str(k) + ": ", v) for k, v in sorted(obj.items()))
        sep, close = "{" + inner, newline + "}"
    else:
        items = (("", v) for v in obj)
        sep, close = "[" + inner, newline + "]"
    for prefix, value in items:
        yield sep + prefix
        yield from _json_pieces(value, inner, levels - 1)
        sep = "," + inner
    yield close


def _json_text(obj, newline):
    """json.dumps(obj, indent=2, sort_keys=True) for the documents the
    commands print, built from exact dicts with str keys, lists, tuples,
    str, int, bool and None.  `newline` is the line break plus the
    indentation of obj's level.  A str item is escaped where it stands,
    without a recursive call."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is dict:
        if not obj:
            return "{}"
        inner = newline + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": "
            + (_encode_str(v) if type(v) is str else _json_text(v, inner))
            for k, v in sorted(obj.items())]) + newline + "}"
    if t is list or t is tuple:
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([
            _encode_str(v) if type(v) is str else _json_text(v, inner)
            for v in obj]) + newline + "]"
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if t is int:
        return repr(obj)
    raise InternalError(f"cannot write a {t.__name__} as JSON")


def _load_graph(path):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_and_validate(fh.read())


def _load_subgroup(path, graph, group):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict) or "generators" not in obj:
        raise InputError("subgroup document needs a 'generators' field")
    gens = obj["generators"]
    if not isinstance(gens, list):
        raise InputError("'generators' must be a list of integer vectors")
    n = len(graph)
    for vec in gens:
        if (not isinstance(vec, list) or len(vec) != n
                or not all(type(x) is int for x in vec)):
            raise InputError(
                f"each generator must be a list of {n} integers "
                "(sorted-vertex-id order)")
    return subgroup(gens, group)


def _fmt_dual_combo(graph, coords):
    """Render a dual-coordinate vector as a combination of E_v*."""
    terms = []
    for v, c in zip(graph.vertex_ids, coords):
        if c == 0:
            continue
        if c == 1:
            terms.append(f"E{v}*")
        else:
            terms.append(f"{c}*E{v}*")
    return " + ".join(terms) if terms else "0"


def _fmt_nf(nf):
    return "(" + ",".join(str(x) for x in nf) + ")"


def _fmt_subgroup(sub):
    gens = sub.minimal_generators()
    if not gens:
        return "{0}"
    return "<" + ", ".join(_fmt_nf(nf) for nf in gens) + ">"


# --- subcommands ---------------------------------------------------------------


def cmd_validate(args):
    g = _load_graph(args.graph)
    if not is_minimal(g):
        raise ConditionError("graph is valid but not minimal: it has a "
                             "blow-downable (-1)-vertex")
    failures = monomial_condition(g, dual_cycles(g))
    if failures:
        print("monomial condition FAILS:")
        for node, branch in failures:
            print(f"  node {node}, branch {list(branch)}: "
                  "no admissible monomial")
        return ConditionError.exit_code
    print(f"ok: {len(g)} vertices, ends {list(g.ends)}, "
          f"nodes {list(g.nodes)}, monomial condition holds")
    return EXIT_OK


def cmd_invariants(args):
    g = _load_graph(args.graph)
    basis = dual_cycles(g)
    group = discriminant_group(g, basis)
    base = base_point_set(g, basis)
    if args.json:
        _emit_json({
            "vertices": list(g.vertex_ids),
            "ends": list(g.ends),
            "nodes": list(g.nodes),
            "det": group.det,
            "order": group.order,
            "invariant_factors": list(group.invariant_factors),
            "dual_matrix": [[str(x) for x in row] for row in basis.matrix],
            "base_points": sorted(base),
        })
        return EXIT_OK
    print(f"vertices: {len(g)}  ends: {list(g.ends)}  nodes: {list(g.nodes)}")
    print(f"det I(E) = {group.det}")
    factors = " x ".join(f"Z/{d}" for d in group.invariant_factors) or "trivial"
    print(f"|H| = {group.order}  ({factors})")
    print("dual cycles (rows E_v* in vertex order "
          f"{list(g.vertex_ids)}):")
    for v in g.vertex_ids:
        row = " ".join(str(basis.entry(w, v)) for w in g.vertex_ids)
        print(f"  E{v}* = ({row})")
    print(f"base points: {sorted(base)}")
    return EXIT_OK


def cmd_mult(args):
    g = _load_graph(args.graph)
    basis = dual_cycles(g)
    require_monomial_condition(g, basis)
    group = discriminant_group(g, basis)
    if args.uac:
        h1 = trivial_subgroup(group)
    elif args.quotient:
        h1 = full_subgroup(group)
    else:
        h1 = _load_subgroup(args.subgroup, g, group)
    result = run_pipeline(g, h1, max_blowups=args.max_blowups,
                          allow_non_minimal=args.allow_non_minimal)
    if args.json:
        _emit_json(result.to_dict())
        return EXIT_OK
    print(f"|H| = {result.order}  |H1| = {result.h1_order}  "
          f"index |H/H1| = {result.index}")
    if args.trace:
        for k, rnd in enumerate(result.rounds, start=1):
            print(f"round {k}: Z = {_fmt_dual_combo(rnd.graph, rnd.z_dual)}")
            for dec in rnd.end_decisions:
                extra = (f" (witness {dec.witness})"
                         if dec.witness is not None else "")
                print(f"  end {dec.end}: {dec.action}{extra}")
            for chk in rnd.edge_checks:
                state = "pass" if chk.passed else "FAIL"
                note = " [Z.E=0]" if chk.pruned_by_zero else ""
                print(f"  edge {chk.edge}: {state}{note}")
            if rnd.blowup is not None:
                ev = rnd.blowup
                print(f"  blowup {ev.kind} at {list(ev.center)} -> "
                      f"new vertex {ev.new_vertex}")
    final = result.rounds[-1]
    z_text = _fmt_dual_combo(final.graph, final.z_dual)
    print(f"Z = {z_text}")
    print(f"Z.Z = {result.zz}")
    print(f"multiplicity = {result.multiplicity}")
    return EXIT_OK


def cmd_table(args):
    g = _load_graph(args.graph)
    basis = dual_cycles(g)
    require_monomial_condition(g, basis)
    group = discriminant_group(g, basis)
    rows = []
    for h1 in enumerate_subgroups(group):
        result = run_pipeline(g, h1)
        flat = flat_subgroup(h1)
        final = result.rounds[-1]
        z_graph, z_dual = final.graph, final.z_dual
        rows.append({
            "subgroup": _fmt_subgroup(h1),
            "elements": [list(nf) for nf in h1.canonical_elements],
            "flat": _fmt_subgroup(flat),
            "flat_elements": [list(nf) for nf in flat.canonical_elements],
            "order": h1.order,
            "index": h1.index,
            "Z_dual": {str(v): str(c)
                       for v, c in zip(z_graph.vertex_ids, z_dual)},
            "Z": _fmt_dual_combo(z_graph, z_dual),
            "ZZ": str(result.zz),
            "multiplicity": result.multiplicity,
        })
    if args.json:
        _emit_json({
            "order": group.order,
            "invariant_factors": list(group.invariant_factors),
            "rows": rows,
        })
        return EXIT_OK
    print(f"|H| = {group.order}, {len(rows)} subgroups "
          f"(elements written in Z/" +
          " x Z/".join(str(d) for d in group.invariant_factors) +
          " normal form)")
    header = f"{'H1':<24} {'H1_flat':<24} {'|H1|':>4}  {'Z':<28} mult"
    print(header)
    for row in rows:
        print(f"{row['subgroup']:<24} {row['flat']:<24} {row['order']:>4}  "
              f"{row['Z']:<28} {row['multiplicity']}")
    return EXIT_OK


def cmd_splice_eqs(args):
    g = _load_graph(args.graph)
    systems = neumann_wahl_system(g, dual_cycles(g))
    for system in systems:
        print(f"node {system.node} ({len(system.branches)} branches):")
        for k, eq in enumerate(system.equations(), start=1):
            print(f"  f{k} = {eq}")
    return EXIT_OK


# --- driver ---------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors are input errors (exit 1); argparse's own code, 2, is
    the precondition failure code here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(InputError.exit_code, f"{self.prog}: error: {message}\n")


def build_parser():
    parser = _Parser(
        prog="splicemult",
        description="Exact multiplicities of abelian covers of splice "
                    "quotient singularities from resolution graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check graph and monomial condition")
    p.add_argument("graph")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("invariants",
                       help="dual cycles, discriminant group, base points")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_invariants)

    p = sub.add_parser("mult", help="multiplicity of one abelian cover")
    p.add_argument("graph")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--subgroup", help="JSON file with H1 generators")
    src.add_argument("--uac", action="store_true",
                     help="universal abelian cover (H1 = 0)")
    src.add_argument("--quotient", action="store_true",
                     help="the singularity itself (H1 = H)")
    p.add_argument("--trace", action="store_true",
                   help="print every round of the blowup loop")
    p.add_argument("--json", action="store_true")
    p.add_argument("--max-blowups", type=int, default=MAX_BLOWUPS)
    p.add_argument("--allow-non-minimal", action="store_true")
    p.set_defaults(func=cmd_mult)

    p = sub.add_parser("table", help="multiplicities for every subgroup of H")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_table)

    p = sub.add_parser("splice-eqs",
                       help="Neumann-Wahl splice equation skeletons")
    p.add_argument("graph")
    p.set_defaults(func=cmd_splice_eqs)

    return parser


@functools.cache
def _parser():
    """The parser of this process, built on first use."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except SpliceMultError as exc:
        internal = exc.exit_code == InternalError.exit_code
        print(f"{'internal error' if internal else 'error'}: {exc}",
              file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return InputError.exit_code
    except Exception as exc:  # an unclassified exception is a bug
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return InternalError.exit_code


if __name__ == "__main__":
    sys.exit(main())
