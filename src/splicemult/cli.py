"""Command-line front end.

Five subcommands: validate, invariants, mult, table, splice-eqs.  Output is
fully deterministic; rationals are printed as exact "p/q" strings, never as
floats.  `--json` output is byte for byte what json.dumps(..., indent=2,
sort_keys=True) prints: `mult --json` is written from the report's integer
rounds, round 1 whole and then what each blowup changed (_emit_report),
the other documents by a generic emitter (_emit_json).  Exit codes: 0
success, 1 input/validation problem (a usage error too), 2 mathematical
precondition failure, 3 resource cap hit, 4 internal error (a bug).  Each
error family in errors.py carries its own code.
"""

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii as _encode_str

from .errors import ConditionError, InputError, InternalError, SpliceMultError
from .graph import is_minimal, parse_and_validate, parse_json
from .lattice import (
    SubgroupLattice,
    _FractionText,
    discriminant_group,
    dual_cycles,
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
from .pipeline import MAX_BLOWUPS, _dual_at, run_pipeline, whole_rounds

EXIT_OK = 0


def _emit_json(obj):
    """Print obj as print(json.dumps(obj, indent=2, sort_keys=True)) does,
    byte for byte.  With `indent` set the standard library falls back to
    its pure-Python encoder; _json_text joins each container's items once
    and escapes strings with the C `encode_basestring_ascii`."""
    sys.stdout.write(_json_text(obj, "\n") + "\n")


def _json_text(obj, newline):
    """json.dumps(obj, indent=2, sort_keys=True) for the documents the
    commands print, built from exact dicts with str keys, lists, tuples,
    str, int, bool and None.  `newline` is the line break plus the
    indentation of obj's level.  A str item is escaped where it stands,
    without a recursive call."""
    t = type(obj)
    if t is str:
        return _encode_str(obj)
    if t is int:
        return repr(obj)
    if t is dict or t is list or t is tuple:
        if not obj:
            return "{}" if t is dict else "[]"
        inner = newline + "  "
        if t is dict:
            return "{" + inner + ("," + inner).join([
                _encode_str(k) + ": " + (_encode_str(v) if type(v) is str
                                         else _json_text(v, inner))
                for k, v in sorted(obj.items())]) + newline + "}"
        return _items([_encode_str(v) if type(v) is str
                       else _json_text(v, inner) for v in obj], newline)
    if t is _Text:
        return obj
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    raise InternalError(f"cannot write a {t.__name__} as JSON")


class _Text(str):
    """JSON text written for where it stands; _json_text copies it."""


def _items(texts, newline):
    """The JSON list of the item texts, its "[" indented as `newline`."""
    inner = newline + "  "
    body = ("," + inner).join(texts)
    return "[" + inner + body + newline + "]" if body else "[]"


# One template per record type of a report: the text that _json_text
# gives for the map of the fields the record's type names in `_fields`,
# "{" indented as `newline`.  An edge is a pair, a blowup's lists are
# never empty and a flag is a bool: each is inlined.
def _edge_check_text(c, newline):
    i = newline + "  "
    v, w = c.edge
    return (f'{{{i}"edge": [{i}  {v!r},{i}  {w!r}{i}],'
            f'{i}"passed": {"true" if c.passed else "false"},'
            f'{i}"pruned_by_zero": {"true" if c.pruned_by_zero else "false"},'
            f'{i}"witness": {_json_text(c.witness, i)}{newline}}}')


def _end_decision_text(d, newline):
    i = newline + "  "
    return (f'{{{i}"action": {_encode_str(d.action)},{i}"end": {d.end!r},'
            f'{i}"witness": {_json_text(d.witness, i)}{newline}}}')


def _blowup_text(e, newline):
    i = newline + "  "
    j = i + "  "
    k = j + "  "
    changes = f"{j}],{j}[{k}".join([("," + k).join(map(repr, c))
                                    for c in e.weight_changes])
    return (f'{{{i}"center": [{j}{("," + j).join(map(repr, e.center))}{i}],'
            f'{i}"kind": {_encode_str(e.kind)},'
            f'{i}"new_vertex": {e.new_vertex!r},'
            f'{i}"weight_changes": [{j}[{k}{changes}{j}]{i}]{newline}}}')


def _emit_report(report):
    """Print a PipelineReport as `mult --json` does: the text
    json.dumps(form, indent=2, sort_keys=True) gives for its JSON form,
    written from the integer rounds with no dict of the form built.

    The form has the report's scalars, `rounds`, `Z_final` (the final Z
    maps) and `trace` (the blowups).  A round has its Z maps `Z_vertex`
    and `Z_dual`, vertex id string -> "p/q" string, sorted as text as
    sort_keys sorts them ("10" precedes "2"), and its `blowup`,
    `edge_checks` and `end_decisions`, each record written by its type's
    template.  Round 1 is whole.  A later round holds what the blowup
    before it changed: Z_u at its new vertex u, -Z.E at its centre and u,
    each from a row of the round's form, and the decisions and checks the
    round made (see run_pipeline); whole_rounds rebuilds the rest.  A
    blowup's text is re-indented for `trace`.  Before the first write,
    every round is joined, which reads every witness (see
    check_gcd_condition): a failed witness check raises InternalError
    with stdout empty.  The document is written round by round, never
    joined whole."""
    write = sys.stdout.write
    n2, n4, n6, n8 = ("\n" + " " * k for k in (2, 4, 6, 8))  # indentation
    value = _FractionText(report.order, quote='"')
    rounds = report.rounds
    z = rounds[0].z

    def entries(nums, ids, newline):
        # a key text ends in '"', which sorts before any character of an
        # id, so the entries sort as their ids' strings do
        return ",".join(sorted([f'{newline}"{v}": {value[nums(v)]}'
                                for v in ids]))

    event, texts = None, []
    for rnd in rounds:
        g = rnd.graph
        ids = g.vertex_ids if event is None else (event.new_vertex,)
        texts.append((
            entries(functools.partial(_dual_at, g, z),
                    ids if event is None else (*event.center, *ids), n8),
            entries(z.__getitem__, ids, n8),
            [_edge_check_text(c, n8) for c in rnd.edge_checks],
            [_end_decision_text(d, n8) for d in rnd.end_decisions]))
        event = rnd.blowup
    write(f'{{{n2}"H1_order": {report.h1_order},'
          f'{n2}"H_invariant_factors": '
          f'{_json_text(report.invariant_factors, n2)},'
          f'{n2}"ZZ": "{_FractionText(report.order ** 2)[report.zz_num]}",'
          f'{n2}"Z_final": {{{n4}"dual": '
          f'{{{entries(report.z_dual.__getitem__, z, n6)}{n4}}},'
          f'{n4}"vertex": {{{entries(z.__getitem__, z, n6)}{n4}}}{n2}}},'
          f'{n2}"det": {report.det},{n2}"index": {report.index},'
          f'{n2}"input_minimal": {_json_text(report.input_minimal, n2)},'
          f'{n2}"multiplicity": {report.multiplicity},{n2}"rounds": [')
    trace, sep = [], n4
    for rnd, (duals, vertices, checks, decisions) in zip(rounds, texts):
        if rnd.blowup is None:
            blowup = "null"
        else:
            blowup = _blowup_text(rnd.blowup, n6)
            trace.append(blowup.replace("\n  ", "\n"))
        write(f'{sep}{{{n6}"Z_dual": {{{duals}{n6}}},'
              f'{n6}"Z_vertex": {{{vertices}{n6}}},'
              f'{n6}"blowup": {blowup},'
              f'{n6}"edge_checks": {_items(checks, n6)},'
              f'{n6}"end_decisions": {_items(decisions, n6)}{n4}}}')
        sep = "," + n4
    write(f'{n2}],{n2}"trace": {_items(trace, n2)}\n}}\n')


def _parsed(path, parse):
    """parse(text) for the text of the file at path.  An InputError from
    reading or parsing it names the file, as do bytes that are not UTF-8."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse(fh.read())
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text ({exc.reason} at byte "
                         f"{exc.start})") from None
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from None


def _load_graph(path):
    return _parsed(path, parse_and_validate)


def _load_subgroup(path, graph, group):
    obj = _parsed(path, parse_json)
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


def _fmt_dual_combo(graph, dual, text):
    """Render dual coordinates as a combination of E_v*: `dual` maps each
    vertex id of graph to its numerator over text.den, and `text` is a
    _FractionText that writes them."""
    terms = []
    for v in graph.vertex_ids:
        x = dual[v]
        if x == text.den:
            terms.append(f"E{v}*")
        elif x:
            terms.append(f"{text[x]}*E{v}*")
    return " + ".join(terms) if terms else "0"


def _factors_text(group):
    """H as a product of cyclic groups, "Z/2 x Z/6", or "trivial"."""
    return " x ".join(f"Z/{d}" for d in group.invariant_factors) or "trivial"


# --- subcommands ---------------------------------------------------------------


def _require_minimal(g):
    """ConditionError when g has a blow-downable (-1)-vertex."""
    if not is_minimal(g):
        raise ConditionError("graph is valid but not minimal: it has a "
                             "blow-downable (-1)-vertex")


def cmd_validate(args):
    g = _load_graph(args.graph)
    _require_minimal(g)
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
    text = _FractionText(basis.den)
    if args.json:
        _emit_json({
            "vertices": list(g.vertex_ids),
            "ends": list(g.ends),
            "nodes": list(g.nodes),
            "det": group.det,
            "order": group.order,
            "invariant_factors": list(group.invariant_factors),
            "dual_matrix": [[text[x] for x in row] for row in basis.num],
            "base_points": sorted(base),
        })
        return EXIT_OK
    print(f"vertices: {len(g)}  ends: {list(g.ends)}  nodes: {list(g.nodes)}")
    print(f"det I(E) = {group.det}")
    print(f"|H| = {group.order}  ({_factors_text(group)})")
    print("dual cycles (rows E_v* in vertex order "
          f"{list(g.vertex_ids)}):")
    for v, row in zip(g.vertex_ids, basis.num):
        print(f"  E{v}* = ({' '.join(text[x] for x in row)})")
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
        _emit_report(result)
        return EXIT_OK
    print(f"|H| = {result.order}  |H1| = {result.h1_order}  "
          f"index |H/H1| = {result.index}")
    text = _FractionText(result.order)
    if args.trace:
        for k, rnd in enumerate(whole_rounds(result), start=1):
            dual = dict(zip(rnd.graph.vertex_ids, rnd.z_dual_num))
            print(f"round {k}: Z = "
                  f"{_fmt_dual_combo(rnd.graph, dual, text)}")
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
    print(f"Z = {_fmt_dual_combo(final.graph, result.z_dual, text)}")
    print(f"Z.Z = {_FractionText(result.order ** 2)[result.zz_num]}")
    print(f"multiplicity = {result.multiplicity}")
    return EXIT_OK


def cmd_table(args):
    """One row per subgroup H1 of H: H1, H1-flat, |H1|, Z and the
    multiplicity.  The rows share one SubgroupLattice: every subgroup is
    enumerated and named once, H1-flat is looked up among them, and
    flat_subgroup runs once per pair {H1, H1-flat}, each pair certified
    by the pairing matrix."""
    g = _load_graph(args.graph)
    _require_minimal(g)  # table has no override
    basis = dual_cycles(g)
    require_monomial_condition(g, basis)
    group = discriminant_group(g, basis)
    lattice = SubgroupLattice(group)
    listed = {}  # Hermite basis -> its element list as JSON text
    text, zz_text = _FractionText(group.order), _FractionText(group.order ** 2)

    def elements(sub):  # written once, at the depth of a row's values
        if args.json and sub.hnf not in listed:
            listed[sub.hnf] = _Text(
                _json_text(sub.canonical_elements, "\n      "))
        return listed.get(sub.hnf)

    rows = []
    for h1 in lattice.subgroups:
        result = run_pipeline(g, h1)
        flat = lattice.flat(h1)
        z_graph, z_dual = result.rounds[-1].graph, result.z_dual
        rows.append({
            "subgroup": lattice.name(h1),
            "elements": elements(h1),
            "flat": lattice.name(flat),
            "flat_elements": elements(flat),
            "order": h1.order,
            "index": h1.index,
            "Z_dual": {str(v): text[z_dual[v]] for v in z_graph.vertex_ids},
            "Z": _fmt_dual_combo(z_graph, z_dual, text),
            "ZZ": zz_text[result.zz_num],
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
          f"(elements written in {_factors_text(group)} normal form)")
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

    parser.commands = sub.choices  # subcommand name -> its parser
    return parser


@functools.cache
def _parser():
    """The parser of this process, built on first use."""
    return build_parser()


def main(argv=None):
    """Run one command line; a named subcommand's own parser reads its
    arguments, and the top-level parser any argv that names none."""
    argv = sys.argv[1:] if argv is None else argv
    parser = _parser()
    command = parser.commands.get(argv[0]) if argv else None
    args = (parser.parse_args(argv) if command is None
            else command.parse_args(argv[1:]))
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
