"""Command-line interface: exit codes, output determinism, JSON round-trips."""

import ast
import contextlib
import io
import json
import operator
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, strategies as st

from splicemult import (
    CapExceededError,
    InputError,
    InternalError,
    ResolutionGraph,
    discriminant_group,
    full_subgroup,
    run_pipeline,
    subgroup,
    trivial_subgroup,
)
from splicemult.cli import (
    _blowup_text,
    _edge_check_text,
    _emit_report,
    _end_decision_text,
    main,
)
from splicemult.graph import BlowupEvent
from splicemult.pipeline import EdgeCheckResult, EndDecision

from conftest import (
    H12_WEIGHTS,
    H60_WEIGHTS,
    RANK_3_AND_4_GRAPHS,
    TWO_NODE_EDGES,
    chain_armed_stars,
    chain_star,
    expand_mult_json,
    graph_json,
    lower_centres_twice,
    relabel,
    replace_everywhere,
    report_dict,
    star,
    table_by_rows,
)


@pytest.fixture()
def files(tmp_path, tree_h12, tree_h60, a2_chain, d4_star,
          monomial_fail_graph):
    paths = {}
    for name, g in (("h12", tree_h12), ("h60", tree_h60),
                    ("chain", a2_chain), ("d4", d4_star),
                    ("monofail", monomial_fail_graph)):
        p = tmp_path / f"{name}.json"
        p.write_text(graph_json(g))
        paths[name] = str(p)
    cyc = tmp_path / "cycle.json"
    cyc.write_text(json.dumps({
        "vertices": [{"id": i, "weight": -2} for i in (1, 2, 3)],
        "edges": [[1, 2], [2, 3], [3, 1]],
    }))
    paths["cycle"] = str(cyc)
    sub = tmp_path / "sub.json"
    sub.write_text(json.dumps({
        "generators": [[1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
                       [0, 0, 2, 0, 0, 0, 0, 0, 0, 0]]}))
    paths["sub_e1_2e3"] = str(sub)
    return paths


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---------------------------------------------------------------------


def test_validate_ok(files, capsys):
    code, out, _ = run(capsys, "validate", files["h12"])
    assert code == 0
    assert "ok" in out and "monomial condition holds" in out


def test_validate_ok_h60(files, capsys):
    assert run(capsys, "validate", files["h60"])[0] == 0


def test_validate_cycle_is_input_error(files, capsys):
    code, _, err = run(capsys, "validate", files["cycle"])
    assert code == 1
    assert "tree" in err


def test_validate_monomial_failure_is_exit_2(files, capsys):
    code, out, _ = run(capsys, "validate", files["monofail"])
    assert code == 2
    assert "FAILS" in out


def test_validate_missing_file(files, capsys):
    assert run(capsys, "validate", files["h12"] + ".nope")[0] == 1


def test_validate_non_minimal_is_exit_2(capsys, tmp_path):
    """Like `mult`, `validate` reports a non-minimal graph as a failed
    precondition."""
    path = tmp_path / "nonmin.json"
    path.write_text(graph_json(ResolutionGraph({1: -2, 2: -1}, [(1, 2)])))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: graph is valid but not minimal: it has a "
                   "blow-downable (-1)-vertex\n")
    assert run(capsys, "mult", str(path), "--uac")[0] == 2


def test_non_minimal_graph_names_its_override(capsys, tmp_path):
    """On the chain -3, -1, -3, which blows down to A_2, `table`, which
    has no override, refuses the graph with validate's text before any
    work; `mult` names the option that lets it proceed, and with it the
    universal abelian cover is C^2, of multiplicity 1."""
    path = tmp_path / "nonmin.json"
    path.write_text(graph_json(
        ResolutionGraph({1: -3, 2: -1, 3: -3}, [(1, 2), (2, 3)])))
    for json_flag in ([], ["--json"]):
        code, out, err = run(capsys, "table", str(path), *json_flag)
        assert (code, out) == (2, "")
        assert err == ("error: graph is valid but not minimal: it has a "
                       "blow-downable (-1)-vertex\n")
    code, out, err = run(capsys, "mult", str(path), "--uac")
    assert (code, out) == (2, "")
    assert err == ("error: input graph has a blow-downable (-1)-vertex; "
                   "pass allow_non_minimal=True (mult --allow-non-minimal) "
                   "to proceed anyway\n")
    code, out, err = run(capsys, "mult", str(path), "--uac",
                         "--allow-non-minimal")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "multiplicity = 1"


# --- invariants -------------------------------------------------------------------


def test_invariants_h12(files, capsys):
    code, out, _ = run(capsys, "invariants", files["h12"])
    assert code == 0
    assert "|H| = 12" in out
    assert "Z/2 x Z/6" in out
    assert "base points: [3, 4]" in out


def test_invariants_h60_json(files, capsys):
    code, out, _ = run(capsys, "invariants", files["h60"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 60
    assert 1 not in data["base_points"]
    assert data["dual_matrix"][0][0] == "2/5"


def test_invariants_chain(files, capsys):
    code, out, _ = run(capsys, "invariants", files["chain"])
    assert code == 0
    assert "|H| = 3" in out and "base points: []" in out


# --- mult -------------------------------------------------------------------------


def test_mult_uac_h12(files, capsys):
    code, out, _ = run(capsys, "mult", files["h12"], "--uac")
    assert code == 0
    assert "multiplicity = 6" in out


def test_mult_quotient_h12(files, capsys):
    code, out, _ = run(capsys, "mult", files["h12"], "--quotient")
    assert code == 0
    assert "multiplicity = 2" in out


def test_mult_subgroup_file(files, capsys):
    code, out, _ = run(capsys, "mult", files["h12"], "--subgroup",
                       files["sub_e1_2e3"])
    assert code == 0
    assert "|H1| = 6" in out
    assert "multiplicity = 2" in out


def test_one_class_runs_print_the_uac_report(tmp_path, capsys):
    """A run has one class whenever |H1| = 1, whatever the command: the
    zero and the empty generator lists of star(-1; -3,-4,-5,-7), and the
    quotient of star(-1; -2,-3,-7), where |H| = 1, print the --uac JSON
    byte for byte.  V(2,3,7) is a double point (Neumann's product 2)."""
    def mult(g, *args):
        path = tmp_path / "graph.json"
        path.write_text(graph_json(g))
        code, out, err = run(capsys, "mult", str(path), *args, "--json")
        assert (code, err) == (0, "")
        return out

    g = star(-1, [-3, -4, -5, -7])
    uac = mult(g, "--uac")
    for gens in ([[0] * 5], []):
        sub = tmp_path / "sub.json"
        sub.write_text(json.dumps({"generators": gens}))
        assert mult(g, "--subgroup", str(sub)) == uac
    g = star(-1, [-2, -3, -7])
    uac = mult(g, "--uac")
    assert mult(g, "--quotient") == uac
    assert json.loads(uac)["multiplicity"] == 2


GOLDEN = pathlib.Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (("mult", "h60", "--uac", "--trace"), "mult_h60_uac_trace.txt"),
    (("table", "h12"), "table_h12.txt"),
    (("table", "d4"), "table_d4.txt"),
])
def test_text_output_is_pinned(files, capsys, argv, name):
    """The whole text output of three commands, byte for byte: every
    round's Z in dual coordinates, the three edge blowups, Z.Z = -1/10
    and multiplicity 6 for the cover of h60, and the header ("10
    subgroups") and every row of the two tables."""
    command, graph, *flags = argv
    code, out, err = run(capsys, command, files[graph], *flags)
    assert (code, err) == (0, "")
    assert out == (GOLDEN / name).read_text()


def test_mult_json_of_a_subgroup_is_pinned(tmp_path, capsys):
    """The `mult --subgroup --json` document on the chain -3, -3, -6 with
    H1 = <(-3, 3, 2)>, its rounds rebuilt whole, byte for byte: the blowup
    of the edge (1, 2) makes Z.E_1 = 0, so the edge (1, 3) passes pruned
    by zero from round 2 on, and its witness z2*z3 is found when the
    document is written.  Round 2 checks it again, with the edges of the
    new vertex 4; round 3 checks only the edges of the new vertex 5."""
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps({
        "vertices": [{"id": 1, "weight": -3}, {"id": 2, "weight": -3},
                     {"id": 3, "weight": -6}],
        "edges": [[1, 2], [1, 3]]}))
    h1 = tmp_path / "h1.json"
    h1.write_text(json.dumps({"generators": [[-3, 3, 2]]}))
    code, out, err = run(capsys, "mult", str(chain), "--subgroup", str(h1),
                         "--json")
    assert (code, err) == (0, "")
    assert expand_mult_json(out) == \
        (GOLDEN / "mult_chain_subgroup.json").read_text()
    assert [[c["edge"] for c in rnd["edge_checks"]]
            for rnd in json.loads(out)["rounds"]] == [
        [[1, 2], [1, 3]], [[1, 3], [1, 4], [2, 4]], [[2, 5], [4, 5]]]


def _count_queries(monkeypatch):
    """Count the edge queries (`least` on two vertices) and the Dijkstra
    runs of every ZeroSumSearch from here on."""
    from splicemult import ZeroSumSearch

    counts = {"edge": 0, "shortest": 0}
    least, shortest = ZeroSumSearch.least, ZeroSumSearch._shortest

    def counted_least(self, vertices, without=None):
        counts["edge"] += len(vertices) == 2
        return least(self, vertices, without)

    def counted_shortest(self, *args):
        counts["shortest"] += 1
        return shortest(self, *args)

    monkeypatch.setattr(ZeroSumSearch, "least", counted_least)
    monkeypatch.setattr(ZeroSumSearch, "_shortest", counted_shortest)
    return counts


@pytest.mark.parametrize("name, edges, runs", [("h12", 0, 25),
                                               ("h60", 22, 68)])
def test_table_queries_only_the_edges_it_decides(files, capsys, monkeypatch,
                                                 name, edges, runs):
    """`table` writes no witness, so an edge with Z.E = 0, which passes
    by that rule, runs no query: over every subgroup, 22 edge queries on
    the paper's two graphs (233 when every edge was queried) and 93
    Dijkstra runs (101 before z()'s arm lemma), of which round 1's Z on
    the nodes takes most."""
    counts = _count_queries(monkeypatch)
    for flags in ((), ("--json",)):
        counts.update(edge=0, shortest=0)
        code, _, err = run(capsys, "table", files[name], *flags)
        assert (code, err) == (0, "")
        assert counts == {"edge": edges, "shortest": runs}


@pytest.mark.parametrize("name", ["h12", "h60"])
def test_mult_json_reads_every_edge_witness(name, tree_h12, tree_h60,
                                            monkeypatch):
    """For every subgroup, the run leaves each pruned edge's witness
    unread, and `mult --json` reads every edge witness before it writes:
    each record's query has run, and its witness is kept."""
    from splicemult import enumerate_subgroups

    g = tree_h12 if name == "h12" else tree_h60
    for h1 in enumerate_subgroups(discriminant_group(g)):
        report = run_pipeline(g, h1)
        checks = [c for rnd in report.rounds for c in rnd.edge_checks]
        assert all(("witness" in vars(c)) != c.pruned_by_zero
                   for c in checks)
        counts = _count_queries(monkeypatch)
        written = io.StringIO()
        with contextlib.redirect_stdout(written):
            _emit_report(report)
        monkeypatch.undo()
        assert counts["edge"] == len({id(c) for c in checks
                                      if c.pruned_by_zero})
        assert all("witness" in vars(c) for c in checks)
        for check, text in zip(checks, (
                c for rnd in json.loads(written.getvalue())["rounds"]
                for c in rnd["edge_checks"])):
            assert text["witness"] == check.witness


def test_mult_json_roundtrip_and_determinism(files, capsys):
    code, out1, _ = run(capsys, "mult", files["h60"], "--uac", "--json")
    assert code == 0
    code, out2, _ = run(capsys, "mult", files["h60"], "--uac", "--json")
    assert out1 == out2
    data = json.loads(out1)
    assert data["multiplicity"] == 6
    assert data["ZZ"] == "-1/10"
    assert json.dumps(data, indent=2, sort_keys=True) + "\n" == out1


def test_mult_has_one_stopping_rule(files, capsys, tmp_path):
    """There is no loop to choose: `--mode` is a usage error on `mult` and
    `table`, the JSON report names no mode, and the quotient of
    star(-1; -3,-5,-6,-7,-7) blows the new leaf of arm 2 up again and
    answers 21."""
    for argv in (["mult", files["h60"], "--uac", "--mode", "strict"],
                 ["table", files["h12"], "--mode", "optimized"]):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        assert "unrecognized arguments: --mode" in capsys.readouterr().err
    code, out, _ = run(capsys, "mult", files["h60"], "--quotient", "--json")
    assert code == 0 and "mode" not in json.loads(out)
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-1, [-3, -5, -6, -7, -7])))
    code, out, err = run(capsys, "mult", str(path), "--quotient")
    assert (code, err) == (0, "")
    assert out.endswith("\nmultiplicity = 21\n")


def test_mult_monomial_failure(files, capsys):
    code, _, err = run(capsys, "mult", files["monofail"], "--uac")
    assert code == 2
    assert "monomial condition" in err


def test_mult_box_cap_env(files, capsys, monkeypatch, tmp_path):
    """No box cap stands between `mult` and an answer: the environment
    variable that once set one is ignored, and the quotient of
    star(-2; -5,-7,-11), whose Hilbert-basis box has 604^3 points, answers
    19 (Laufer: -Z_min^2 of this rational graph)."""
    monkeypatch.setenv("SPLICEMULT_MAX_BOX", "1")
    assert run(capsys, "mult", files["h12"], "--quotient")[0] == 0
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-2, [-5, -7, -11])))
    code, out, err = run(capsys, "mult", str(path), "--quotient")
    assert (code, err) == (0, "")
    assert out.startswith("|H| = 603  |H1| = 603  index |H/H1| = 1\n")
    assert out.endswith("multiplicity = 19\n")


def test_mult_residue_cap(capsys, tmp_path):
    """The zero-sum search settles at most |H1| classes and refuses an H1
    above its cap before searching; H1 = 0 on the same graph answers
    Neumann's 11 * 13."""
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-3, [-11, -13, -17, -19])))
    code, out, err = run(capsys, "mult", str(path), "--quotient")
    assert (code, out) == (3, "")
    assert err == ("error: zero-sum search: |H1| = 125667 residue classes "
                   "exceed the cap 100000\n")
    code, out, _ = run(capsys, "mult", str(path), "--uac")
    assert code == 0 and out.endswith("multiplicity = 143\n")


def test_mult_trace_names_witness_monomials(files, capsys):
    """--trace prints Z per round and each witness as its monomial."""
    code, out, _ = run(capsys, "mult", files["h12"], "--subgroup",
                       files["sub_e1_2e3"], "--trace")
    assert code == 0
    lines = out.splitlines()
    assert lines[1].startswith("round 1: Z = ")
    assert "  end 2: witness (witness z1)" in lines
    assert "generator" not in out


def test_mult_max_blowups_zero_is_input_error(capsys, tmp_path):
    """0 is not a silent "use the default": 24 blowups are needed here."""
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-1, [-3, -4, -5, -7])))
    code, out, err = run(capsys, "mult", str(path), "--uac",
                         "--max-blowups", "0")
    assert (code, out, err) == (
        1, "", "error: max_blowups must be positive, got 0\n")
    code, _, err = run(capsys, "mult", str(path), "--uac",
                       "--max-blowups", "1")
    assert (code, err) == (3, "error: more than 1 blowups (the graph has "
                              "grown to 7 vertices)\n")


def test_usage_error_is_exit_1(files, capsys):
    """argparse's own exit code 2 would read as a precondition failure.
    main hands a named subcommand's arguments to that subcommand's own
    parser, whose usage line a usage error prints; the top-level parser
    answers only an argv that names none."""
    top = "usage: splicemult [-h] {validate,invariants,mult,table,splice-eqs}"
    mult = ("usage: splicemult mult [-h] (--subgroup SUBGROUP | --uac | "
            "--quotient)")
    for argv, usage, message in (
            ([], top, "splicemult: error: the following arguments are "
                      "required: command"),
            (["frobnicate"], top, "splicemult: error: argument command: "
                                  "invalid choice: 'frobnicate'"),
            (["mult", files["h12"]], mult,
             "splicemult mult: error: one of the arguments --subgroup "
             "--uac --quotient is required"),
            (["mult", files["h12"], "--uac", "--max-blowups", "many"], mult,
             "splicemult mult: error: argument --max-blowups: invalid int "
             "value: 'many'"),
            (["mult", files["h12"], "--uac", "--mode", "x"], mult,
             "splicemult mult: error: unrecognized arguments: --mode x")):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(usage)
        assert err.splitlines()[-1].startswith(message)
    for argv, usage in ((["--help"], top), (["mult", "--help"], mult)):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 0
        out, err = capsys.readouterr()
        assert out.startswith(usage) and err == ""


@pytest.mark.parametrize("content, message", [
    (b"\xff", "not UTF-8 text (invalid start byte at byte 0)\n"),
    (b"[" * 100_000 + b"]" * 100_000,
     "invalid JSON: nested too deeply to parse\n"),
    (b"[" + b"1" * 5000 + b"]", "invalid JSON: Exceeds the limit"),
], ids=["not-utf8", "too-deep", "long-int"])
@pytest.mark.parametrize("command", ["validate", "subgroup"])
def test_unreadable_input_is_input_error(files, capsys, tmp_path, content,
                                        message, command):
    """A file that is not UTF-8, JSON nested too deeply for the parser, or
    an integer longer than int() reads from text, is an input error naming
    the file, whether it is the graph or the subgroup document."""
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    argv = (["validate", str(bad)] if command == "validate"
            else ["mult", files["h12"], "--subgroup", str(bad)])
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {bad}: {message}")


def test_mult_bad_subgroup_file(files, capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"generators": [[1, 0]]}')
    code, _, err = run(capsys, "mult", files["h12"], "--subgroup", str(bad))
    assert code == 1
    assert "generator" in err


# --- table ------------------------------------------------------------------------


def test_table_h12_json(files, capsys):
    code, out, _ = run(capsys, "table", files["h12"], "--json")
    assert code == 0
    data = json.loads(out)
    assert data["order"] == 12
    assert [r["order"] for r in data["rows"]] == \
        [1, 2, 2, 2, 3, 4, 6, 6, 6, 12]
    assert [r["multiplicity"] for r in data["rows"]] == \
        [6, 6, 6, 6, 2, 6, 4, 2, 2, 2]
    assert data["rows"][0]["Z"] == "1/2*E5*"
    assert data["rows"][0]["flat_elements"] == \
        [list(nf) for nf in sorted((a, b) for a in range(2) for b in range(6))]


def test_table_chain(files, capsys):
    code, out, _ = run(capsys, "table", files["chain"], "--json")
    assert code == 0
    data = json.loads(out)
    assert [(r["order"], r["multiplicity"]) for r in data["rows"]] == \
        [(1, 1), (3, 2)]


def test_table_monomial_failure_lists_pairs(files, capsys):
    code, out, err = run(capsys, "table", files["monofail"])
    assert (code, out) == (2, "")
    _, _, mult_err = run(capsys, "mult", files["monofail"], "--uac")
    assert err == mult_err
    assert err.startswith("error: monomial condition fails at: node ")


def test_table_determinism(files, capsys):
    out1 = run(capsys, "table", files["h12"])[1]
    out2 = run(capsys, "table", files["h12"])[1]
    assert out1 == out2


def test_table_trivial_group_header(capsys, tmp_path):
    """|H| = 1 is named "trivial", as `invariants` names it; the JSON form
    has no invariant factors."""
    path = tmp_path / "star237.json"
    path.write_text(graph_json(star(-1, [-2, -3, -7])))
    code, out, _ = run(capsys, "table", str(path))
    assert code == 0
    assert out.splitlines()[0] == \
        "|H| = 1, 1 subgroups (elements written in trivial normal form)"
    code, out, _ = run(capsys, "table", str(path), "--json")
    data = json.loads(out)
    assert (data["order"], data["invariant_factors"]) == (1, [])
    assert [(r["subgroup"], r["flat"]) for r in data["rows"]] == \
        [("{0}", "{0}")]


# h12, h60 and D4 have 5, 6 and 4 pairs {H1, H1-flat}: D4's three
# subgroups of order 2 are their own flats, and so are two of the four of
# order 3 in (Z/3)^2.
_TABLE_GRAPHS = {
    "h12": (ResolutionGraph(H12_WEIGHTS, TWO_NODE_EDGES), 5),
    "h60": (ResolutionGraph(H60_WEIGHTS, TWO_NODE_EDGES), 6),
    "d4": (star(-2, [-2, -2, -2]), 4),
    "z3_squared": (star(-1, [-3, -3, -6]), 4),
}
_TABLE_GRAPHS.update({f"rank_{k}": (g, None)
                      for k, g in enumerate(RANK_3_AND_4_GRAPHS)})


@pytest.mark.parametrize("name", list(_TABLE_GRAPHS))
def test_table_json_matches_row_by_row_reference(capsys, tmp_path,
                                                 monkeypatch, name):
    """The rows share one subgroup lattice, and print what a row-by-row
    computation prints; flat_subgroup runs once per pair {H1, H1-flat}."""
    from splicemult import flat_subgroup

    g, pairs = _TABLE_GRAPHS[name]
    reference = table_by_rows(g)
    if pairs is not None:
        assert pairs == len({frozenset((r["subgroup"], r["flat"]))
                             for r in reference["rows"]})
    path = tmp_path / f"{name}.json"
    path.write_text(graph_json(g))
    calls = []

    def spy(h1):
        calls.append(h1.hnf)
        return flat_subgroup(h1)

    replace_everywhere(monkeypatch, flat_subgroup, spy)
    code, out, _ = run(capsys, "table", str(path), "--json")
    assert code == 0
    assert out == json.dumps(reference, indent=2, sort_keys=True) + "\n"
    assert len(calls) == len({frozenset((r["subgroup"], r["flat"]))
                              for r in reference["rows"]})
    assert len(set(calls)) == len(calls)


# --- splice-eqs --------------------------------------------------------------------


def test_splice_eqs_h12(files, capsys):
    code, out, _ = run(capsys, "splice-eqs", files["h12"])
    assert code == 0
    assert "z1^2 + z2^2 + z3*z4" in out
    assert "z3^3 + z4^3 + z1^5*z2^5" in out


def test_splice_eqs_h60(files, capsys):
    code, out, _ = run(capsys, "splice-eqs", files["h60"])
    assert code == 0
    assert "z1^3 + z2^2 + z3*z4" in out


def test_splice_eqs_chain_empty(files, capsys):
    code, out, _ = run(capsys, "splice-eqs", files["chain"])
    assert code == 0
    assert out == ""


def test_splice_eqs_failure(files, capsys):
    code, _, err = run(capsys, "splice-eqs", files["monofail"])
    assert code == 2
    assert "monomial condition" in err


def test_only_table_enumerates_large_groups(capsys, tmp_path):
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-3, [-7, -7, -7, -7])))
    code, out, err = run(capsys, "table", str(path))
    assert code == 3 and out == ""
    assert err == "error: |H| = 5831 exceeds the enumeration cap 5000\n"
    code, out, _ = run(capsys, "mult", str(path), "--uac")
    assert code == 0
    assert out.startswith("|H| = 5831  |H1| = 1  index |H/H1| = 5831\n")
    assert out.endswith("multiplicity = 49\n")


# --- the JSON emitter ---------------------------------------------------------------


_JSON_STRINGS = st.one_of(
    st.text(max_size=8),
    st.text(st.sampled_from('"\\/\x00\x01\x1f\x7f\n\t\r\x08\x0c a'
                            '\u00e9\u2028\ud800\U0001f600'), max_size=8))
_JSON_TREES = st.recursive(
    st.one_of(st.none(), st.booleans(), _JSON_STRINGS,
              st.integers(-2 ** 70, 2 ** 70), st.integers()),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(st.one_of(_JSON_STRINGS,
                                  st.sampled_from(["10", "2", "1", "", "B",
                                                   "a"])),
                        children, max_size=4)),
    max_leaves=25)


@given(_JSON_TREES)
def test_emitter_equals_the_standard_library(obj):
    """_emit_json prints what print(json.dumps(obj, indent=2,
    sort_keys=True)) prints, for trees of every depth: escapes, non-ASCII
    and lone surrogates, ints beyond 64 bits, empty and nested containers,
    and keys whose string order differs from their numeric order."""
    from splicemult.cli import _emit_json

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(obj)
    assert out.getvalue() == json.dumps(obj, indent=2, sort_keys=True) + "\n"


@st.composite
def _json_with_shared_containers(draw):
    """A JSON tree that places the same few dict, list or tuple objects at
    several positions, at equal and at different depths."""
    shared = draw(st.lists(_JSON_TREES.filter(
        lambda x: type(x) in (dict, list, tuple) and x), min_size=1,
        max_size=3))

    def place(depth):
        kind = draw(st.integers(0, 2 if depth else 0))
        if kind == 0:
            return draw(st.sampled_from(shared))
        items = [place(depth - 1) for _ in range(draw(st.integers(1, 3)))]
        if kind == 1:
            return items
        return {str(k): item for k, item in enumerate(items)}

    return [place(draw(st.integers(0, 4))) for _ in range(3)]


def _emitted(obj):
    from splicemult.cli import _emit_json

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_json(obj)
    return out.getvalue()


@given(_json_with_shared_containers())
def test_emitter_writes_shared_containers_like_the_standard_library(obj):
    """A container placed at several positions and depths is written as
    json.dumps writes it at each of them, indented for each depth."""
    assert _emitted(obj) == json.dumps(obj, indent=2, sort_keys=True) + "\n"


def test_emitter_keeps_no_text_between_calls():
    """A second call on an edited document prints the edited text: no
    container text is kept from one call to the next."""
    shared = {"edge": [1, 2], "passed": True}
    doc = {"rounds": [[shared, shared], {"x": [shared]}], "last": shared}
    first = _emitted(doc)
    assert first == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    shared["passed"] = False
    shared["edge"].append(3)
    second = _emitted(doc)
    assert second != first
    assert second == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@st.composite
def _runs(draw):
    """A star with chain arms or a random tree, with H1 = 0, H1 = H or a
    random subgroup, and its ids sent through a map that may make them
    multi-digit, gapped or negative, so that their string order is not
    the vertex order and fresh ids land among them."""
    if draw(st.booleans()):
        g = draw(chain_armed_stars())
    else:
        n = draw(st.integers(2, 7))
        weights = {i: draw(st.integers(-6, -2)) for i in range(1, n + 1)}
        edges = [(draw(st.integers(1, i - 1)), i) for i in range(2, n + 1)]
        try:
            g = ResolutionGraph(weights, edges)
        except InputError:  # not negative definite
            assume(False)
    scale = draw(st.sampled_from([1, 3, 10, 11]))
    shift = draw(st.sampled_from([0, 7, -1, -20]))
    g = relabel(g, lambda v: scale * v + shift)
    group = discriminant_group(g)
    make = draw(st.sampled_from([full_subgroup, trivial_subgroup, None]))
    if make is None:
        gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=len(g),
                                      max_size=len(g)), max_size=2))
        h1 = subgroup(gens, group)
    else:
        h1 = make(group)
    assume(h1.order <= 1000)
    return g, h1


def _case(g, make=trivial_subgroup):
    return g, make(discriminant_group(g))


@given(_runs())
# 24 edge blowups, 25 rounds
@example(_case(star(-1, [-3, -4, -5, -7])))
# 3 edge blowups; the new ids 11-13 sort before "2" as strings
@example(_case(ResolutionGraph(H60_WEIGHTS, TWO_NODE_EDGES)))
# 3 end blowups
@example(_case(star(-1, [-3, -5, -6, -7, -7]), full_subgroup))
# an end blowup at 9 whose new leaf 10 sorts before "9" as text
@example(_case(chain_star(-2, [[-3], [-2, -3], [-2, -5], [-3], [-6, -5]]),
               full_subgroup))
# end blowups 4 -> 8 -> 9 -> 10 -> 11 along one arm; 10 sorts before 9
@example(_case(chain_star(-1, [[-2, -4], [-5], [-5, -4, -7]]),
               full_subgroup))
# ids 4-9: the new leaves 1, 2 and 3 sort before every input id
@example(_case(relabel(star(-1, [-3, -5, -6, -7, -7]), lambda v: v + 3),
               full_subgroup))
def test_report_writer_prints_the_json_form(case):
    """`mult --json` writes its report straight from the integer rounds:
    round 1 whole, then per blowup its new vertex's Z, the Z.E it
    rewrote at its centre and new vertex, and the round's own records.
    It prints what json.dumps prints for that document, and rebuilt
    whole, for the report's JSON form, built as dicts by
    conftest.report_dict."""
    g, h1 = case
    try:
        report = run_pipeline(g, h1)
    except CapExceededError:
        assume(False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _emit_report(report)
    doc = json.loads(out.getvalue())
    assert out.getvalue() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert expand_mult_json(out.getvalue()) == json.dumps(
        report_dict(report), indent=2, sort_keys=True) + "\n"
    for rnd, patch in zip(report.rounds[1:], doc["rounds"][1:]):
        assert len(patch["edge_checks"]) == len(rnd.edge_checks)
        assert len(patch["end_decisions"]) == len(rnd.end_decisions)
    for event, patch in zip(report.history.events, doc["rounds"][1:]):
        u = event.new_vertex
        assert set(patch["Z_vertex"]) == {str(u)}
        assert set(patch["Z_dual"]) == set(map(str, (*event.center, u)))


@pytest.mark.parametrize("template, record", [
    (_edge_check_text, EdgeCheckResult(edge=(3, 10), passed=True,
                                       witness="z1*z2^3",
                                       pruned_by_zero=False)),
    (_edge_check_text, EdgeCheckResult(edge=(-2, 7), passed=False,
                                       witness=None, pruned_by_zero=True)),
    (_end_decision_text, EndDecision(end=4, action="witness",
                                     witness="z-3^2")),
    (_end_decision_text, EndDecision(end=1, action="blowup")),
    (_blowup_text, BlowupEvent(kind="edge", center=(1, 5), new_vertex=11,
                               weight_changes=((1, -2, -3), (5, -2, -3)))),
    (_blowup_text, BlowupEvent(kind="end", center=(-4,), new_vertex=12,
                               weight_changes=((-4, -2, -3),))),
    (_edge_check_text, EdgeCheckResult(edge=(1, 3), passed=True,
                                       pruned_by_zero=True,
                                       find=lambda: "z2*z3")),
    (_end_decision_text, EndDecision(end=2, action="witness",
                                     find=lambda: "z1^4")),
])
def test_record_templates_write_every_field(template, record):
    """Each record type's template writes every field its type declares
    in `_fields`, and no other key, as json.dumps writes the record's
    field map at the top level and as the generic emitter writes it at
    the depths of a report: a new field cannot vanish from `mult --json`.
    A record whose witness is found on first read holds every other
    field, and after the read it holds exactly its fields, the witness
    being what the read returned.  The blowup event is a named tuple and
    holds no field map of its own."""
    from splicemult.cli import _json_text

    names = set(record._fields)
    if isinstance(record, tuple):
        values = record._asdict()
    else:
        held = set(vars(record))
        assert held in (names, names - {"witness"} | {"_find"})
        values = {name: getattr(record, name) for name in names}
        assert values == vars(record)
    text = template(record, "\n")
    assert set(json.loads(text)) == names
    assert text == json.dumps(values, indent=2, sort_keys=True)
    for depth in (4, 6, 8):
        newline = "\n" + " " * depth
        assert template(record, newline) == _json_text(values, newline)


def test_emitter_refuses_what_it_cannot_write(capsys):
    """A value outside its JSON subset is a bug in the document, not
    something to guess a text for."""
    from splicemult import InternalError
    from splicemult.cli import _json_text

    for obj in (1.5, {"a": [Fraction(1, 2)]}, {1: "a"}):
        with pytest.raises((InternalError, TypeError)):
            _json_text(obj, "\n")


@pytest.mark.parametrize("graph", ["h12", "h60"])
@pytest.mark.parametrize("argv", [["mult", "--uac"], ["mult", "--quotient"],
                                  ["table"], ["invariants"]])
def test_json_commands_print_what_json_dumps_prints(files, capsys, graph,
                                                    argv):
    code, out, _ = run(capsys, argv[0], files[graph], *argv[1:], "--json")
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("graph, count", [("h12", 10), ("h60", 12)])
def test_table_json_writes_each_element_list_once(files, capsys, monkeypatch,
                                                  graph, count):
    """A subgroup's element list is its own row's `elements` and its
    flat's row's `flat_elements`; the text is written once per subgroup
    and printed in both places."""
    import splicemult.cli as cli

    original = cli._json_text
    written = []

    def spy(obj, newline):
        if type(obj) is tuple and obj and type(obj[0]) is tuple:
            written.append(obj)
        return original(obj, newline)

    monkeypatch.setattr(cli, "_json_text", spy)
    code, out, _ = run(capsys, "table", files[graph], "--json")
    assert code == 0
    assert len(written) == len(set(written)) == count
    rows = json.loads(out)["rows"]
    assert ({tuple(map(tuple, r["elements"])) for r in rows}
            == {tuple(map(tuple, r["flat_elements"])) for r in rows}
            == set(written))


# --- internal errors ----------------------------------------------------------------


def test_invalid_blowup_is_exit_4(files, capsys, monkeypatch):
    """A blown-up graph that fails its certificate is reported as a bug:
    h60 needs three edge blowups, and here the first one lowers its
    centre by 2, which keeps the form definite but is not the blowup's
    weight change w -> w - 1."""
    lower_centres_twice(monkeypatch)
    code, out, err = run(capsys, "mult", files["h60"], "--uac")
    assert (code, out) == (4, "")
    assert err == ("internal error: blowup produced an invalid graph: "
                   "vertex 1 goes from -3 to -5, not from -3 to -4\n")


@pytest.mark.parametrize("argv", [
    ("mult", "h60", "--uac", "--json"),  # three edge blowups
    ("table", "h60", "--json"),  # 17 blowups; h12's table has none
    ("mult", "tree154", "--uac", "--json", "--max-blowups", "100"),
], ids=["mult-h60", "table-h60", "mult-tree154"])
def test_mult_uac_eliminates_leaves_once(argv, files, capsys, monkeypatch,
                                         tmp_path):
    """No command reads a blown-up graph's elimination: the leaf-first
    elimination runs once per command, on the parsed graph of ten
    vertices.  A blown-up graph keeps none (_rooted is None) until its
    rooted tree is first read, which eliminates once and caches."""
    from splicemult import cli

    path = tmp_path / "tree154.json"
    path.write_text(graph_json(TREE_154))
    files = {**files, "tree154": str(path)}
    original = ResolutionGraph._eliminate_leaves
    sizes, reports = [], []

    def counted(self):
        sizes.append(len(self))
        return original(self)

    def kept(*args, **kwargs):
        reports.append(pipeline(*args, **kwargs))
        return reports[-1]

    pipeline = cli.run_pipeline
    monkeypatch.setattr(ResolutionGraph, "_eliminate_leaves", counted)
    monkeypatch.setattr(cli, "run_pipeline", kept)
    code, _, err = run(capsys, argv[0], files[argv[1]], *argv[2:])
    assert (code, err) == (0, "")
    assert sizes == [10]
    blown = [r.history.current for r in reports if r.history.events]
    assert blown and all(h._rooted is None for h in blown)
    h = blown[-1]
    tree = h.rooted_tree()
    assert sizes == [10, len(h)] and h._rooted is not None
    assert all(map(operator.is_, h.rooted_tree(), tree))
    assert sizes == [10, len(h)]


def _flat_of_h12_row(monkeypatch, row, pick):
    """Make flat_subgroup answer `pick(group, true flat)` for the h12 row
    printed as `row`, and the true flat for every other row."""
    from splicemult import enumerate_subgroups, flat_subgroup
    from splicemult.lattice import _fmt_subgroup

    def wrong(h1):
        flat = flat_subgroup(h1)
        if _fmt_subgroup(h1) == row:
            return pick(enumerate_subgroups(h1.group), flat)
        return flat

    replace_everywhere(monkeypatch, flat_subgroup, wrong)


@pytest.mark.parametrize("pick, message", [
    # <(0,1)> has order 6, as the flat <(1,2)> has, but E_1* pairs with it
    (lambda subs, flat: next(s for s in subs if s.order == flat.order
                             and s != flat),
     "flat pairing check failed: <(0,1)> is not the flat of <(1,0)>: the "
     "Hermite rows (1,0) and (0,1) pair to 1/2, not to 0"),
    # {0} pairs to 0 with everything, but has the wrong order
    (lambda subs, flat: subs[0],
     "flat check |H1| * |H1-flat| == |H| failed for H1 = <(1,0)>, "
     "H1-flat = {0}: 2 * 1 != 12"),
], ids=["pairing", "order"])
def test_wrong_flat_is_exit_4(files, capsys, monkeypatch, pick, message):
    """`table` certifies each pair {H1, H1-flat} it records, whatever
    flat_subgroup answered."""
    _flat_of_h12_row(monkeypatch, "<(1,0)>", pick)
    for argv in (["table", files["h12"]], ["table", files["h12"], "--json"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"internal error: {message}\n"


def test_flat_missing_from_enumeration_is_exit_4(files, capsys,
                                                 monkeypatch):
    """A flat that is not among the enumerated subgroups is a bug with a
    message of its own, not a KeyError: here the enumeration leaves H out,
    the flat of {0}."""
    from splicemult import enumerate_subgroups

    replace_everywhere(monkeypatch, enumerate_subgroups,
                       lambda group: enumerate_subgroups(group)[:-1])
    code, out, err = run(capsys, "table", files["h12"])
    assert (code, out) == (4, "")
    assert err == ("internal error: the flat <(0,1), (1,1)> of {0} is not "
                   "among the 9 enumerated subgroups\n")


def test_internal_failure_is_exit_4(files, capsys, monkeypatch):
    """A wrong invariant factor is an internal error on every command that
    builds H: the end block's Smith diagonal (2, 6, 12, 12) with its first
    two entries merged into (1, 12) gives Z/12 in place of Z/2 x Z/6.
    That keeps |H| = 12, but the largest factor is not 6, the exponent of
    H read off the dual basis."""
    from splicemult.linalg import SnfResult

    original = SnfResult.diagonal

    def merged(self):
        diag = original(self)
        diag[:2] = [1, diag[0] * diag[1]]
        return diag

    monkeypatch.setattr(SnfResult, "diagonal", merged)
    for argv in (["mult", files["h12"], "--uac"],
                 ["invariants", files["h12"]], ["table", files["h12"]]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == ("internal error: Smith normal form check d_r == "
                       "exponent of H failed: d_r = 12, "
                       "|H| / gcd(|H|, num) = 6\n")


def test_search_class_count_is_certified(files, capsys, monkeypatch):
    """The end residues reach exactly |H1| classes (ZeroSumSearch), a
    check that runs on every search: with the last congruence dropped,
    each command stops at its first search with |K| classes, exit 4.  The
    row <(0,3)> of the h12 table, whose one nonzero Hermite row is (0,3),
    reaches 1 class instead of 2; E_1* and 2 E_3* generate a cyclic H1 of
    order 6, one modulus; and H1 = H = Z/2 x Z/6 has the end block's
    moduli (6, 2)."""
    import splicemult.monomial as monomial

    original = monomial._congruences

    def dropped(h1):
        moduli, residues = original(h1)
        if moduli:
            moduli, residues = moduli[:-1], tuple(r[:-1] for r in residues)
        return moduli, residues

    monkeypatch.setattr(monomial, "_congruences", dropped)
    h12 = files["h12"]
    for argv, k, h1_order in (
            (["table", h12], 1, 2), (["table", h12, "--json"], 1, 2),
            (["mult", h12, "--subgroup", files["sub_e1_2e3"]], 1, 6),
            (["mult", h12, "--quotient"], 6, 12)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == ("internal error: zero-sum search check |K| == |H1| "
                       f"failed: the end residues generate K with |K| = {k}, "
                       f"|H1| = {h1_order}\n")


def test_inexact_smith_residue_is_exit_4(files, capsys, monkeypatch):
    """An end's residue in slot i is (pe V)_li / s_i, which must divide
    exactly: with s_0 of pe's Smith form multiplied by 5 (coprime to
    |H| = 12, so e_0 stays), end 1's numerator no longer divides, and the
    search stops before numbering any class.  table's first search with
    classes pairs the ends with a Hermite row of H1 (monomial's Smith
    form); mult --quotient reads the end block's form, built with H
    (lattice's)."""
    import splicemult.lattice as lattice
    import splicemult.monomial as monomial

    def tampered_in(module):
        original = module.smith_normal_form

        def tampered(a):
            snf = original(a)
            snf.S[0][0] *= 5
            return snf

        return tampered

    for module, argv, s, x in (
            (monomial, ["table", files["h12"]], 30, 6),
            (monomial, ["table", files["h12"], "--json"], 30, 6),
            (lattice, ["mult", files["h12"], "--quotient"], 10, 6)):
        with monkeypatch.context() as patch:
            patch.setattr(module, "smith_normal_form", tampered_in(module))
            code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == ("internal error: zero-sum search check s_i | "
                       f"(pe V)_li failed: end 1, slot 0, s_i = {s}, "
                       f"(pe V)_li = {x}\n")


@pytest.mark.parametrize("wrong, check", [
    ("slot row", "U_j * (-I) == 0 mod d_j failed: j = 0, d_j = 2, "
                 "column E5"),
    ("representative", "U_j * rep_k == delta_jk mod d_j failed: j = 0, "
                       "k = 0, d_j = 2"),
], ids=["slot_row", "representative"])
def test_wrong_smith_coordinates_are_exit_4(files, capsys, monkeypatch,
                                            wrong, check):
    """The coordinates are certified when first built, on the commands
    that read them: a slot row of U plus E_1 no longer kills -I
    (E_1 . E_5 = 1 is odd), and a doubled representative projects onto
    2 = 0, not 1, mod d_1 = 2."""
    import splicemult.lattice as lattice

    original = lattice._smith_coordinates

    def tampered(group):
        rows, reps = original(group)
        if wrong == "slot row":
            rows = ((rows[0][0] + 1,) + rows[0][1:],) + rows[1:]
        else:
            reps = (tuple(2 * x for x in reps[0]),) + reps[1:]
        return rows, reps

    monkeypatch.setattr(lattice, "_smith_coordinates", tampered)
    for argv in (["table", files["h12"]],
                 ["mult", files["h12"], "--subgroup", files["sub_e1_2e3"]]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == f"internal error: Smith normal form check {check}\n"


def test_smith_factors_of_minus_i_are_the_end_blocks(files, capsys,
                                                     monkeypatch):
    """The coordinates come from the Smith form of -I, whose factors must
    be the end block's: with the last two entries of -I's diagonal merged
    into (1, 12), the 10 x 10 form claims Z/12 where the 4 x 4 end block
    gives Z/2 x Z/6.  Only the commands that read coordinates build that
    form, and each stops on the check; invariants and mult --quotient
    never see it."""
    import splicemult.lattice as lattice

    original = lattice.smith_normal_form

    def tampered(a):
        snf = original(a)
        if len(a) == 10:
            s = snf.S
            s[-2][-2], s[-1][-1] = 1, s[-2][-2] * s[-1][-1]
        return snf

    monkeypatch.setattr(lattice, "smith_normal_form", tampered)
    for argv in (["table", files["h12"]],
                 ["mult", files["h12"], "--subgroup", files["sub_e1_2e3"]]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == ("internal error: Smith normal form check factors of "
                       "-I == factors of the end block failed: (12,) != "
                       "(2, 6)\n")
    for argv in (["invariants", files["h12"]],
                 ["mult", files["h12"], "--quotient"]):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")


def test_only_coordinate_commands_rebuild_smith_transforms(files, capsys,
                                                          monkeypatch):
    """Only table and mult --subgroup read the Smith coordinates, which
    rebuild both 10 x 10 transforms of -I once.  invariants, validate and
    mult --uac replay nothing: H is read off the end block's diagonal.
    mult --quotient replays only the 4 x 4 V of the end block's form,
    which its search reuses for the congruences of H1 = H; table does the
    same for its row H1 = H.  Every other replay is the V of a zero-sum
    search's pe, with one column per Hermite row of H1: 1 x 1, since h60
    has one invariant factor."""
    import splicemult.linalg as linalg

    original = linalg._replay
    replays = []

    def counted(log, size):
        replays.append(size)
        return original(log, size)

    monkeypatch.setattr(linalg, "_replay", counted)
    subgroup = ["--subgroup", files["sub_e1_2e3"]]
    for argv, expected in ((["invariants"], []),
                           (["invariants", "--json"], []),
                           (["validate"], []), (["mult", "--uac"], []),
                           (["mult", "--uac", "--json"], []),
                           (["mult", "--quotient"], [4]),
                           (["mult", "--quotient", "--json"], [4]),
                           (["mult", *subgroup], [10, 10]),
                           (["table"], [10, 10, 4])):
        replays.clear()
        code, _, err = run(capsys, argv[0], files["h60"], *argv[1:])
        assert (code, err) == (0, "")
        assert [s for s in replays if s > 1] == expected, argv
        assert expected or not replays, argv


def test_wrong_branch_determinant_is_exit_4(files, capsys, monkeypatch):
    """The tree solve checks num (-I) = den Id: one wrong D(p -> c) is an
    internal error, whichever command builds the dual basis."""
    original = ResolutionGraph.branch_determinants

    def tampered(self):
        det, branch = original(self)
        branch[5, 6] += 1
        return det, branch

    monkeypatch.setattr(ResolutionGraph, "branch_determinants", tampered)
    for argv in (["invariants", files["h12"]], ["validate", files["h12"]],
                 ["mult", files["h12"], "--uac"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (4, "")
        assert err == ("internal error: tree solve check num * (-I) == "
                       "12 * Id failed at row 1\n")


@pytest.mark.parametrize("bad_call, where", [
    (1, "round 1: -Z.E_1 = -1/31 < 0"),  # the first round's vector
    (6, "round 2: -Z.E_1 = -1/31 < 0"),  # an entry the first blowup rewrites
])
def test_negative_dual_coordinate_is_exit_4(tmp_path, capsys, monkeypatch,
                                            bad_call, where):
    """Z is antinef in every round: one -Z.E_v made negative (here
    |H| * (-Z.E_v) = -1 as the bad_call-th entry the loop computes) is an
    internal error naming the round and the vertex, with nothing on
    stdout.  Round 1's vector is one application of -I (_apply_form), the
    entries 1-5 of the 5-vertex star, and each later entry is one call of
    _dual_at, so entry 6 is the first after its first blowup."""
    import splicemult.pipeline as pipeline

    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-1, [-3, -4, -5, -7])))
    apply_form, dual_at = pipeline._apply_form, pipeline._dual_at
    calls = []

    def tampered_vector(form, z):
        out = apply_form(form, z)
        if 0 < bad_call - len(calls) <= len(out):
            out[bad_call - len(calls) - 1] = -1
        calls.extend(out)
        return out

    def tampered(g, z, v):
        calls.append(v)
        return -1 if len(calls) == bad_call else dual_at(g, z, v)

    monkeypatch.setattr(pipeline, "_apply_form", tampered_vector)
    monkeypatch.setattr(pipeline, "_dual_at", tampered)
    code, out, err = run(capsys, "mult", str(path), "--uac")
    assert (code, out) == (4, "")
    assert err == f"internal error: antinef check failed in {where}\n"


def test_derived_vertex_off_its_premise_is_exit_4(files, capsys,
                                                  monkeypatch):
    """z() reads a chain or arm vertex off a node's member, which the loop
    certifies by Z.E_v = 0 at each such vertex.  On h12 with H1 = H,
    z() reads vertex 1 off node 5's member; with |H| * Z_1 raised by 1
    after it, -Z.E_1 = 2/12 and -Z.E_5 = 11/12 stays positive, so Z is
    still antinef, and the check names the vertex and the node."""
    from splicemult import ZeroSumSearch

    original = ZeroSumSearch.z

    def tampered(self):
        z = original(self)
        assert self.derived[1] == 5
        return (z[0] + 1, *z[1:])  # vertex 1, the least id

    monkeypatch.setattr(ZeroSumSearch, "z", tampered)
    code, out, err = run(capsys, "mult", files["h12"], "--quotient")
    assert (code, out) == (4, "")
    assert err == ("internal error: derived vertex check Z.E_1 = 0 failed: "
                   "Z_1 was read off node 5's member, but -Z.E_1 = 1/6\n")


def test_arm_vertex_off_its_rows_is_exit_4(capsys, monkeypatch, tmp_path):
    """z()'s arm lemma needs row(v) = alpha row(p) + beta at the arm's
    leaf l, with beta > 0, at each arm vertex v it answers.  On
    star(-3; -3^5) with H1 = H it answers the leaves 2-5 off the centre
    1; with vertex 3's entry at end 2 raised by 1, the rows are no longer
    proportional off l = 3, and `mult` names the vertex, node and leaf."""
    from splicemult import ZeroSumSearch

    row = ZeroSumSearch.row

    def tampered(self, v):
        found = row(self, v)
        return (found[0] + 1, *found[1:]) if v == 3 else found

    monkeypatch.setattr(ZeroSumSearch, "row", tampered)
    path = tmp_path / "star.json"
    path.write_text(graph_json(star(-3, [-3] * 5)))
    code, out, err = run(capsys, "mult", str(path), "--quotient")
    assert (code, out) == (4, "")
    assert err == ("internal error: arm lemma check failed: row(3) is not "
                   "alpha row(1) + beta at end 3, beta > 0\n")


def test_failed_witness_check_on_first_read(files, capsys, monkeypatch):
    """A pruned edge's witness is found, and its M_v checked, only when
    it is read.  With every edge query's |H| * M_v raised by 1, `mult
    --json` on h12 fails that check on the first edge it writes, exits 4
    and prints nothing; `table`, plain `mult` and `--trace`, which read no
    edge witness, still answer, since on h12 every edge they check has
    Z.E = 0 at a vertex."""
    from splicemult import ZeroSumSearch

    least = ZeroSumSearch.least

    def tampered(self, vertices, without=None):
        (values, exps) = found = least(self, vertices, without)
        if len(vertices) == 2:
            return (values[0] + 1, *values[1:]), exps
        return found

    monkeypatch.setattr(ZeroSumSearch, "least", tampered)
    code, out, err = run(capsys, "mult", files["h12"], "--quotient", "--json")
    assert (code, out) == (4, "")
    assert err == ("internal error: edge search at (1, 5) found "
                   "|H| * M_1 = 13, but |H| * Z_1 = 12\n")
    code, out, err = run(capsys, "table", files["h12"])
    assert (code, err) == (0, "")
    assert out == (GOLDEN / "table_h12.txt").read_text()
    for flags in ((), ("--trace",)):
        code, out, err = run(capsys, "mult", files["h12"], "--quotient",
                             *flags)
        assert (code, err) == (0, "")
        assert out.endswith("multiplicity = 2\n")


# Tree 154 of bench/corpus.json (|H| = 5252), the CI smoke job's tree
TREE_154 = ResolutionGraph(
    {1: -3, 2: -3, 3: -3, 4: -2, 5: -3, 6: -2, 7: -4, 8: -3, 9: -2, 10: -4},
    [(1, 2), (1, 3), (3, 4), (1, 5), (5, 6), (6, 7), (6, 8), (4, 9),
     (8, 10)])


# Tree 30 of bench/corpus.json (|H| = 35,697), the corpus's longest run:
# 208 blowups to multiplicity 36
TREE_30 = ResolutionGraph(
    {1: -2, 2: -4, 3: -4, 4: -2, 5: -2, 6: -3, 7: -4, 8: -3, 9: -3, 10: -2,
     11: -3, 12: -4},
    [(1, 2), (1, 3), (3, 4), (2, 5), (5, 6), (4, 7), (5, 8), (7, 9), (8, 10),
     (5, 11), (1, 12)])


@pytest.mark.parametrize("g, flags, digest", [
    (star(-1, [-3, -4, -5, -7]), ("--uac",),  # 25 rounds
     "9b934604a7c3a1af356f8da17b6b8ad02484ebb035349a3652752450a009c814"),
    (TREE_154, ("--uac", "--max-blowups", "100"),  # 70 blowups
     "f468d977f1a6700e759d4ae7d48786fcf92d4993d3482024c82617bd0290bd87"),
    (star(-3, [-3] * 5), ("--quotient",),  # arm lemma at four leaves
     "330c3a9a18f64e7f58bdc2087f56d7ae9ef8fa25e97bed9459634d89c9de13c5"),
    (star(-2, [-5, -7, -11]), ("--quotient",),  # |H| = 603
     "def2d66c56df1941f281f81e9bdc4b78afd8e4e4a2a2069e99725f19ae4bee28"),
    (TREE_30, ("--uac", "--max-blowups", "300"),  # 208 blowups
     "969580c5a0106c061f2df7c435628210af933ee7a504c78ece7aaf1d1630a68b"),
])
def test_mult_json_of_a_long_run_is_pinned(g, flags, digest, capsys,
                                           tmp_path):
    """The sha256 of the `mult --json` document of three long `--uac`
    runs, which the writer records as round 1 and one patch per blowup,
    and of two `--quotient` stars, whose witnesses depend on which member
    answers each query, pins their bytes, their rounds rebuilt whole.
    Each document is what json.dumps prints for it."""
    import hashlib

    path = tmp_path / "graph.json"
    path.write_text(graph_json(g))
    code, out, err = run(capsys, "mult", str(path), "--json", *flags)
    assert (code, err) == (0, "")
    assert out == json.dumps(json.loads(out), indent=2, sort_keys=True) + "\n"
    whole = expand_mult_json(out)
    assert hashlib.sha256(whole.encode()).hexdigest() == digest


def test_rounds_share_the_run_z_map():
    """Every round of a report refers to the run's one Z map and stores no
    vector of its own; a round's Z and Z.E are read off that map and its
    graph, and the report keeps the final Z.E as a map."""
    g = star(-1, [-3, -4, -5, -7])
    report = run_pipeline(g, trivial_subgroup(discriminant_group(g)))
    assert len(report.rounds) == 25
    for rnd in report.rounds:
        assert rnd.z is report.rounds[0].z
        assert "z_num" not in vars(rnd) and "z_dual_num" not in vars(rnd)
    final = report.rounds[-1]
    assert report.z_dual == dict(zip(final.graph.vertex_ids,
                                     final.z_dual_num))
    assert final.z == dict(zip(final.graph.vertex_ids, final.z_num))


def test_no_command_inverts_by_bareiss(files, capsys, monkeypatch):
    """Every dual basis comes from the tree solve or a pullback."""
    import splicemult.linalg as linalg

    def forbidden(a):
        raise AssertionError("invert_rational_matrix called")

    replace_everywhere(monkeypatch, linalg.invert_rational_matrix, forbidden)
    for argv in (["validate"], ["invariants"], ["invariants", "--json"],
                 ["splice-eqs"], ["mult", "--uac", "--json"],
                 ["mult", "--quotient"], ["table", "--json"]):
        code, out, err = run(capsys, argv[0], files["h60"], *argv[1:])
        assert (code, err) == (0, "")


@pytest.mark.parametrize("exc", [ValueError("math domain error"),
                                 TypeError("unsupported operand")])
def test_unclassified_exception_is_exit_4(files, capsys, monkeypatch, exc):
    """A builtin exception escaping a stage is a bug, never invalid input."""
    import splicemult.cli as cli

    def broken(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "run_pipeline", broken)
    code, out, err = run(capsys, "mult", files["h12"], "--uac")
    assert (code, out) == (4, "")
    assert err == f"internal error: {type(exc).__name__}: {exc}\n"


def _source_trees():
    import splicemult

    package = pathlib.Path(splicemult.__file__).parent
    for path in sorted(package.glob("*.py")):
        yield path.name, ast.parse(path.read_text(), filename=str(path))


def test_every_raise_is_a_family_error():
    """Each raise names one of the four families, whose class fixes the
    exit code, or re-raises."""
    families = {"InputError", "ConditionError", "CapExceededError",
                "InternalError"}
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Raise) or node.exc is None:
                continue
            target = node.exc.func if isinstance(node.exc, ast.Call) \
                else node.exc
            assert isinstance(target, ast.Name) and target.id in families, \
                f"{name}:{node.lineno} raises {ast.unparse(node.exc)}"


def test_no_assert_in_source():
    """Internal checks raise InternalError; `python -O` strips asserts."""
    for name, tree in _source_trees():
        found = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Assert)]
        assert found == [], f"{name} asserts at lines {found}"


def test_commands_import_no_unused_stdlib_modules(tmp_path, tree_h12):
    """A process that runs `mult --uac --json` and `table --json` loads
    none of dataclasses, inspect, typing, fractions or decimal: the
    records are plain classes and named tuples, and only the
    is_negative_definite reference, which no command runs, imports
    fractions.  The child runs under -S, since site hooks may import
    typing themselves."""
    import os
    import subprocess

    h12 = tmp_path / "h12.json"
    h12.write_text(graph_json(tree_h12))
    script = (
        "import contextlib, io, sys\n"
        "from splicemult.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [main(['mult', sys.argv[1], '--uac', '--json']),\n"
        "             main(['table', sys.argv[1], '--json'])]\n"
        "print(codes, sorted({'dataclasses', 'inspect', 'typing',\n"
        "                     'fractions', 'decimal'} & set(sys.modules)))\n")
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-S", "-c", script, str(h12)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=60)
    assert (done.stdout, done.stderr) == ("[0, 0] []\n", "")


def test_runtime_imports_only_the_standard_library():
    """Every import in the package is from the standard library or the
    package itself, so it runs on a bare Python."""
    for name, tree in _source_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names or top == "splicemult", \
                    f"{name}:{node.lineno} imports {module}"
