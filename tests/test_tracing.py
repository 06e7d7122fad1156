"""The benchmark's layer tracer, bench/tracing.py, against the program:
every function it wraps exists, every counter reads the result it is
given, and uninstalling puts the originals back.  The tracer looks the
functions up by name, so renaming or removing one breaks
`bench/run.py --trace 1`; this test fails first."""

import importlib
import importlib.util
import pathlib
import sys
import time

import splicemult
import splicemult.cli
from splicemult import discriminant_group, full_subgroup, trivial_subgroup

from conftest import graph_json

TRACING = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    """bench/tracing.py as a module, imported by path, unchanged."""
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _bindings(spans):
    """Every splicemult module attribute and every wrapped class
    attribute, with the object it holds now."""
    out = {(name, key): value for name, module in list(sys.modules.items())
           if name.startswith("splicemult")
           for key, value in vars(module).items()}
    for _, module, attr, _ in spans:
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(sys.modules[module], cls_name)
            out[cls, method] = vars(cls)[method]
    return out


def test_tracer_wraps_every_span_and_puts_the_program_back(tmp_path,
                                                           capsys,
                                                           tree_h12):
    tracing = _load_tracing()
    for _, module, attr, _ in tracing.SPANS:
        owner = importlib.import_module(module)
        if "." in attr:
            cls_name, method = attr.split(".")
            assert method in vars(getattr(owner, cls_name)), attr
        else:
            assert callable(getattr(owner, attr)), attr
    before = _bindings(tracing.SPANS)
    path = tmp_path / "h12.json"
    path.write_text(graph_json(tree_h12))

    tracer = tracing.Tracer(time.perf_counter)
    tracer.install()
    try:
        main = splicemult.cli.main
        assert main(["mult", str(path), "--uac", "--json"]) == 0
        assert main(["table", str(path), "--json"]) == 0
        # the layers these two commands do not reach, called through the
        # module attributes that the tracer replaced
        graph, lattice = splicemult.graph, splicemult.lattice
        monomial, linalg = splicemult.monomial, splicemult.linalg
        graph.blowup_end_point(tree_h12, 1)
        graph.blowup_edge(tree_h12, 1, 5)
        basis = lattice.DualBasis(tree_h12)
        group = discriminant_group(tree_h12, basis)
        monomial.base_point_set(tree_h12, basis)
        generators = monomial.hilbert_basis(tree_h12, basis,
                                            full_subgroup(group))
        monomial.gcd_cycle(generators)
        lattice.flat_subgroup(trivial_subgroup(group))
        matrix = tree_h12.intersection_matrix()
        linalg.invert_rational_matrix(matrix)
        linalg.determinant(matrix)
        linalg.is_negative_definite(matrix)
    finally:
        tracer.uninstall()
    capsys.readouterr()

    assert set(tracer.self_s) == set(tracing.SPAN_NAMES)
    assert set(tracer.counts) == set(tracing.COUNTER_NAMES)
    assert tracer.counts["monomial.hilbert_basis.generators"] == len(
        generators)
    assert tracer.counts["monomial.hilbert_basis.box_points"] > len(
        generators)
    after = _bindings(tracing.SPANS)
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
