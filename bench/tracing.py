"""Layer spans for the traced benchmark run, recorded from outside the program.

`Tracer.install` replaces the public functions of each splicemult layer
with timing wrappers.  Callers bind these functions with `from .x import
y`, so a function is replaced under every module attribute that refers to
it (for example both `splicemult.monomial.hilbert_basis` and
`splicemult.pipeline.hilbert_basis`); the two constructors are replaced on
their classes.  `uninstall` puts the originals back.

A span's self time is its duration minus the time covered by spans that
started inside it.  Spans of one name are summed; a span that encloses a
span of its own name (full_subgroup calls subgroup) counts its work once.
"""

import functools
import math
import sys
from collections import defaultdict


def _box_points(result):
    return math.prod(o + 1 for o in result.orders)


def _subgroup_elements(result):
    if isinstance(result, list):
        return sum(s.order for s in result)
    return result.order


_ONE = (("count", lambda a, r: 1),)
_CALLS = (("calls", lambda a, r: 1),)
_ELEMENTS = (("elements", lambda a, r: _subgroup_elements(r)),)

# (span name, module, attribute, counters).  A counter is a name suffix
# and a function of (arguments, result), summed over the outermost calls
# that return.
SPANS = (
    ("cli.main", "splicemult.cli", "main", ()),
    ("graph.parse_and_validate", "splicemult.graph", "parse_and_validate",
     ()),
    ("graph.blowup", "splicemult.graph", "blowup_edge", _ONE),
    ("graph.blowup", "splicemult.graph", "blowup_end_point", _ONE),
    ("linalg.is_negative_definite", "splicemult.linalg",
     "is_negative_definite", ()),
    ("linalg.invert_rational_matrix", "splicemult.linalg",
     "invert_rational_matrix", (("n3", lambda a, r: len(a[0]) ** 3),)),
    ("linalg.smith_normal_form", "splicemult.linalg", "smith_normal_form",
     ()),
    ("linalg.determinant", "splicemult.linalg", "determinant", ()),
    ("lattice.dual_cycles", "splicemult.lattice", "DualBasis.__init__",
     _CALLS),
    ("lattice.discriminant_group", "splicemult.lattice",
     "DiscriminantGroup.__init__", ()),
    ("lattice.subgroups", "splicemult.lattice", "subgroup", _ELEMENTS),
    ("lattice.subgroups", "splicemult.lattice", "trivial_subgroup",
     _ELEMENTS),
    ("lattice.subgroups", "splicemult.lattice", "full_subgroup", _ELEMENTS),
    ("lattice.subgroups", "splicemult.lattice", "enumerate_subgroups",
     _ELEMENTS),
    ("lattice.subgroups", "splicemult.lattice", "flat_subgroup", _ELEMENTS),
    ("monomial.monomial_condition", "splicemult.monomial",
     "monomial_condition", ()),
    ("monomial.base_point_set", "splicemult.monomial", "base_point_set", ()),
    ("monomial.hilbert_basis", "splicemult.monomial", "hilbert_basis",
     _CALLS + (("box_points", lambda a, r: _box_points(r)),
               ("generators", lambda a, r: len(r)))),
    ("monomial.gcd_cycle", "splicemult.monomial", "gcd_cycle", ()),
    ("pipeline.run_pipeline", "splicemult.pipeline", "run_pipeline",
     (("rounds", lambda a, r: len(r.rounds)),)),
    ("pipeline.check_gcd_condition", "splicemult.pipeline",
     "check_gcd_condition", ()),
)

SPAN_NAMES = tuple(dict.fromkeys(name for name, _, _, _ in SPANS))
COUNTER_NAMES = tuple(dict.fromkeys(
    f"{name}.{suffix}" for name, _, _, counters in SPANS
    for suffix, _ in counters))


class Tracer:
    """Self time and counters per span name for the calls made while
    installed; `clock` gives the time in seconds."""

    def __init__(self, clock):
        self._clock = clock
        self.self_s = defaultdict(float)
        self.counts = defaultdict(int)
        self._stack = []  # per open span: time covered by its children
        self._open = defaultdict(int)  # open spans per name
        self._patches = []  # (owner, attribute, wrapper, original)
        for name, module, attr, counters in SPANS:
            mod = sys.modules[module]
            if "." in attr:
                cls_name, method = attr.split(".")
                owner = getattr(mod, cls_name)
                original = owner.__dict__[method]
                self._patches.append((owner, method, self._wrap(
                    name, original, counters), original))
                continue
            original = getattr(mod, attr)
            wrapper = self._wrap(name, original, counters)
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("splicemult"):
                    self._patches.extend(
                        (other, key, wrapper, original)
                        for key, value in vars(other).items()
                        if value is original)

    def _wrap(self, name, fn, counters):
        stack, open_, tracer, clock = (self._stack, self._open, self,
                                       self._clock)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            outermost = open_[name] == 0
            open_[name] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = stack.pop()
                open_[name] -= 1
                tracer.self_s[name] += duration - children
                if stack:
                    stack[-1] += duration
            if outermost:
                for suffix, count in counters:
                    tracer.counts[f"{name}.{suffix}"] += count(args, result)
            return result
        return span

    def install(self):
        """Replace every function of SPANS wherever a module refers to it."""
        for owner, attr, wrapper, _ in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, _, original in self._patches:
            setattr(owner, attr, original)
