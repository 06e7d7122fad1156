"""Exception families shared by all splicemult modules.

Every failure is one of four kinds, and each family carries the exit code
the command line returns for it; no other module keeps a mapping.
"""


class SpliceMultError(Exception):
    """Base class for every error raised by this package.  Code raises one
    of the four families below; anything else is unclassified, so a bug."""

    exit_code = 4


class InputError(SpliceMultError):
    """The input document or an argument is invalid: malformed JSON, not a
    tree, a weight >= 0, fewer than two vertices, a form that is not
    negative definite, or a bad option value."""

    exit_code = 1


class ConditionError(SpliceMultError):
    """A precondition of the theory does not hold: the graph is not minimal
    or fails the monomial condition."""

    exit_code = 2


class CapExceededError(SpliceMultError):
    """A resource cap was hit: group order, |H1| for the zero-sum search,
    Hilbert-basis box, knapsack nodes or the number of blowups."""

    exit_code = 3


class InternalError(SpliceMultError):
    """An internal consistency check or internal-API precondition failed
    (for example a largest invariant factor that is not the exponent of
    H, or a cycle on the wrong graph).  The command line validates every
    document first, so this is always a bug in the package, never bad
    input."""

    exit_code = 4
