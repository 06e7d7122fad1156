"""Exception hierarchy shared by all splicemult modules."""


class SpliceMultError(Exception):
    """Base class for every error raised by this package."""


# --- input / structural problems -------------------------------------------

class ParseError(SpliceMultError):
    """Malformed input document (bad JSON, wrong shape, unknown ids)."""


class NotATreeError(SpliceMultError):
    """The edge set does not describe a connected acyclic graph."""


class NotNegativeDefiniteError(SpliceMultError):
    """The intersection matrix is not negative definite."""


class BadWeightError(SpliceMultError):
    """A vertex weight is >= 0."""


class TooSmallError(SpliceMultError):
    """Fewer than two vertices."""


class NotMinimalError(SpliceMultError):
    """The graph contains a (-1)-vertex of valence <= 2 (blow-downable)."""


class UnknownVertexError(SpliceMultError):
    """A vertex id is not present in the graph."""


class NotAnEdgeError(SpliceMultError):
    """The given pair of vertices is not an edge."""


class NotAnEndError(SpliceMultError):
    """The given vertex/index is not a current end."""


class GraphMismatchError(SpliceMultError):
    """Two cycles (or a cycle and an operation) live on different graphs."""


class IndexMismatchError(SpliceMultError):
    """A cycle is not indexed by the vertices expected by the operation."""


# --- linear algebra ----------------------------------------------------------

class SingularMatrixError(SpliceMultError):
    """Matrix inversion requested for a matrix with determinant zero."""


class RankDeficientError(SpliceMultError):
    """Hermite normal form requested for a matrix without full row rank."""


class NotSymmetricError(SpliceMultError):
    """Definiteness test requested for a non-symmetric matrix."""


# --- resource limits ---------------------------------------------------------

class CapExceededError(SpliceMultError):
    """An enumeration bound (group order, search box, knapsack) was exceeded."""


class MaxBlowupsExceededError(SpliceMultError):
    """The blowup loop did not terminate within the configured bound."""


# --- mathematical preconditions ---------------------------------------------

class EmptySetError(SpliceMultError):
    """gcd of an empty set of cycles requested."""


class MonomialConditionError(SpliceMultError):
    """The graph does not satisfy the monomial condition."""


class InternalError(SpliceMultError):
    """An internal consistency check failed (for example U*A*V != S after a
    Smith form).  This is always a bug in the package, never bad input."""


class NonIntegerMultiplicityError(SpliceMultError):
    """Internal consistency failure: the final multiplicity formula did not
    produce a positive integer.  All arithmetic is exact, so this always
    indicates a bug or a violated input assumption, never rounding."""
