"""Exact integer and rational linear algebra.

Matrices are plain lists of lists over Python ints.  Everything runs on
arbitrary-precision arithmetic; floating point is never used.
Determinants and the inverse use fraction-free (Bareiss) elimination,
whose divisions are all exact, so they run in integers: the inverse comes
back as integer numerators over one positive denominator |det A|.  No
command inverts here: the dual basis (-I(E))^{-1} of a tree comes from the
path formula on its branch determinants (lattice.DualBasis), which checks
itself against -I, and the general inverse is the reference the tests hold
it to.  Only the is_negative_definite reference, which no command runs,
builds a Fraction, and it imports the fractions module when called.

Smith and Hermite forms eliminate on the matrix alone and log each
unimodular row and column operation; a transform is rebuilt from its log
only when a caller reads it, by replaying the same operations on Id.  No
dense product checks a decomposition here: the discriminant group checks
what it reads of the Smith form against the dual basis (see
lattice.DiscriminantGroup).
"""

from functools import cached_property

from .errors import InternalError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [list(row) for row in a]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def _check_square(a):
    n = len(a)
    if n == 0 or any(len(row) != n for row in a):
        raise InternalError("square matrix required")
    return n


def _xgcd(a, b):
    """Return (g, x, y) with x*a + y*b = g = gcd(a, b) >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        g, x, y = -g, -x, -y
    return g, x, y


def determinant(a):
    """Exact determinant of a square integer matrix (Bareiss elimination).

    All intermediate divisions are exact, so the computation stays in the
    integers throughout.
    """
    n = _check_square(a)
    m = copy_matrix(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def invert_rational_matrix(a):
    """Exact inverse of a square integer matrix (fraction-free Gauss-Jordan),
    as the pair (num, d) with d = |det A| > 0 and A^{-1} = num / d.

    Bareiss elimination on [A | Id]: every division is exact, so the work
    stays in the integers.  It ends with d * Id on the left, d = +-det A,
    and d * A^{-1} on the right; no Fraction is built.  Raises
    InternalError when the determinant vanishes.
    """
    n = _check_square(a)
    if any(type(x) is not int for row in a for x in row):
        raise InternalError("fraction-free inversion needs integer entries")
    m = [list(row) + [int(i == j) for j in range(n)]
         for i, row in enumerate(a)]
    prev = 1
    for k in range(n):
        pivot_row = next((i for i in range(k, n) if m[i][k] != 0), None)
        if pivot_row is None:
            raise InternalError("matrix is singular")
        m[k], m[pivot_row] = m[pivot_row], m[k]
        pivot, row_k = m[k][k], m[k]
        for i in range(n):
            if i != k:
                f = m[i][k]
                m[i] = [(pivot * x - f * y) // prev
                        for x, y in zip(m[i], row_k)]
        prev = pivot
    d = prev
    if any(m[i][i] != d for i in range(n)):
        raise InternalError("Bareiss inversion did not end at d * Id")
    sign = 1 if d > 0 else -1
    return [[sign * x for x in row[n:]] for row in m], sign * d


class SnfResult:
    """Smith normal decomposition U*A*V = S with U, V unimodular and the
    diagonal of S nonnegative with d1 | d2 | ... .

    smith_normal_form eliminates on S alone and logs every unimodular row
    and column operation.  U and V are rebuilt from the logs on first
    read, by replaying the row log on Id (U = R_k ... R_1) and the column
    log on Id (V = C_1 ... C_k) with the functions the elimination
    applied to S.
    """

    def __init__(self, S, row_ops, col_ops):
        self.S = S
        self._row_ops = row_ops
        self._col_ops = col_ops

    @cached_property
    def U(self):
        return _replay(self._row_ops, len(self.S))

    @cached_property
    def V(self):
        return _replay(self._col_ops, len(self.S[0]) if self.S else 0)

    def diagonal(self):
        return [self.S[i][i] for i in range(min(len(self.S), len(self.S[0])))]


# The unimodular operations, applied in place to a list of rows.  An op is
# logged as (function, arguments); _replay applies the same log to Id.


def _swap_rows(m, i, k):
    m[i], m[k] = m[k], m[i]


def _add_row(m, i, k, q):
    """Row i -= q * row k."""
    m[i] = [s - q * t for s, t in zip(m[i], m[k])]


def _mix_rows(m, i, k, x, y, p, q):
    """Rows (i, k) <- [[x, y], [p, q]] (rows i, k); the determinant is 1."""
    r1, r2 = m[i], m[k]
    m[i] = [x * s + y * t for s, t in zip(r1, r2)]
    m[k] = [p * s + q * t for s, t in zip(r1, r2)]


def _negate_row(m, i):
    m[i] = [-x for x in m[i]]


def _swap_cols(m, j, k):
    for row in m:
        row[j], row[k] = row[k], row[j]


def _add_col(m, j, k, q):
    """Column j -= q * column k."""
    for row in m:
        row[j] -= q * row[k]


def _mix_cols(m, j, k, x, y, p, q):
    """Columns (j, k) <- (x col j + y col k, p col j + q col k)."""
    for row in m:
        s, t = row[j], row[k]
        row[j] = x * s + y * t
        row[k] = p * s + q * t


def _apply(m, log, fn, *args):
    fn(m, *args)
    log.append((fn, args))


def _replay(log, size):
    """The product of the logged operations, applied in order to Id."""
    m = identity_matrix(size)
    for fn, args in log:
        fn(m, *args)
    return m


def _row_reduce_pair(m, log, i1, i2, j):
    """Left-multiply rows i1, i2 of m by a unimodular 2x2 matrix so that
    m[i1][j] divides everything it must and m[i2][j] becomes 0; the
    operation is appended to log.

    The divisible case is an elementary operation that leaves row i1 alone;
    otherwise the pivot strictly shrinks to gcd(a, b), which bounds the
    number of reduction rounds.
    """
    a, b = m[i1][j], m[i2][j]
    if b == 0:
        return
    if a == 0:
        _apply(m, log, _swap_rows, i1, i2)
    elif b % a == 0:
        _apply(m, log, _add_row, i2, i1, b // a)
    else:
        g, x, y = _xgcd(a, b)
        # second row of the transform, det = +1
        _apply(m, log, _mix_rows, i1, i2, x, y, -(b // g), a // g)


def _col_reduce_pair(m, log, j1, j2, i):
    """Right-multiply columns j1, j2 of m by a unimodular 2x2 matrix so that
    m[i][j1] divides everything it must and m[i][j2] becomes 0.

    Mirror image of _row_reduce_pair; the divisible case leaves column j1
    untouched.
    """
    a, b = m[i][j1], m[i][j2]
    if b == 0:
        return
    if a == 0:
        _apply(m, log, _swap_cols, j1, j2)
    elif b % a == 0:
        _apply(m, log, _add_col, j2, j1, b // a)
    else:
        g, x, y = _xgcd(a, b)
        _apply(m, log, _mix_cols, j1, j2, x, y, -(b // g), a // g)


def smith_normal_form(a):
    """Smith normal form of an integer matrix, with its transforms logged.

    Returns SnfResult(U, S, V) with U*A*V = S exactly, U and V unimodular,
    the diagonal of S nonnegative and each entry dividing the next.  For a
    nonsingular square matrix the product of the diagonal equals |det A|.
    The elimination runs on S and logs its operations; U and V are built
    from the logs only when read (see SnfResult).

    Step t moves the first nonzero entry of least magnitude (row by row)
    into the pivot slot; an entry of magnitude 1 ends the scan, since none
    can be smaller.  Then it alternates clearing the pivot column and row.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = copy_matrix(a)
    row_ops, col_ops = [], []
    r = min(rows, cols)

    for t in range(r):
        best = 0
        for i in range(t, rows):
            row = s[i]
            for j in range(t, cols):
                x = row[j]
                if x and (not best or abs(x) < best):
                    best, pi, pj = abs(x), i, j
                    if best == 1:
                        break
            if best == 1:
                break
        if not best:
            break
        if pi != t:
            _apply(s, row_ops, _swap_rows, t, pi)
        if pj != t:
            _apply(s, col_ops, _swap_cols, t, pj)
        # alternate clearing the pivot column and row until both are clean
        while True:
            for i in range(t + 1, rows):
                if s[i][t]:
                    _row_reduce_pair(s, row_ops, t, i, t)
            if not any(s[t][t + 1:]):
                break
            for j in range(t + 1, cols):
                if s[t][j]:
                    _col_reduce_pair(s, col_ops, t, j, t)
            if not any(s[i][t] for i in range(t + 1, rows)):
                break

    # normalize signs on the diagonal
    for t in range(r):
        if s[t][t] < 0:
            _apply(s, row_ops, _negate_row, t)

    # enforce the divisibility chain d_t | d_{t+1}
    changed = True
    while changed:
        changed = False
        for t in range(r - 1):
            dt, dn = s[t][t], s[t + 1][t + 1]
            if dt == 0 or dn % dt == 0:
                continue
            changed = True
            # fold the next diagonal entry into column t, then re-reduce the
            # 2x2 block; result is diag(gcd, lcm) up to sign
            _apply(s, col_ops, _add_col, t, t + 1, -1)
            while True:
                _row_reduce_pair(s, row_ops, t, t + 1, t)
                if s[t][t + 1] == 0:
                    break
                _col_reduce_pair(s, col_ops, t, t + 1, t)
                if s[t + 1][t] == 0:
                    break
            for k in (t, t + 1):
                if s[k][k] < 0:
                    _apply(s, row_ops, _negate_row, k)

    return SnfResult(s, row_ops, col_ops)


def _hermite_reduce(a):
    """Row-reduce an integer matrix to canonical Hermite form.

    Returns (H, rank, log): the first `rank` rows of H are the echelon
    rows, with positive pivots and entries above each pivot reduced into
    [0, pivot), and the remaining rows are zero.  `log` holds the row
    operations; _replay(log, len(a)) is the unimodular U with U*A = H, and
    its rows past `rank` span the left kernel of A.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = copy_matrix(a)
    log = []
    r = 0
    for j in range(cols):
        if r == rows:
            break
        if all(h[i][j] == 0 for i in range(r, rows)):
            continue
        for i in range(r + 1, rows):
            _row_reduce_pair(h, log, r, i, j)
        if h[r][j] < 0:
            _apply(h, log, _negate_row, r)
        p = h[r][j]
        for i in range(r):
            q = h[i][j] // p  # floor division leaves h[i][j] in [0, p)
            if q:
                _apply(h, log, _add_row, i, r, q)
        r += 1
    return h, r, log


def is_negative_definite(a):
    """Exact negative-definiteness test for a symmetric integer matrix.

    A is negative definite iff all leading principal minors of -A are
    positive; equivalently symmetric Gaussian elimination on -A (no row
    exchanges) meets only positive pivots, since the k-th pivot equals the
    ratio of consecutive leading minors.
    """
    from fractions import Fraction

    n = _check_square(a)
    for i in range(n):
        for j in range(i + 1, n):
            if a[i][j] != a[j][i]:
                raise InternalError("matrix is not symmetric")
    m = [[Fraction(-x) for x in row] for row in a]
    for k in range(n):
        p = m[k][k]
        if p <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / p
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return True
