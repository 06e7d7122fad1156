"""Exact integer and rational linear algebra.

Matrices are plain lists of lists over Python ints or fractions.Fraction.
Everything runs on arbitrary-precision arithmetic; floating point is never
used.  Determinants and the inverse use fraction-free (Bareiss) elimination,
whose divisions are all exact, so they run in integers: the inverse comes
back as integer numerators over one positive denominator |det A|.  No
command inverts here: the dual basis (-I(E))^{-1} of a tree comes from the
path formula on its branch determinants (lattice.DualBasis), which checks
itself against -I, and the general inverse is the reference the tests hold
it to.  Smith and Hermite forms use unimodular row and column operations.
"""

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import InternalError


def identity_matrix(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def copy_matrix(a):
    return [list(row) for row in a]


def mat_mul(a, b):
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def mat_vec(a, v):
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def matrices_equal(a, b):
    return len(a) == len(b) and all(
        len(ra) == len(rb) and all(x == y for x, y in zip(ra, rb))
        for ra, rb in zip(a, b)
    )


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


@dataclass(frozen=True)
class SnfResult:
    """Smith normal decomposition U*A*V = S with U, V unimodular and the
    diagonal of S nonnegative with d1 | d2 | ... ."""

    U: list
    S: list
    V: list

    def diagonal(self):
        return [self.S[i][i] for i in range(min(len(self.S), len(self.S[0])))]


@dataclass(frozen=True)
class HnfResult:
    """Row Hermite decomposition U*A = H with U unimodular, H in canonical
    form: positive pivots, entries above each pivot reduced into [0, pivot)."""

    U: list
    H: list


def _row_reduce_pair(m, u, i1, i2, j):
    """Left-multiply rows i1, i2 of m (and u) by a unimodular 2x2 matrix so
    that m[i1][j] divides everything it must and m[i2][j] becomes 0.

    The divisible case is an elementary operation that leaves row i1 alone;
    otherwise the pivot strictly shrinks to gcd(a, b), which bounds the
    number of reduction rounds.
    """
    a, b = m[i1][j], m[i2][j]
    if b == 0:
        return
    if a == 0:
        m[i1], m[i2] = m[i2], m[i1]
        u[i1], u[i2] = u[i2], u[i1]
        return
    if b % a == 0:
        q = b // a
        m[i2] = [s - q * t for s, t in zip(m[i2], m[i1])]
        u[i2] = [s - q * t for s, t in zip(u[i2], u[i1])]
        return
    g, x, y = _xgcd(a, b)
    p, q = -(b // g), a // g  # second row of the transform, det = +1
    for mat in (m, u):
        r1, r2 = mat[i1], mat[i2]
        mat[i1] = [x * s + y * t for s, t in zip(r1, r2)]
        mat[i2] = [p * s + q * t for s, t in zip(r1, r2)]


def _col_reduce_pair(m, v, j1, j2, i):
    """Right-multiply columns j1, j2 of m (and v) by a unimodular 2x2 matrix
    so that m[i][j1] divides everything it must and m[i][j2] becomes 0.

    Mirror image of _row_reduce_pair; the divisible case leaves column j1
    untouched.
    """
    a, b = m[i][j1], m[i][j2]
    if b == 0:
        return
    if a == 0:
        for row in m:
            row[j1], row[j2] = row[j2], row[j1]
        for row in v:
            row[j1], row[j2] = row[j2], row[j1]
        return
    if b % a == 0:
        q = b // a
        for mat in (m, v):
            for row in mat:
                row[j2] -= q * row[j1]
        return
    g, x, y = _xgcd(a, b)
    p, q = -(b // g), a // g
    for mat in (m, v):
        for row in mat:
            s, t = row[j1], row[j2]
            row[j1] = x * s + y * t
            row[j2] = p * s + q * t


def smith_normal_form(a):
    """Smith normal form of an integer matrix with transform tracking.

    Returns SnfResult(U, S, V) with U*A*V = S exactly, U and V unimodular,
    the diagonal of S nonnegative and each entry dividing the next.  For a
    nonsingular square matrix the product of the diagonal equals |det A|.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    s = copy_matrix(a)
    u = identity_matrix(rows)
    v = identity_matrix(cols)
    r = min(rows, cols)

    for t in range(r):
        # move a nonzero entry of smallest magnitude into the pivot slot
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if s[i][j] != 0 and (pivot is None
                                     or abs(s[i][j]) < abs(s[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        pi, pj = pivot
        if pi != t:
            s[t], s[pi] = s[pi], s[t]
            u[t], u[pi] = u[pi], u[t]
        if pj != t:
            for row in s:
                row[t], row[pj] = row[pj], row[t]
            for row in v:
                row[t], row[pj] = row[pj], row[t]
        # alternate clearing the pivot column and row until both are clean
        while True:
            for i in range(t + 1, rows):
                _row_reduce_pair(s, u, t, i, t)
            if all(s[t][j] == 0 for j in range(t + 1, cols)):
                break
            for j in range(t + 1, cols):
                _col_reduce_pair(s, v, t, j, t)
            if all(s[i][t] == 0 for i in range(t + 1, rows)):
                break

    # normalize signs on the diagonal
    for t in range(r):
        if s[t][t] < 0:
            s[t] = [-x for x in s[t]]
            u[t] = [-x for x in u[t]]

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
            for i in range(rows):
                s[i][t] += s[i][t + 1]
            for i in range(cols):
                v[i][t] += v[i][t + 1]
            while True:
                _row_reduce_pair(s, u, t, t + 1, t)
                if s[t][t + 1] == 0:
                    break
                _col_reduce_pair(s, v, t, t + 1, t)
                if s[t + 1][t] == 0:
                    break
            for k in (t, t + 1):
                if s[k][k] < 0:
                    s[k] = [-x for x in s[k]]
                    u[k] = [-x for x in u[k]]

    if not matrices_equal(mat_mul(mat_mul(u, copy_matrix(a)), v), s):
        raise InternalError("Smith normal form check U*A*V == S failed")
    return SnfResult(U=u, S=s, V=v)


def _hermite_reduce(a):
    """Row-reduce an integer matrix to canonical Hermite form.

    Returns (U, H, rank) with U*A = H and U unimodular.  The first `rank`
    rows of H are the echelon rows, with positive pivots and entries above
    each pivot reduced into [0, pivot); the remaining rows are zero, so the
    matching rows of U span the left kernel of A.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    h = copy_matrix(a)
    u = identity_matrix(rows)
    r = 0
    for j in range(cols):
        if r == rows:
            break
        if all(h[i][j] == 0 for i in range(r, rows)):
            continue
        for i in range(r + 1, rows):
            _row_reduce_pair(h, u, r, i, j)
        if h[r][j] < 0:
            h[r] = [-x for x in h[r]]
            u[r] = [-x for x in u[r]]
        p = h[r][j]
        for i in range(r):
            q = h[i][j] // p  # floor division leaves h[i][j] in [0, p)
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
    return u, h, r


def hermite_normal_form(a):
    """Canonical row Hermite normal form of a full-row-rank integer matrix.

    Returns HnfResult(U, H) with U*A = H, U unimodular, pivots positive and
    entries above each pivot reduced into [0, pivot).  Raises
    InternalError when the rows are dependent over the rationals.
    """
    u, h, rank = _hermite_reduce(a)
    if rank < len(a):
        raise InternalError("matrix does not have full row rank")
    if not matrices_equal(mat_mul(u, copy_matrix(a)), h):
        raise InternalError("Hermite normal form check U*A == H failed")
    return HnfResult(U=u, H=h)


def is_negative_definite(a):
    """Exact negative-definiteness test for a symmetric integer matrix.

    A is negative definite iff all leading principal minors of -A are
    positive; equivalently symmetric Gaussian elimination on -A (no row
    exchanges) meets only positive pivots, since the k-th pivot equals the
    ratio of consecutive leading minors.
    """
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
