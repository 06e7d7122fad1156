"""Exact linear algebra: unit examples plus randomized oracle checks."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from splicemult.errors import InternalError
from splicemult.linalg import (
    determinant,
    identity_matrix,
    invert_rational_matrix,
    is_negative_definite,
    smith_normal_form,
)

from conftest import (
    H12_DUAL_ROWS,
    H12_WEIGHTS,
    TWO_NODE_EDGES,
    eager_smith_normal_form,
    hermite_normal_form,
    invert_by_fractions,
    mat_mul,
    matrices_equal,
)


def _intersection_matrix(weights, edges):
    ids = sorted(weights)
    pos = {v: i for i, v in enumerate(ids)}
    m = [[0] * len(ids) for _ in ids]
    for v in ids:
        m[pos[v]][pos[v]] = weights[v]
    for a, b in edges:
        m[pos[a]][pos[b]] = 1
        m[pos[b]][pos[a]] = 1
    return m


def _random_int_matrix(rng, rows, cols, bound=6):
    return [[rng.randint(-bound, bound) for _ in range(cols)]
            for _ in range(rows)]


# --- inversion -----------------------------------------------------------------


def _inverse(a):
    """The Fraction view num / d of the fraction-free inverse; d is
    |det a|, positive."""
    num, d = invert_rational_matrix(a)
    assert d == abs(determinant(a)) > 0
    assert all(type(x) is int for row in num for x in row)
    return [[Fraction(x, d) for x in row] for row in num]


def test_invert_2x2():
    inv = _inverse([[-2, 1], [1, -2]])
    assert inv == [[Fraction(-2, 3), Fraction(-1, 3)],
                   [Fraction(-1, 3), Fraction(-2, 3)]]


def test_invert_identity():
    assert _inverse(identity_matrix(3)) == [
        [Fraction(int(i == j)) for j in range(3)] for i in range(3)]


def test_invert_h12_matches_reference_duals():
    m = _intersection_matrix(H12_WEIGHTS, TWO_NODE_EDGES)
    inv = _inverse(m)
    for v, row in H12_DUAL_ROWS.items():
        assert tuple(-x for x in inv[v - 1]) == row


def test_invert_singular():
    with pytest.raises(InternalError, match="matrix is singular"):
        invert_rational_matrix([[1, 2], [2, 4]])


def test_invert_times_original_is_identity():
    rng = random.Random(7)
    for _ in range(25):
        n = rng.randint(1, 5)
        a = _random_int_matrix(rng, n, n)
        if determinant(a) == 0:
            continue
        prod = mat_mul(_inverse(a), a)
        assert matrices_equal(prod, identity_matrix(n))


@st.composite
def _square_matrices(draw):
    """Integer matrices of size 1-8, dense or sparse; some start with zero
    leading pivots, so the elimination has to swap rows."""
    n = draw(st.integers(1, 8))
    entry = st.integers(-9, 9)
    if draw(st.booleans()):  # sparse
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    a = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for k in range(draw(st.integers(0, n - 1))):
        a[k][k] = 0
    return a


@given(_square_matrices())
def test_invert_matches_fraction_gauss_jordan(a):
    try:
        expected = invert_by_fractions(a)
    except InternalError as exc:
        assert str(exc) == "matrix is singular"
        with pytest.raises(InternalError, match="^matrix is singular$"):
            invert_rational_matrix(a)
        return
    assert _inverse(a) == expected


@pytest.mark.parametrize("entry", [Fraction(1, 2), Fraction(3)])
def test_invert_rejects_fraction_entries(entry):
    with pytest.raises(InternalError, match="integer entries"):
        invert_rational_matrix([[2, 1], [1, entry]])


# --- Smith normal form -----------------------------------------------------------


def test_snf_2x2():
    res = smith_normal_form([[-2, 1], [1, -2]])
    assert res.diagonal() == [1, 3]


def test_snf_already_diagonal():
    res = smith_normal_form([[2, 0], [0, 6]])
    assert res.diagonal() == [2, 6]


def test_snf_h12_invariant_factors():
    m = _intersection_matrix(H12_WEIGHTS, TWO_NODE_EDGES)
    res = smith_normal_form(m)
    assert res.diagonal() == [1] * 8 + [2, 6]
    prod = 1
    for d in res.diagonal():
        prod *= d
    assert prod == abs(determinant(m)) == 12


def _minor_gcd_oracle(a, k):
    """gcd of all k x k minors: an independent route to the SNF diagonal,
    since d_1 * ... * d_k equals this gcd."""
    from math import gcd

    rows = range(len(a))
    cols = range(len(a[0]))
    g = 0
    for rsel in itertools.combinations(rows, k):
        for csel in itertools.combinations(cols, k):
            sub = [[a[i][j] for j in csel] for i in rsel]
            g = gcd(g, determinant(sub))
    return g


def test_snf_random_matrices_against_minor_oracle():
    rng = random.Random(11)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = _random_int_matrix(rng, rows, cols)
        res = smith_normal_form(a)
        # transform identity and unimodularity
        assert matrices_equal(mat_mul(mat_mul(res.U, a), res.V), res.S)
        assert abs(determinant(res.U)) == 1
        assert abs(determinant(res.V)) == 1
        # off-diagonal zero, nonnegative divisibility chain
        diag = res.diagonal()
        for i, row in enumerate(res.S):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        for d, dn in zip(diag, diag[1:]):
            assert d >= 0 and dn >= 0
            if d == 0:
                assert dn == 0
            else:
                assert dn % d == 0
        # diagonal products match the gcds of minors
        prod = 1
        for k, d in enumerate(diag, start=1):
            prod *= d
            assert prod == _minor_gcd_oracle(a, k)


@st.composite
def _rectangular_matrices(draw):
    """Integer matrices of 1-6 rows and columns, dense or mostly zero."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.integers(-12, 12)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), entry)
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


@given(_rectangular_matrices())
def test_snf_log_replays_to_the_eager_transforms(a):
    """Eliminating on S alone and rebuilding U and V from the operation
    log gives exactly the triple of the elimination that tracks both
    transforms at every step."""
    res = smith_normal_form(a)
    assert (res.U, res.S, res.V) == eager_smith_normal_form(a)


# --- Hermite normal form ---------------------------------------------------------


def test_hnf_2x2():
    res = hermite_normal_form([[-2, 1], [1, -2]])
    assert res.H == [[1, 1], [0, 3]]


def test_hnf_identity():
    res = hermite_normal_form(identity_matrix(2))
    assert res.H == identity_matrix(2)


def test_hnf_h12_determinant():
    m = _intersection_matrix(H12_WEIGHTS, TWO_NODE_EDGES)
    res = hermite_normal_form(m)
    prod = 1
    for i in range(10):
        prod *= res.H[i][i]
    assert prod == 12
    assert matrices_equal(mat_mul(res.U, m), res.H)


def test_hnf_rank_deficient():
    with pytest.raises(InternalError, match="does not have full row rank"):
        hermite_normal_form([[1, 2], [2, 4]])
    with pytest.raises(InternalError, match="does not have full row rank"):
        hermite_normal_form([[1, 2], [0, 1], [1, 1]])  # 3 rows in rank 2


def test_hnf_rectangular():
    # a single row spans its own lattice; no unimodular op can divide it
    res = hermite_normal_form([[4, 6, 10]])
    assert res.H == [[4, 6, 10]] and res.U == [[1]]
    res = hermite_normal_form([[0, 2, 5], [0, 4, 4]])
    assert matrices_equal(mat_mul(res.U, [[0, 2, 5], [0, 4, 4]]), res.H)
    assert res.H[0][0] == 0 and res.H[0][1] > 0
    assert res.H[1][0] == 0 and res.H[1][1] == 0 and res.H[1][2] > 0


def test_hnf_canonical_and_matches_snf_det():
    rng = random.Random(13)
    checked = 0
    while checked < 30:
        n = rng.randint(1, 4)
        a = _random_int_matrix(rng, n, n)
        if determinant(a) == 0:
            continue
        checked += 1
        res = hermite_normal_form(a)
        assert matrices_equal(mat_mul(res.U, a), res.H)
        assert abs(determinant(res.U)) == 1
        hnf_det = 1
        for i in range(n):
            assert res.H[i][i] > 0
            for k in range(i):
                assert 0 <= res.H[k][i] < res.H[i][i]
            for k in range(i + 1, n):
                assert res.H[k][i] == 0
            hnf_det *= res.H[i][i]
        snf_det = 1
        for d in smith_normal_form(a).diagonal():
            snf_det *= d
        assert hnf_det == snf_det == abs(determinant(a))
        # canonical: re-reducing a canonical form is the identity
        assert hermite_normal_form(res.H).H == res.H


# --- negative definiteness --------------------------------------------------------


def test_negative_definite_examples():
    assert is_negative_definite([[-2, 1], [1, -2]])
    assert not is_negative_definite([[-1, 2], [2, -1]])
    assert is_negative_definite([[-1]])


def test_negative_definite_requires_symmetry():
    with pytest.raises(InternalError, match="matrix is not symmetric"):
        is_negative_definite([[-2, 1], [0, -2]])


def test_negative_definite_matches_minor_signs():
    rng = random.Random(17)
    for _ in range(60):
        n = rng.randint(1, 4)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.randint(-4, 1)
            for j in range(i + 1, n):
                a[i][j] = a[j][i] = rng.randint(-2, 2)
        expected = all(
            determinant([[-a[i][j] for j in range(k + 1)] for i in range(k + 1)]) > 0
            for k in range(n))
        assert is_negative_definite(a) == expected
