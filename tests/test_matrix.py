import hashlib
import json
import math
import random
import re
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st
from oracles import (
    all_ones,
    expansion_pfaffian,
    identity,
    leibniz_det,
    upper_ones,
    zeros,
)

from minorsum import (
    ZZ,
    QQ,
    IndexRangeError,
    IndexSet,
    IntegerRing,
    Matrix,
    Poly,
    PolynomialRing,
    RationalRing,
    RingMismatchError,
    ScalarParseError,
    ShapeError,
    SkewSymmetryError,
    augment_hat,
    check_cor7,
    det,
    det_bareiss,
    matrix_from_json_dict,
    matrix_to_json_dict,
    outer_product,
    pfaffian,
    pfaffian_bareiss,
    pfaffian_walk,
)
from minorsum.identities import _ones_less
from minorsum.matrix import (
    _form_rows,
    _running_sums,
    byun_determinant,
    det_minors,
    okada_pfaffian,
    require_skew,
    skew_form,
)


def rand_int_matrix(rng, m, n, bound=9):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def rand_skew(rng, n, bound=9):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(ZZ, rows)


def symbolic_skew(n, prefix="y"):
    names = [f"{prefix}{i}{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    ring = PolynomialRing(names)
    rows = [[ring.zero for _ in range(n)] for _ in range(n)]
    k = 0
    for i in range(n):
        for j in range(i + 1, n):
            g = ring.gen(names[k])
            k += 1
            rows[i][j] = g
            rows[j][i] = -g
    return ring, Matrix(ring, rows)


KERNEL_POLY = PolynomialRing(("a", "b"))


# -- construction and accessors -------------------------------------------


def test_construction_validation():
    with pytest.raises(ShapeError):
        Matrix(ZZ, [[1, 2], [3]])
    with pytest.raises(RingMismatchError):
        Matrix(ZZ, [[True]])
    with pytest.raises(ShapeError):
        Matrix(ZZ, [[1, 2]], ncols=3)
    empty = Matrix(ZZ, [], ncols=4)
    assert (empty.nrows, empty.ncols) == (0, 4)


def test_entry_row_column_one_based():
    # submatrix is the one public read, and its indices are 1-based
    M = Matrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert M.submatrix((1,), (1,)) == Matrix(ZZ, [[1]])
    assert M.submatrix((2,), (3,)) == Matrix(ZZ, [[6]])
    assert M.submatrix((2,), (1, 2, 3)) == Matrix(ZZ, [[4, 5, 6]])
    assert M.submatrix((1, 2), (2,)) == Matrix(ZZ, [[2], [5]])
    for bad in ((0, 1), (1, 0), (3, 1), (1, 4)):
        with pytest.raises(IndexRangeError):
            M.submatrix((bad[0],), (bad[1],))


def test_arithmetic_and_shape_checks():
    A = Matrix(ZZ, [[1, 2], [3, 4]])
    B = Matrix(ZZ, [[5, 6], [7, 8]])
    assert A + B == Matrix(ZZ, [[6, 8], [10, 12]])
    assert B - A == Matrix(ZZ, [[4, 4], [4, 4]])
    assert -A == Matrix(ZZ, [[-1, -2], [-3, -4]])
    assert A @ B == Matrix(ZZ, [[19, 22], [43, 50]])
    assert A.T == Matrix(ZZ, [[1, 3], [2, 4]])
    assert A.T.T == A
    with pytest.raises(ShapeError):
        A + Matrix(ZZ, [[1, 2]])
    with pytest.raises(ShapeError):
        A @ Matrix(ZZ, [[1, 2]])
    with pytest.raises(RingMismatchError):
        A + Matrix(QQ, [[1, 2], [3, 4]])


def test_matmul_generic_ring_path():
    ring = PolynomialRing(("a", "b"))
    a, b = ring.gens()
    M = Matrix(ring, [[a, b]])
    N = Matrix(ring, [[a], [b]])
    assert (M @ N)._rows == ((a * a + b * b,),)


@pytest.mark.parametrize("ring", [ZZ, QQ, KERNEL_POLY], ids=["int", "rat", "poly"])
def test_empty_inner_dimension_gives_the_rings_zero(ring):
    for m, n in ((1, 1), (2, 3), (0, 2), (3, 0)):
        product = Matrix(ring, [[]] * m, ncols=0) @ Matrix(ring, [], ncols=n)
        assert (product.nrows, product.ncols) == (m, n)
        assert product == zeros(ring, m, n)
        for row in product._rows:
            for x in row:
                assert type(x) is type(ring.zero) and x == ring.zero


@pytest.mark.parametrize("ring", [ZZ, QQ, KERNEL_POLY], ids=["int", "rat", "poly"])
def test_empty_pfaffian_and_determinant_are_the_rings_one(ring):
    empty = Matrix(ring, [], ncols=0)
    for kernel in (det, det_bareiss, det_minors, pfaffian, pfaffian_bareiss, pfaffian_walk):
        value = kernel(empty)
        assert type(value) is type(ring.one) and value == ring.one, kernel.__name__


def test_submatrix_and_selection():
    M = Matrix(ZZ, [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert M.submatrix((1, 3), (2, 3)) == Matrix(ZZ, [[2, 3], [8, 9]])
    assert M.submatrix(range(1, 4), IndexSet(3, (1, 3))) == Matrix(ZZ, [[1, 3], [4, 6], [7, 9]])
    assert M.submatrix((), ()) == Matrix(ZZ, [], ncols=0)


def test_structured_builders():
    assert upper_ones(3, ZZ) == Matrix(ZZ, [[0, 1, 1], [0, 0, 1], [0, 0, 0]])
    assert all_ones(2, ZZ) == Matrix(ZZ, [[1, 1], [1, 1]])
    assert identity(3, ZZ)._rows[1] == (0, 1, 0)


def test_augment_hat_and_outer_product():
    assert augment_hat(Matrix(ZZ, [[1, 2, 3]])) == Matrix(
        ZZ, [[1, 2, 3, 0], [0, 0, 0, 1]]
    )
    assert outer_product(ZZ, (1, 2), (3, 4)) == Matrix(ZZ, [[3, 4], [6, 8]])


def rank_one_rows(A, X, B):
    """AXB^t + B(J - X^t)A^t as the determinant sides of main1, ab and byun
    build it: _form_rows on the rows of A @ X, of B and of A."""
    return _form_rows(A.ring, (A @ X)._rows, B._rows, A._rows)


def assert_builders_match_literal_products(A, B, X):
    """The skew and rank-one builders against the products they stand for,
    at every site the checkers and the path routes build them."""
    ring, n = A.ring, A.ncols
    U, Id, J = upper_ones(n, ring), identity(n, ring), all_ones(n, ring)
    assert skew_form(A, X, B) == A @ X @ B.T - B @ X.T @ A.T
    assert rank_one_rows(A, X, B) == A @ X @ B.T + B @ (J - X.T) @ A.T
    assert rank_one_rows(A, U, A) == A @ (U + U + Id) @ A.T
    assert rank_one_rows(A, U + Id, B) == A @ U @ B.T + B @ U @ A.T + A @ B.T
    assert rank_one_rows(A, X, A) == A @ (X + J - X.T) @ A.T
    assert skew_form(A, X, A) == A @ (X - X.T) @ A.T


def test_skew_and_rank_one_forms_match_literal_products_int():
    rng = random.Random(2026)
    for m in range(1, 7):
        for n in range(1, 9):
            A, B = rand_int_matrix(rng, m, n), rand_int_matrix(rng, m, n)
            assert_builders_match_literal_products(A, B, rand_int_matrix(rng, n, n))


@pytest.mark.parametrize("m, n", [(2, 3), (3, 3)])
def test_skew_and_rank_one_forms_match_literal_products_poly(m, n):
    shapes = (("a", m, n), ("b", m, n), ("x", n, n))
    ring = PolynomialRing(tuple(
        f"{p}{i}_{j}" for p, r, c in shapes for i in range(r) for j in range(c)
    ))
    A, B, X = (
        Matrix(ring, [[ring.gen(f"{p}{i}_{j}") for j in range(c)] for i in range(r)])
        for p, r, c in shapes
    )
    assert_builders_match_literal_products(A, B, X)


def literal_forms(A, X, B):
    J = all_ones(X.ncols, A.ring)
    return A @ X @ B.T - B @ X.T @ A.T, A @ X @ B.T + B @ (J - X.T) @ A.T


def test_forms_raise_the_errors_of_the_literal_products():
    # the one-pass builders check what the products they replace checked
    rng = random.Random(191)
    A, B, X = rand_int_matrix(rng, 2, 3), rand_int_matrix(rng, 2, 3), rand_int_matrix(rng, 3, 3)
    for bad_X, bad_B in ((Matrix(QQ, X._rows), B), (X, Matrix(QQ, B._rows))):
        for build in (skew_form, literal_forms):
            with pytest.raises(RingMismatchError):
                build(A, bad_X, bad_B)
    shapes = {
        "non-square X": (rand_int_matrix(rng, 3, 2), B),
        "X of the wrong size": (rand_int_matrix(rng, 4, 4), B),
        "B of a different width": (X, rand_int_matrix(rng, 2, 4)),
        "B of a different height": (X, rand_int_matrix(rng, 3, 3)),
    }
    for name, (bad_X, bad_B) in shapes.items():
        for build in (skew_form, literal_forms):
            with pytest.raises(ShapeError):
                build(A, bad_X, bad_B)
                pytest.fail(f"{build.__name__} accepted a {name}")


def test_skew_form_checks_its_blocks():
    # skew_form checks the ring and the shape of its blocks itself, before
    # the unchecked _form_rows sees their rows
    A = Matrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ShapeError, match=r"cannot form AXB\^t from 2x3, 2x2 and 2x3 blocks"):
        skew_form(A, Matrix(ZZ, [[1, 0], [0, 1]]), A)
    with pytest.raises(RingMismatchError):
        skew_form(A, Matrix(QQ, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), A)


@pytest.mark.parametrize("ring", [ZZ, QQ, KERNEL_POLY], ids=["int", "rat", "poly"])
@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (2, 0), (3, 0)])
def test_empty_forms_equal_the_literal_products(ring, m, n):
    rng = random.Random(10 * m + n)
    A, B, X = (Matrix(ring, rand_int_matrix(rng, r, c)._rows, ncols=c)
               for r, c in ((m, n), (m, n), (n, n)))
    skew, rank_one = literal_forms(A, X, B)
    assert skew_form(A, X, B) == skew
    assert rank_one_rows(A, X, B) == rank_one
    assert (skew.nrows, skew.ncols, rank_one.nrows) == (m, m, m)


def rand_entries(rng, ring, r, c):
    """r x c entries of `ring`: integers, fractions, or linear polynomials
    in KERNEL_POLY's two variables."""
    if ring is QQ:
        return [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(c)]
                for _ in range(r)]
    if ring is KERNEL_POLY:
        a, b = ring.gens()
        return [[rng.randint(-3, 3) * a + rng.randint(-3, 3) * b + rng.randint(-3, 3)
                 for _ in range(c)] for _ in range(r)]
    return [[rng.randint(-9, 9) for _ in range(c)] for _ in range(r)]


@pytest.mark.parametrize("ring", [ZZ, QQ, KERNEL_POLY], ids=["int", "rat", "poly"])
def test_running_sums_are_the_products_with_U_and_Id(ring):
    # AU, A(U + Id) and A Id as running sums (or rows) give the forms the
    # dots against the 0/1 matrices give, and the pair route's H = B X^t at
    # X = U + Id, U^t, U and J - X are the dots they stand for; every row
    # has n sums of the ring's own type, none at n = 0
    rng = random.Random(29)
    zero = ring.zero
    for m in range(7):
        for n in range(9):
            A, B, X = (Matrix(ring, rand_entries(rng, ring, r, c), ncols=c)
                       for r, c in ((m, n), (m, n), (n, n)))
            U, Id, J = upper_ones(n, ring), identity(n, ring), all_ones(n, ring)
            sums = {(strict, backward): _running_sums(A._rows, zero, strict, backward)
                    for strict in (False, True) for backward in (False, True)}
            for rows in sums.values():
                assert [len(row) for row in rows] == [n] * m
                assert all(type(x) is type(zero) for row in rows for x in row)
            for AX, X01 in ((sums[True, False], U), (sums[False, False], U + Id), (A._rows, Id)):
                assert _form_rows(ring, AX, B._rows) == skew_form(A, X01, B)
                assert _form_rows(ring, AX, B._rows, A._rows) == rank_one_rows(A, X01, B)

            def dots(B, X):
                return [[ring.dot(b, x) for x in X._rows] for b in B._rows]

            assert _running_sums(B._rows, zero, backward=True) == dots(B, U + Id)
            assert _running_sums(B._rows, zero, strict=True) == dots(B, U.T)
            assert _running_sums(B._rows, zero, strict=True, backward=True) == dots(B, U)
            assert _ones_less(B, dots(B, X)) == dots(B, J - X)


def test_okada_and_byun_take_no_dot_against_U(monkeypatch):
    # the 12 off-diagonal entries of P = AUA^t, two per pair i < j, are all
    # the dots the two compressions of a 4 x 8 minor sum take: AU is running
    # sums, where dots against U took 32, and P's diagonal cancels
    calls, dot = [], IntegerRing.dot

    def counting(self, xs, ys):
        calls.append(1)
        return dot(self, xs, ys)

    monkeypatch.setattr(IntegerRing, "dot", counting)
    A = rand_int_matrix(random.Random(16), 4, 8)
    for compress_sum in (okada_pfaffian, byun_determinant):
        calls.clear()
        compress_sum(A)
        assert len(calls) == 12, compress_sum.__name__


# sha256 of every (lhs, rhs, details) of the check_cor7 reports below, on the
# tree that built cor7's two determinant sides apart, the rank-one form and
# the skew form each from its own products
COR7_REPORTS_SHA256 = "f9ce4a699b7c2a9e1fd6200e3e0ddd5e90aa3f3badbd7d94c36fdd5be058689c"


def test_cor7_reports_as_when_its_sides_were_built_apart():
    # the determinant side is now the skew side plus (A 1)(A 1)^t: the
    # reported values match the literal products and are unchanged
    rng = random.Random(959)
    reports = []
    for m in (2, 4, 6):
        for n in range(1, 9):
            A, X = rand_int_matrix(rng, m, n, bound=5), rand_int_matrix(rng, n, n, bound=5)
            rep = check_cor7(A, X)
            skew, rank_one = literal_forms(A, X, A)
            assert rep.passed
            assert rep.lhs == str(leibniz_det(rank_one._rows))
            assert rep.details["det_skew_part"] == str(leibniz_det(skew._rows))
            reports.append([rep.lhs, rep.rhs, rep.details])
    ring = PolynomialRing(("s", "t"))
    s, t = ring.gens()
    for m, n in ((2, 2), (2, 3), (4, 4)):
        A = Matrix(ring, [[rng.randint(-2, 2) * s + rng.randint(-2, 2) for _ in range(n)]
                          for _ in range(m)])
        X = Matrix(ring, [[rng.randint(-2, 2) * t for _ in range(n)] for _ in range(n)])
        rep = check_cor7(A, X)
        assert rep.passed
        reports.append([rep.lhs, rep.rhs, rep.details])
    blob = json.dumps(reports, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == COR7_REPORTS_SHA256


def test_require_skew_reports_where_skew_symmetry_fails():
    require_skew(Matrix(ZZ, [[0, 2], [-2, 0]]), "test")
    require_skew(Matrix(ZZ, [], ncols=0), "test")
    defects = {
        "Y + Y^t is nonzero at (1, 1)": [[1, 2], [-2, 0]],
        "Y + Y^t is nonzero at (1, 2)": [[0, 2], [2, 0]],
        "Y is 1x2, not square": [[0, 1]],
    }
    for defect, rows in defects.items():
        message = f"test needs a skew-symmetric matrix: {defect}"
        with pytest.raises(SkewSymmetryError, match=re.escape(message)):
            require_skew(Matrix(ZZ, rows), "test")


# -- determinants -----------------------------------------------------------


def test_det_small_frozen_values():
    assert det_minors(Matrix(ZZ, [], ncols=0)) == 1
    assert det_bareiss(Matrix(ZZ, [], ncols=0)) == 1
    assert det_minors(Matrix(ZZ, [[7]])) == 7
    assert det_minors(Matrix(ZZ, [[1, 1], [1, 2]])) == 1
    assert det_bareiss(identity(5, ZZ)) == 1
    assert det_bareiss(Matrix(ZZ, [[0, 1], [1, 0]])) == -1
    assert det_bareiss(Matrix(ZZ, [[2, 0, 1], [1, 1, 0], [0, 3, 1]])) == 5


def test_det_requires_square():
    with pytest.raises(ShapeError):
        det_minors(Matrix(ZZ, [[1, 2]]))
    with pytest.raises(ShapeError):
        det_bareiss(Matrix(ZZ, [[1, 2]]))
    for ring in (ZZ, KERNEL_POLY):
        with pytest.raises(ShapeError):
            det(Matrix(ring, [[1, 2]]))


def test_bareiss_matches_cofactor_random_int():
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 6)
        M = rand_int_matrix(rng, n, n, bound=6)
        assert det_bareiss(M) == leibniz_det(M._rows)


def test_bareiss_matches_cofactor_singular_heavy():
    # duplicated rows/columns force zero pivots somewhere in elimination
    rng = random.Random(12)
    for _ in range(80):
        n = rng.randint(2, 6)
        M = rand_int_matrix(rng, n, n, bound=3)
        rows = [list(r) for r in M._rows]
        i, j = rng.sample(range(n), 2)
        rows[i] = rows[j][:]
        S = Matrix(ZZ, rows)
        assert det_bareiss(S) == 0
        assert leibniz_det(S._rows) == 0
    col0 = Matrix(ZZ, [[0, 5], [0, 7]])
    assert det_bareiss(col0) == 0


def test_bareiss_exhausted_pivot_column_is_zero_without_cofactor():
    rng = random.Random(16)
    # zero first column; the cofactor expansion of this 11x11 took seconds
    rows = [[0] + [rng.randint(1, 9) for _ in range(10)] for _ in range(11)]
    assert det_bareiss(Matrix(ZZ, rows)) == 0
    # third column = first + second: exhausted after two elimination steps
    rows = [[u, v, u + v, w] for u, v, w in ([1, 2, 5], [3, -1, 2], [0, 4, 1], [2, 2, 7])]
    assert det_bareiss(Matrix(ZZ, rows)) == 0
    ring = PolynomialRing(("a", "b"))
    a, b = ring.gens()
    S = Matrix(ring, [[a, a * b, ring.one], [b, b * b, a], [ring.one, b, b]])
    assert det_bareiss(S) == ring.zero


def test_bareiss_matches_cofactor_polynomial():
    ring = PolynomialRing(("a", "b", "c", "d"))
    a, b, c, d = ring.gens()
    rng = random.Random(13)
    pool = [a, b, c, d, a + b, c - d, ring.one, ring.zero, a * b - 1]
    for _ in range(25):
        n = rng.randint(1, 4)
        M = Matrix(ring, [[pool[rng.randrange(len(pool))] for _ in range(n)] for _ in range(n)])
        assert det_bareiss(M) == leibniz_det(M._rows)
    # singular symbolic: repeated row
    S = Matrix(ring, [[a, b], [a, b]])
    assert det_bareiss(S) == ring.zero


def test_det_rational_entries():
    M = Matrix(QQ, [[Fraction(1, 2), 1], [1, Fraction(2, 3)]])
    assert det_bareiss(M) == Fraction(1, 3) - 1
    assert leibniz_det(M._rows) == det_bareiss(M)


def test_det_row_swap_antisymmetry():
    rng = random.Random(14)
    for _ in range(40):
        n = rng.randint(2, 5)
        M = rand_int_matrix(rng, n, n)
        rows = [list(r) for r in M._rows]
        i, j = rng.sample(range(n), 2)
        rows[i], rows[j] = rows[j], rows[i]
        S = Matrix(ZZ, rows)
        assert det_bareiss(S) == -det_bareiss(M)
        assert leibniz_det(S._rows) == -leibniz_det(M._rows)


def test_det_transpose_invariance():
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(1, 5)
        M = rand_int_matrix(rng, n, n)
        assert det_bareiss(M.T) == det_bareiss(M)


# -- the memoised-minor kernel, always against the permutation sum -----------


def generic_matrix(n):
    ring = PolynomialRing([f"x{i}_{j}" for i in range(n) for j in range(n)])
    gens = ring.gens()
    return Matrix(ring, [[gens[i * n + j] for j in range(n)] for i in range(n)], ncols=n)


DENSE_POLY = PolynomialRing(("a", "b", "c", "d"))


def rand_dense_poly(rng):
    a, b, c, d = DENSE_POLY.gens()
    pool = [a, b, c, d, a + b, c - d, a * b - 1, 2 * c * d + a, DENSE_POLY.one]
    return pool[rng.randrange(len(pool))] * pool[rng.randrange(len(pool))]


@pytest.mark.parametrize("n", range(6))
def test_det_minors_generic_matches_cofactor(n):
    M = generic_matrix(n)
    assert det(M) == leibniz_det(M._rows)
    rng = random.Random(100 + n)
    N = Matrix(DENSE_POLY, [[rand_dense_poly(rng) for _ in range(n)] for _ in range(n)], ncols=n)
    assert det(N) == leibniz_det(N._rows)


def test_det_minors_sparse_and_singular_poly():
    rng = random.Random(19)
    zero = DENSE_POLY.zero
    for n in (2, 3, 4, 5):
        rows = [[rand_dense_poly(rng) for _ in range(n)] for _ in range(n)]
        i, j = rng.sample(range(n), 2)
        zero_row = [r[:] for r in rows]
        zero_row[i] = [zero] * n
        zero_col = [[zero if k == j else x for k, x in enumerate(r)] for r in rows]
        equal_rows = [r[:] for r in rows]
        equal_rows[i] = rows[j][:]
        u = [rand_dense_poly(rng) for _ in range(n)]
        v = [rand_dense_poly(rng) for _ in range(n)]
        rank_one = outer_product(DENSE_POLY, u, v)
        for S in (zero_row, zero_col, equal_rows):
            S = Matrix(DENSE_POLY, S)
            assert det(S) == leibniz_det(S._rows) == zero
        assert det(rank_one) == leibniz_det(rank_one._rows) == zero
        # sparse but nonsingular: a permuted diagonal with one filled row
        perm = rng.sample(range(n), n)
        P = [[zero] * n for _ in range(n)]
        for r, col in enumerate(perm):
            P[r][col] = rand_dense_poly(rng)
        P[0] = [rand_dense_poly(rng) for _ in range(n)]
        P = Matrix(DENSE_POLY, P)
        assert det(P) == leibniz_det(P._rows)


@st.composite
def sparse_poly_matrix(draw):
    n = draw(st.integers(0, 5))
    a, b = KERNEL_POLY.gens()
    # about half the entries are zero, so minors vanish and get dropped
    pool = [KERNEL_POLY.zero, KERNEL_POLY.zero, KERNEL_POLY.one, a, b, a - b, a * b + 2, -3 * a * a]
    entry = st.sampled_from(pool)
    return Matrix(KERNEL_POLY, [[draw(entry) for _ in range(n)] for _ in range(n)], ncols=n)


@settings(max_examples=300, deadline=None)
@given(sparse_poly_matrix())
def test_det_minors_matches_cofactor_on_sparse_poly(M):
    assert det(M) == leibniz_det(M._rows)


def test_det_is_division_free_on_poly(monkeypatch):
    def refuse(*args):
        raise AssertionError("det divided a polynomial")

    rng = random.Random(20)
    cases = [generic_matrix(4)]
    for n in (2, 3, 4):
        cases.append(
            Matrix(DENSE_POLY, [[rand_dense_poly(rng) for _ in range(n)] for _ in range(n)])
        )
    expected = [leibniz_det(M._rows) for M in cases]
    monkeypatch.setattr(PolynomialRing, "exact_divide", refuse)
    monkeypatch.setattr(Poly, "exact_div", refuse)
    with pytest.raises(AssertionError):
        det_bareiss(cases[0])
    assert [det(M) for M in cases] == expected


def test_det_uses_bareiss_on_int_and_fraction(monkeypatch):
    import minorsum.matrix

    rng = random.Random(21)
    cases = [Matrix(ZZ, [], ncols=0)]
    for n in range(1, 8):
        cases.append(rand_int_matrix(rng, n, n))
        cases.append(
            Matrix(QQ, [[Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)])
        )

    def refuse(M):
        raise AssertionError("det ran the polynomial kernel on numbers")

    monkeypatch.setattr(minorsum.matrix, "det_minors", refuse)
    for M in cases:
        assert det(M) == det_bareiss(M)


def test_one_row_step_serves_polynomial_det_and_the_closed_forms(monkeypatch):
    # _extend_minors is the one memoised row expansion: det_minors folds it
    # over the rows, the closed-forms check runs it over a trie of row sets,
    # and integer det never reaches it
    import minorsum.identities
    import minorsum.matrix
    from minorsum.identities import check_closed_forms

    real = minorsum.matrix._extend_minors
    calls = []

    def counted(*args):
        calls.append(1)
        return real(*args)

    for module in (minorsum.matrix, minorsum.identities):
        monkeypatch.setattr(module, "_extend_minors", counted)
    ring, Y = symbolic_skew(4)
    assert det(Y) == leibniz_det(Y._rows)
    assert len(calls) == 4
    calls.clear()
    assert check_closed_forms(ZZ, [2, 0, -1]).passed
    assert calls
    calls.clear()
    assert det(Matrix(ZZ, [[1, 2], [3, 4]])) == -2
    assert not calls


# -- pfaffians ---------------------------------------------------------------


def test_pfaffian_empty_and_2x2():
    assert pfaffian_walk(Matrix(ZZ, [], ncols=0)) == 1
    assert pfaffian_bareiss(Matrix(ZZ, [], ncols=0)) == 1
    assert pfaffian_walk(Matrix(ZZ, [[0, 5], [-5, 0]])) == 5
    ring, Y = symbolic_skew(2)
    assert ring.format(pfaffian_bareiss(Y)) == "y12"


def test_pfaffian_4x4_symbolic_formula():
    ring, Y = symbolic_skew(4)
    g = ring.gen
    expect = g("y12") * g("y34") - g("y13") * g("y24") + g("y14") * g("y23")
    assert expansion_pfaffian(Y._rows) == expect
    assert pfaffian_walk(Y) == expect
    assert pfaffian_bareiss(Y) == expect


def test_pfaffian_input_validation():
    with pytest.raises(SkewSymmetryError):
        pfaffian_walk(Matrix(ZZ, [[0]]))
    with pytest.raises(SkewSymmetryError):
        pfaffian_bareiss(Matrix(ZZ, [[0, 1], [1, 0]]))
    with pytest.raises(ShapeError):
        pfaffian_walk(Matrix(ZZ, [[0, 1]]))


def test_pfaffian_two_algorithms_agree_up_to_10():
    rng = random.Random(16)
    for n in range(0, 11, 2):
        for _ in range(12):
            Y = rand_skew(rng, n)
            assert expansion_pfaffian(Y._rows) == pfaffian_bareiss(Y)


def test_pfaffian_square_is_determinant():
    rng = random.Random(17)
    for n in range(0, 9, 2):
        for _ in range(12):
            Y = rand_skew(rng, n)
            pf = pfaffian_bareiss(Y)
            assert pf * pf == det_bareiss(Y)


def skew_from_pairs(n, values):
    """n x n skew matrix with Y[i][j] = v, Y[j][i] = -v for (i, j) -> v
    (0-based), zero elsewhere."""
    rows = [[0] * n for _ in range(n)]
    for (i, j), v in values.items():
        rows[i][j] = v
        rows[j][i] = -v
    return Matrix(ZZ, rows)


def pair_form(n):
    """J = diag([[0, 1], [-1, 0]], ...), with Pf(J) = 1."""
    return skew_from_pairs(n, {(i, i + 1): 1 for i in range(0, n, 2)})


def test_pfaffian_bareiss_pivot_swaps():
    # y12 = 0: one swap (index 2 with 3), Pf = -y13 y24 + y14 y23
    Y = skew_from_pairs(4, {(0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5})
    assert pfaffian_bareiss(Y) == 2 == expansion_pfaffian(Y._rows)
    # the matching {1,6}, {2,4}, {3,5}, with one crossing: a swap with the
    # last index, then a second swap at the next step
    Y = skew_from_pairs(6, {(0, 5): 2, (1, 3): 3, (2, 4): 5})
    assert pfaffian_bareiss(Y) == -30 == expansion_pfaffian(Y._rows)
    # {1,8}, {2,3}, {4,6}, {5,7}: three swaps, two of them with the last
    # index, so a dropped swap sign shows
    Y = skew_from_pairs(8, {(0, 7): 2, (1, 2): 3, (3, 5): 5, (4, 6): 7})
    assert pfaffian_bareiss(Y) == -210 == expansion_pfaffian(Y._rows)
    # a pivot row with no nonzero entry at the first step
    Y = skew_from_pairs(6, {(1, 2): 1, (3, 4): 1, (2, 5): 1})
    assert pfaffian_bareiss(Y) == 0 == expansion_pfaffian(Y._rows)


def test_pfaffian_bareiss_zero_row_at_a_later_step():
    # row 3 of M is the sum of rows 1 and 2, so in Y = M J M^t the
    # sub-Pfaffians Pf(Y[1, 2, 3, x]) all vanish: the reduced matrix has a
    # zero row at the second step although no row of Y is zero, and one
    # more elimination step would follow it
    rng = random.Random(19)
    n = 8
    rows = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    rows[2] = [x + y for x, y in zip(rows[0], rows[1])]
    M = Matrix(ZZ, rows)
    Y = M @ pair_form(n) @ M.T
    assert Y._rows[0][1] != 0
    assert all(any(r) for r in Y._rows)
    assert pfaffian_bareiss(Y) == 0 == expansion_pfaffian(Y._rows)


@pytest.mark.parametrize(
    "ring, x",
    [(ZZ, -7), (QQ, Fraction(-7, 2)), (KERNEL_POLY, KERNEL_POLY.gen("a") - 3)],
    ids=["int", "rat", "poly"],
)
def test_pfaffian_bareiss_sizes_0_and_2(ring, x):
    assert pfaffian_bareiss(Matrix(ring, [], ncols=0)) == ring.one
    assert pfaffian_bareiss(Matrix(ring, [[0, x], [-x, 0]])) == x
    assert pfaffian_bareiss(Matrix(ring, [[0, 0], [0, 0]])) == ring.zero


def test_pfaffian_bareiss_generic_6x6():
    ring, Y = symbolic_skew(6)
    assert pfaffian_bareiss(Y) == expansion_pfaffian(Y._rows)


@st.composite
def sparse_skew(draw):
    n = draw(st.sampled_from((0, 2, 4, 6, 8)))
    # about two entries in three are zero, so pivots vanish and swaps happen
    entry = st.one_of(st.just(0), st.just(0), st.integers(-4, 4))
    values = {(i, j): draw(entry) for i in range(n) for j in range(i + 1, n)}
    return skew_from_pairs(n, values)


@settings(max_examples=300, deadline=None)
@given(sparse_skew())
def test_pfaffian_bareiss_matches_definition_on_sparse_matrices(Y):
    assert pfaffian_bareiss(Y) == expansion_pfaffian(Y._rows)


@pytest.mark.parametrize("n", [40, 60])
def test_pfaffian_bareiss_large_congruence(n):
    # Pf(M J M^t) = det(M) Pf(J) = det(M)
    rng = random.Random(n)
    M = rand_int_matrix(rng, n, n, bound=3)
    assert pfaffian_bareiss(M @ pair_form(n) @ M.T) == det_bareiss(M)


def test_odd_skew_determinant_vanishes():
    rng = random.Random(18)
    for n in (3, 5, 7):
        for _ in range(10):
            Y = rand_skew(rng, n)
            assert det_bareiss(Y) == 0
            assert leibniz_det(Y._rows) == 0


# -- every kernel is one loop for every ring ----------------------------------

def rand_element(rng, ring):
    k = rng.randint(-3, 3)
    if ring == QQ:
        return Fraction(k, rng.randint(1, 3))
    if ring == KERNEL_POLY:
        a, b = ring.gens()
        return rng.choice([k * ring.one, k * a, a - b, a * b + k, ring.zero])
    return k


@pytest.mark.parametrize("ring", [ZZ, QQ, KERNEL_POLY], ids=["int", "rat", "poly"])
def test_kernels_agree_over_every_ring(ring):
    rng = random.Random(17)
    for _ in range(25):
        n = rng.randint(1, 5)
        M = Matrix(ring, [[rand_element(rng, ring) for _ in range(n)] for _ in range(n)])
        assert leibniz_det(M._rows) == det_bareiss(M) == det_minors(M)
        k = rng.randint(0, 3)
        N = Matrix(
            ring, [[rand_element(rng, ring) for _ in range(k)] for _ in range(n)], ncols=k
        )
        expect = [[ring.zero] * k for _ in range(n)]
        for i in range(n):
            for j in range(k):
                for t in range(n):
                    expect[i][j] = expect[i][j] + M._rows[i][t] * N._rows[t][j]
        assert M @ N == Matrix(ring, expect, ncols=k)
    for _ in range(15):
        n = 2 * rng.randint(0, 3)
        rows = [[ring.zero] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                rows[i][j] = rand_element(rng, ring)
                rows[j][i] = -rows[i][j]
        Y = Matrix(ring, rows, ncols=n)
        assert pfaffian_bareiss(Y) == expansion_pfaffian(Y._rows)
    # `not x` is the zero test of every kernel: false only for zero
    for _ in range(40):
        x = rand_element(rng, ring)
        assert bool(x) == (x != ring.zero)
    assert not (ring.one * 2 - ring.one - ring.one)


# -- one Pfaffian entry point, two kernels ------------------------------------

PFAFFIAN_KERNELS = (pfaffian, pfaffian_bareiss, pfaffian_walk)
RINGS = [ZZ, QQ, KERNEL_POLY]
RING_IDS = ["int", "rat", "poly"]


def rand_skew_over(rng, ring, n):
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            rows[i][j] = rand_element(rng, ring)
            rows[j][i] = -rows[i][j]
    return Matrix(ring, rows, ncols=n)


def zero_pivot_cases():
    """Skew matrices whose elimination meets zero pivots: swaps with a later
    index, a pivot row with no nonzero entry, and a zero row that appears
    only at a later step."""
    cases = [
        skew_from_pairs(4, {(0, 2): 1, (0, 3): 2, (1, 2): 3, (1, 3): 4, (2, 3): 5}),
        skew_from_pairs(6, {(0, 5): 2, (1, 3): 3, (2, 4): 5}),
        skew_from_pairs(8, {(0, 7): 2, (1, 2): 3, (3, 5): 5, (4, 6): 7}),
        skew_from_pairs(6, {(1, 2): 1, (3, 4): 1, (2, 5): 1}),
    ]
    rng = random.Random(19)
    rows = [[rng.randint(-4, 4) for _ in range(8)] for _ in range(8)]
    rows[2] = [x + y for x, y in zip(rows[0], rows[1])]
    M = Matrix(ZZ, rows)
    cases.append(M @ pair_form(8) @ M.T)
    return cases


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
def test_pfaffian_kernels_agree_over_every_ring_up_to_10(ring):
    rng = random.Random(31)
    for n in range(0, 11, 2):
        for _ in range(6 if n < 8 else 2):
            Y = rand_skew_over(rng, ring, n)
            expect = expansion_pfaffian(Y._rows)
            assert pfaffian(Y) == expect
            assert pfaffian_bareiss(Y) == expect
            assert pfaffian_walk(Y) == expect
    for Y in zero_pivot_cases():
        Y = Matrix(ring, Y._rows)
        expect = expansion_pfaffian(Y._rows)
        assert pfaffian(Y) == pfaffian_bareiss(Y) == pfaffian_walk(Y) == expect


def test_pfaffian_walk_generic_and_empty():
    for n in (2, 4, 6):
        ring, Y = symbolic_skew(n)
        assert pfaffian_walk(Y) == expansion_pfaffian(Y._rows)
    assert pfaffian_walk(Matrix(ZZ, [], ncols=0)) == 1
    assert pfaffian_walk(Matrix(ZZ, [[0, 0], [0, 0]])) == 0


@pytest.mark.parametrize("kernel", PFAFFIAN_KERNELS, ids=lambda k: k.__name__)
def test_pfaffian_kernels_reject_odd_size_and_non_skew(kernel):
    with pytest.raises(SkewSymmetryError):
        kernel(Matrix(ZZ, [[0]]))
    with pytest.raises(SkewSymmetryError):
        kernel(Matrix(ZZ, [[0, 1, 2], [-1, 0, 3], [-2, -3, 0]]))
    with pytest.raises(SkewSymmetryError):
        kernel(Matrix(ZZ, [[0, 1], [1, 0]]))
    with pytest.raises(SkewSymmetryError):
        kernel(Matrix(ZZ, [[1, 1], [-1, 0]]))
    with pytest.raises(ShapeError):
        kernel(Matrix(ZZ, [[0, 1]]))


def test_pfaffian_picks_its_kernel_by_ring_and_order(monkeypatch):
    import minorsum.matrix

    ran = []
    for name in ("pfaffian_bareiss", "pfaffian_walk"):
        monkeypatch.setattr(minorsum.matrix, name, lambda Y, name=name: ran.append(name))
    limit = minorsum.matrix.PFAFFIAN_WALK_MAX_ORDER
    for n in (2, limit, limit + 2):
        for ring in RINGS:
            pfaffian(Matrix(ring, pair_form(n)._rows))
    assert ran == ["pfaffian_bareiss", "pfaffian_bareiss", "pfaffian_walk"] * 2 + [
        "pfaffian_bareiss"] * 3


def test_pfaffian_of_a_large_polynomial_matrix_is_prompt():
    # the walk's states grow exponentially with the order (about 31 s at
    # order 30 with constant entries), so large orders go to the elimination
    rng = random.Random(35)
    ring = PolynomialRing(("x",))
    x = ring.gens()[0]
    Y = rand_skew_over(rng, ZZ, 30)
    poly = Matrix(ring, [[v * x for v in row] for row in Y._rows])
    start = time.perf_counter()
    assert pfaffian(poly) == pfaffian_bareiss(Y) * x ** 15
    assert time.perf_counter() - start < 5


def test_pfaffian_walk_on_sparse_large_matrices_is_prompt():
    # the expansion visits only the minors it reaches, one chain of sets on
    # a tridiagonal or block-diagonal Y, and keeps them on its own stack;
    # Pf(J) = 1 is the reference for J, whose elimination takes over a
    # second at order 400
    tri = skew_from_pairs(40, {(i, i + 1): i + 1 for i in range(39)})
    blocks = [pair_form(n) for n in (400, 2400)]
    start = time.perf_counter()
    assert pfaffian_walk(tri) == pfaffian_bareiss(tri) == math.prod(range(1, 40, 2))
    assert [pfaffian_walk(J) for J in blocks] == [1, 1]
    assert time.perf_counter() - start < 1


def test_no_pfaffian_kernel_calls_a_determinant(monkeypatch):
    import minorsum.matrix

    rng = random.Random(33)
    cases = [rand_skew_over(rng, ring, 6) for ring in RINGS]
    expected = [expansion_pfaffian(Y._rows) for Y in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("a Pfaffian kernel called a determinant")

    for name in ("det", "det_bareiss", "det_minors"):
        monkeypatch.setattr(minorsum.matrix, name, refuse)
    for Y, expect in zip(cases, expected):
        for kernel in PFAFFIAN_KERNELS:
            assert kernel(Y) == expect


def test_pfaffian_walk_divides_nothing(monkeypatch):
    rng = random.Random(34)
    cases = [rand_skew_over(rng, ring, 8) for ring in RINGS]
    _, generic = symbolic_skew(6)
    cases.append(generic)
    expected = [expansion_pfaffian(Y._rows) for Y in cases]

    def refuse(*args):
        raise AssertionError("the walk divided")

    monkeypatch.setattr(IntegerRing, "exact_divide", refuse)
    monkeypatch.setattr(RationalRing, "exact_divide", refuse)
    monkeypatch.setattr(PolynomialRing, "exact_divide", refuse)
    monkeypatch.setattr(Poly, "exact_div", refuse)
    assert [pfaffian_walk(Y) for Y in cases] == expected
    assert pfaffian(generic) == expected[-1]


# -- JSON interchange ---------------------------------------------------------


def test_json_round_trip_int_rat_poly():
    M = Matrix(ZZ, [[1, -2], [3, 4]])
    assert matrix_from_json_dict(matrix_to_json_dict(M)) == M
    Q = Matrix(QQ, [[Fraction(1, 3), 2]])
    assert matrix_from_json_dict(matrix_to_json_dict(Q)) == Q
    ring, Y = symbolic_skew(3)
    assert matrix_from_json_dict(matrix_to_json_dict(Y)) == Y


def test_only_outside_input_is_coerced(monkeypatch):
    # the builders wrap ring elements they made themselves; a JSON matrix
    # coerces each of its non-text entries once
    from minorsum.identities import ones_above_diagonal, strict_upper_part
    from minorsum.paths import PathProblem, lindstrom_matrix
    from minorsum.symfun import _h_matrix, _h_table, _jacobi_trudi

    poly = PolynomialRing(("s", "t"))
    s, t = poly.gens()
    h = _h_table(poly, 4, (s, t))
    _, Y = symbolic_skew(4)
    problem = PathProblem(starts=((0, 0), (1, -1)), candidate_ends=((2, 2), (3, 1), (4, 0)))
    entries = [[1, 0, "-2*s"], [3, 4, 5]]
    expect = Matrix(poly, [[1, 0, -2 * s], [3, 4, 5]])
    calls = []

    def counting(coerce):
        def wrapper(self, x):
            calls.append(x)
            return coerce(self, x)
        return wrapper

    for cls in (IntegerRing, PolynomialRing):
        monkeypatch.setattr(cls, "coerce", counting(cls.coerce))
    builds = [
        lambda: ones_above_diagonal(poly, (s, t, s)),
        lambda: strict_upper_part(Y),
        lambda: _form_rows(Y.ring, _running_sums(Y._rows, Y.ring.zero), Y._rows, Y._rows),
        lambda: _h_matrix(poly, h, 2, 4),
        lambda: _jacobi_trudi(poly, (2, 1), (0, 0), h),
        lambda: lindstrom_matrix(problem),
    ]
    for build in builds:
        build()
        assert calls == []
    obj = {"ring": poly.to_json_tag(), "rows": 2, "cols": 3, "entries": entries}
    assert matrix_from_json_dict(obj) == expect
    assert calls == [1, 0, 3, 4, 5]


def test_json_errors():
    with pytest.raises(ShapeError):
        matrix_from_json_dict({"ring": "int"})
    with pytest.raises(ShapeError):
        matrix_from_json_dict(
            {"ring": "int", "rows": 2, "cols": 1, "entries": [[1]]}
        )
    with pytest.raises(ScalarParseError):
        matrix_from_json_dict(
            {"ring": "complex", "rows": 1, "cols": 1, "entries": [[1]]}
        )
