import itertools
import math
import random
import time

import pytest
from oracles import expansion_pfaffian, leibniz_det

from minorsum import (
    ZZ,
    IDENTITY_IDS,
    IndexRangeError,
    IndexSet,
    Matrix,
    ParityError,
    PolynomialRing,
    RingMismatchError,
    ShapeError,
    SkewSymmetryError,
    check_ab,
    check_ab2,
    check_byun,
    check_cauchy_binet_pf,
    check_closed_forms,
    check_cor7,
    check_det_pf_square,
    check_iswa,
    check_lemma_aux,
    check_lemma_iswa,
    check_main1,
    check_main2,
    check_okada,
    check_rank1,
    f_AB,
    g_AB,
    minor_sum,
    sign_from_binom2,
    x1_closed_form,
    x2_closed_form,
)
from minorsum import identities
from minorsum.identities import input_digest, ones_above_diagonal
from minorsum.matrix import identity, pfaffian, pfaffian_bareiss, upper_ones

GOLDEN = Matrix(ZZ, [[1, 1, 1], [1, 2, 3]])


def rand_int_matrix(rng, m, n, bound=5):
    return Matrix(ZZ, [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)])


def rand_skew(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(ZZ, rows)


def generic_matrices(shapes):
    """Matrices of distinct indeterminates, one shared ring.

    shapes: dict name -> (m, n); returns (ring, {name: Matrix}).
    """
    names = []
    for label, (m, n) in shapes.items():
        names.extend(f"{label}{i}_{j}" for i in range(1, m + 1) for j in range(1, n + 1))
    ring = PolynomialRing(names)
    mats = {}
    for label, (m, n) in shapes.items():
        mats[label] = Matrix(
            ring,
            [[ring.gen(f"{label}{i}_{j}") for j in range(1, n + 1)] for i in range(1, m + 1)],
        )
    return ring, mats


def generic_skew(n, extra=()):
    names = [f"y{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    vec_names = [f"{p}{i}" for p in extra for i in range(1, n + 1)]
    ring = PolynomialRing(names + vec_names)
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = ring.gen(f"y{i}_{j}")
            rows[i - 1][j - 1] = g
            rows[j - 1][i - 1] = -g
    vectors = {p: [ring.gen(f"{p}{i}") for i in range(1, n + 1)] for p in extra}
    return ring, Matrix(ring, rows), vectors


# -- shared helpers -----------------------------------------------------------


def test_identity_ids_are_stable():
    assert IDENTITY_IDS == (
        "okada",
        "byun",
        "main1",
        "main2",
        "rank1",
        "lemma-aux",
        "iswa",
        "lemma-iswa",
        "ab",
        "ab2",
        "cor7",
        "closed-forms",
        "det-pf-square",
        "cauchy-binet-pf",
    )


def test_sign_from_binom2():
    for k in range(25):
        assert sign_from_binom2(k) == (-1) ** math.comb(k, 2)


def test_input_digest_is_stable_and_sensitive():
    a = input_digest({"x": 1, "y": [2, 3]})
    assert a == input_digest({"y": [2, 3], "x": 1})
    assert len(a) == 16
    assert int(a, 16) >= 0
    assert a != input_digest({"x": 1, "y": [2, 4]})


def test_minor_sum_values():
    assert minor_sum(GOLDEN) == 4
    assert minor_sum(identity(4, ZZ)) == 1
    # wide sum: 1x3 matrix sums its entries
    assert minor_sum(Matrix(ZZ, [[1, 2, 3]])) == 6
    # more rows than columns: empty sum
    assert minor_sum(Matrix(ZZ, [[1], [2]])) == 0


def test_f_AB_values_and_errors():
    ring, mats = generic_matrices({"x": (2, 2)})
    X = mats["x"]
    I2 = identity(2, ring)
    val = f_AB(I2, I2, X)
    assert ring.format(val) == "x1_2 - x2_1"
    with pytest.raises(ParityError):
        f_AB(Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        f_AB(Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[1, 2]]), Matrix(ZZ, [[1]]))
    with pytest.raises(RingMismatchError):
        f_AB(identity(2, ZZ), identity(2, ZZ), Matrix(ring, [[X.entry(1, 1), X.entry(1, 2)], [X.entry(2, 1), X.entry(2, 2)]]))


def test_f_AB_zero_X_vanishes():
    A = Matrix(ZZ, [[1, 2, 3], [4, 5, 6]])
    assert f_AB(A, A, Matrix.zeros(ZZ, 3, 3)) == 0


def test_g_AB_m1_is_row_sum_pairing():
    # m=1: only the empty J, so g is the sum of A's entries times nothing of B
    A = Matrix(ZZ, [[3, 4]])
    B = Matrix(ZZ, [[9, 9]])
    X = Matrix(ZZ, [[0, 7], [1, 2]])
    assert g_AB(A, B, X) == 7
    with pytest.raises(ParityError):
        g_AB(Matrix(ZZ, [[1, 0], [0, 1]]), Matrix(ZZ, [[1, 0], [0, 1]]), Matrix(ZZ, [[1, 0], [0, 1]]))


# -- okada / byun -------------------------------------------------------------


def test_okada_golden_case():
    rep = check_okada(GOLDEN)
    assert rep.passed
    assert rep.lhs == "4"
    assert rep.rhs == "4"
    assert rep.identity_id == "okada"


def test_okada_identity_matrix():
    rep = check_okada(identity(4, ZZ))
    assert rep.passed and rep.lhs == "1"


def test_okada_odd_m_augmentation():
    rep = check_okada(Matrix(ZZ, [[1, 2, 3]]))
    assert rep.passed
    assert rep.lhs == "6"
    assert rep.details["unaugmented_minor_sum"] == "6"


def test_okada_overdetermined_is_zero_zero():
    rep = check_okada(Matrix(ZZ, [[1], [2]]))
    assert rep.passed
    assert rep.details["overdetermined"] is True
    assert rep.lhs == "0" and rep.rhs == "0"


def test_byun_golden_case():
    rep = check_byun(GOLDEN)
    assert rep.passed
    assert rep.lhs == "16" and rep.rhs == "16"
    assert rep.details["minor_sum"] == "4"


def test_byun_zero_matrix():
    rep = check_byun(Matrix.zeros(ZZ, 2, 3))
    assert rep.passed and rep.lhs == "0"


def test_okada_byun_random_sweep():
    rng = random.Random(21)
    for _ in range(30):
        m = rng.randint(1, 4)
        n = rng.randint(1, 6)
        A = rand_int_matrix(rng, m, n)
        assert check_okada(A).passed
        assert check_byun(A).passed


# -- main theorems ------------------------------------------------------------


def test_main1_fully_symbolic_2x2():
    ring, mats = generic_matrices({"a": (2, 2), "b": (2, 2), "x": (2, 2)})
    rep = check_main1(mats["a"], mats["b"], mats["x"])
    assert rep.passed


def test_main1_odd_symbolic_1x2():
    ring, mats = generic_matrices({"a": (1, 2), "b": (1, 2), "x": (2, 2)})
    rep = check_main1(mats["a"], mats["b"], mats["x"])
    assert rep.passed
    assert "alt_rhs" in rep.details


def test_main2_fully_symbolic_2x3():
    ring, mats = generic_matrices({"a": (2, 3), "b": (2, 3), "x": (3, 3)})
    rep = check_main2(mats["a"], mats["b"], mats["x"])
    assert rep.passed


def test_main2_odd_m_rejected():
    A = Matrix(ZZ, [[1, 2]])
    with pytest.raises(ParityError):
        check_main2(A, A, identity(2, ZZ))


def test_main_checkers_random_sweep():
    rng = random.Random(22)
    for _ in range(15):
        m = rng.randint(1, 4)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        B = rand_int_matrix(rng, m, n)
        X = rand_int_matrix(rng, n, n)
        assert check_main1(A, B, X).passed
        if m % 2 == 0:
            assert check_main2(A, B, X).passed
        else:
            assert check_lemma_aux(A, B, X).passed


# -- rank-one perturbation ----------------------------------------------------


def test_rank1_symbolic_m2_matches_module_example():
    ring, Y, vecs = generic_skew(2, extra=("a", "b"))
    a, b = vecs["a"], vecs["b"]
    rep = check_rank1(Y, a, b)
    assert rep.passed
    y = ring.gen("y1_2")
    a1, a2 = a
    b1, b2 = b
    lhs = y * y + y * (a1 * b2 - a2 * b1)
    assert ring.format(lhs) == rep.lhs


def test_rank1_symbolic_m3_and_m4():
    for m in (3, 4):
        ring, Y, vecs = generic_skew(m, extra=("a", "b"))
        assert check_rank1(Y, vecs["a"], vecs["b"]).passed


def test_rank1_symmetric_specialization():
    ring, Y, vecs = generic_skew(4, extra=("a",))
    a = vecs["a"]
    rep = check_rank1(Y, a, a)
    assert rep.passed
    assert rep.details["symmetric_det_Y"] == rep.lhs
    ring3, Y3, vecs3 = generic_skew(3, extra=("a",))
    rep3 = check_rank1(Y3, vecs3["a"], vecs3["a"])
    assert rep3.passed
    assert "symmetric_square_root" in rep3.details


def test_rank1_rank_one_3x3_determinant_vanishes():
    rep = check_rank1(Matrix.zeros(ZZ, 3, 3), (1, 2, 3), (4, 5, 6))
    assert rep.passed
    assert rep.lhs == "0"


def test_rank1_validation():
    with pytest.raises(SkewSymmetryError):
        check_rank1(Matrix(ZZ, [[0, 1], [1, 0]]), (1, 2), (3, 4))
    with pytest.raises(ShapeError):
        check_rank1(Matrix.zeros(ZZ, 2, 2), (1,), (2, 3))


def test_rank1_random_sweep():
    rng = random.Random(23)
    for _ in range(25):
        m = rng.randint(1, 5)
        Y = rand_skew(rng, m)
        a = [rng.randint(-5, 5) for _ in range(m)]
        b = [rng.randint(-5, 5) for _ in range(m)]
        assert check_rank1(Y, a, b).passed


# -- auxiliary odd lemma -------------------------------------------------------


def test_lemma_aux_symbolic_1x2_and_3x3():
    ring, mats = generic_matrices({"a": (1, 2), "b": (1, 2), "x": (2, 2)})
    assert check_lemma_aux(mats["a"], mats["b"], mats["x"]).passed
    ring, mats = generic_matrices({"a": (3, 3), "b": (3, 3), "x": (3, 3)})
    assert check_lemma_aux(mats["a"], mats["b"], mats["x"]).passed


def test_lemma_aux_zero_A():
    rep = check_lemma_aux(
        Matrix.zeros(ZZ, 3, 4), Matrix.zeros(ZZ, 3, 4), Matrix.zeros(ZZ, 4, 4)
    )
    assert rep.passed and rep.lhs == "0"


def test_lemma_aux_even_m_rejected():
    A = Matrix.zeros(ZZ, 2, 2)
    with pytest.raises(ParityError):
        check_lemma_aux(A, A, Matrix.zeros(ZZ, 2, 2))


# -- pfaffian minor summation --------------------------------------------------


def test_iswa_recovers_okada():
    rng = random.Random(24)
    for _ in range(10):
        m = 2 * rng.randint(1, 2)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        U = upper_ones(n, ZZ)
        rep = check_iswa(A, U - U.T)
        assert rep.passed
        assert rep.lhs == check_okada(A).lhs


def test_iswa_single_subset_when_n_equals_m():
    rng = random.Random(25)
    A = rand_int_matrix(rng, 4, 4)
    Y = rand_skew(rng, 4)
    rep = check_iswa(A, Y)
    assert rep.passed
    assert int(rep.lhs) == expansion_pfaffian(Y._rows) * leibniz_det(A._rows)


def test_iswa_symbolic_skew():
    ring, Y, _ = generic_skew(4)
    A = Matrix(ring, [[ring.one if i == j else ring.zero for j in range(4)] for i in range(2)])
    rep = check_iswa(A, Y)
    assert rep.passed
    assert rep.rhs == "y1_2"


def test_iswa_validation():
    with pytest.raises(ParityError):
        check_iswa(Matrix(ZZ, [[1, 2]]), rand_skew(random.Random(1), 2))
    with pytest.raises(SkewSymmetryError):
        check_iswa(Matrix(ZZ, [[1, 2], [3, 4]]), Matrix(ZZ, [[1, 0], [0, 1]]))
    with pytest.raises(ShapeError):
        check_iswa(Matrix(ZZ, [[1, 2], [3, 4]]), Matrix(ZZ, [], ncols=0))


def test_iswa_sides_share_no_pfaffian_kernel(monkeypatch):
    # the left side reads its Pfaffian minors from its own memo; only the
    # right side, Pf(A Y A^t), calls a Pfaffian kernel, and on every ring
    # that is the elimination, never the memo's expansion
    calls = []

    def counted(Y):
        calls.append(Y.nrows)
        return pfaffian_bareiss(Y)

    monkeypatch.setattr(identities, "pfaffian_bareiss", counted)
    rng = random.Random(843)
    for m, n in ((2, 2), (2, 5), (4, 4), (4, 8), (6, 8)):
        calls.clear()
        assert check_iswa(rand_int_matrix(rng, m, n), rand_skew(rng, n)).passed
        assert calls == [m]
    for m, n in ((2, 3), (4, 5)):
        calls.clear()
        A = Matrix(POLY_ST, rand_int_matrix(rng, m, n)._rows)
        Y = Matrix(POLY_ST, sparse_skew(rng, POLY_ST, n, 1.0))
        assert check_iswa(A, Y).passed
        assert calls == [m]


def test_rank1_and_lemma_aux_read_pfaffian_minors_from_one_memo(monkeypatch):
    # Pf(Y), Pf(Y(i)) and Pf(Y(i, j)) all come from _pfaffian_minors: no
    # checker builds a matrix per Pfaffian minor
    calls = []

    def counted(Y):
        calls.append(Y.nrows)
        return pfaffian(Y)

    monkeypatch.setattr(identities, "pfaffian", counted)
    rng = random.Random(847)
    for m in (1, 2, 5, 6):
        Y = rand_skew(rng, m)
        a = [rng.randint(-5, 5) for _ in range(m)]
        b = [rng.randint(-5, 5) for _ in range(m)]
        assert check_rank1(Y, a, b).passed
        assert check_rank1(Y, a, a).passed
    Y = Matrix(POLY_ST, sparse_skew(rng, POLY_ST, 4, 1.0))
    assert check_rank1(Y, [1, 2, -1, 3], [0, 1, 2, 2]).passed
    for m, n in ((1, 2), (3, 4), (5, 5)):
        A, B = rand_int_matrix(rng, m, n), rand_int_matrix(rng, m, n)
        assert check_lemma_aux(A, B, rand_int_matrix(rng, n, n)).passed
    assert calls == []


POLY_ST = PolynomialRing(("s", "t"))


def sparse_skew(rng, ring, n, density):
    """Rows of a skew matrix whose entries above the diagonal are nonzero
    with probability `density`: integers on ZZ, else linear in s and t."""
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < density:
                v = rng.randint(1, 5) * rng.choice((-1, 1))
                if ring is not ZZ:
                    s, t = ring.gens()
                    v = v * s + rng.randint(-2, 2) * t + rng.randint(-2, 2)
                rows[i][j], rows[j][i] = v, -v
    return rows


def one_entry_skew(n):
    rows = [[0] * n for _ in range(n)]
    rows[0][n - 1], rows[n - 1][0] = 3, -3
    return rows


def test_iswa_pfaffian_minors_match_the_first_row_expansion():
    rng = random.Random(844)
    cases = [(ring, sparse_skew(rng, ring, n, density))
             for n in (0, 2, 3, 4, 6, 7) for density in (1.0, 0.5) for ring in (ZZ, POLY_ST)]
    cases += [(ZZ, one_entry_skew(n)) for n in (2, 5, 6)]
    for ring, rows in cases:
        pf = identities._pfaffian_minors(ring, Matrix(ring, rows, ncols=len(rows))._rows)
        for size in range(0, len(rows) + 1, 2):
            for I in itertools.combinations(range(len(rows)), size):
                sub = [[rows[i][j] for j in I] for i in I]
                assert pf(sum(1 << i for i in I)) == ring.coerce(expansion_pfaffian(sub))


@pytest.mark.parametrize("m, n", [(2, 2), (2, 6), (4, 4), (6, 6), (2, 7), (4, 7)])
def test_iswa_on_sparse_and_one_entry_skew_matrices(m, n):
    # m = n has one term, m = 2 reads only single entries of Y
    rng = random.Random(845 + 10 * m + n)
    A = rand_int_matrix(rng, m, n)
    for Y in (one_entry_skew(n), sparse_skew(rng, ZZ, n, 0.4)):
        rep = check_iswa(A, Matrix(ZZ, Y))
        assert rep.passed
        expect = sum(expansion_pfaffian([[Y[i][j] for j in I] for i in I])
                     * leibniz_det([[row[c] for c in I] for row in A._rows])
                     for I in itertools.combinations(range(n), m))
        assert rep.lhs == str(expect)
    A = Matrix(POLY_ST, rand_int_matrix(rng, m, n, bound=2)._rows)
    assert check_iswa(A, Matrix(POLY_ST, sparse_skew(rng, POLY_ST, n, 0.5))).passed


def test_lemma_iswa_pair_is_entry():
    ring, Y, _ = generic_skew(4)
    rep = check_lemma_iswa(Y, (1, 2))
    assert rep.passed
    assert rep.rhs == "y1_2"
    rep = check_lemma_iswa(Y, (2, 4))
    assert rep.passed
    assert rep.rhs == "y2_4"


def test_lemma_iswa_symbolic_windows():
    ring, Y, _ = generic_skew(6)
    for I in ((1, 2, 3, 4), (2, 3, 5, 6), (3, 4, 5, 6)):
        assert check_lemma_iswa(Y, I).passed


def test_lemma_iswa_zero_matrix():
    rep = check_lemma_iswa(Matrix.zeros(ZZ, 4, 4), IndexSet(4, (1, 2, 3, 4)))
    assert rep.passed and rep.lhs == "0"


def test_lemma_iswa_odd_set_rejected():
    ring, Y, _ = generic_skew(4)
    with pytest.raises(ParityError):
        check_lemma_iswa(Y, (1, 2, 3))


# -- interlacing chain theorems --------------------------------------------


def test_ab_equals_byun_when_A_is_B():
    rng = random.Random(26)
    for _ in range(10):
        m = rng.randint(1, 3)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        rep = check_ab(A, A)
        assert rep.passed
        s = minor_sum(A)
        assert rep.details["factor1"] == str(s)
        assert rep.details["factor2"] == str(s)


def test_ab_symbolic_small():
    for shape in ((1, 2), (2, 2)):
        m, n = shape
        ring, mats = generic_matrices({"a": (m, n), "b": (m, n)})
        rep = check_ab(mats["a"], mats["b"])
        assert rep.passed
        assert rep.details["factor1_matches_fg"] is True
        assert rep.details["factor2_matches_fg"] is True


def test_ab2_symbolic_2x2():
    ring, mats = generic_matrices({"a": (2, 2), "b": (2, 2)})
    assert check_ab2(mats["a"], mats["b"]).passed


def test_ab2_equals_okada_when_A_is_B():
    rng = random.Random(27)
    for _ in range(10):
        m = 2 * rng.randint(1, 2)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        rep = check_ab2(A, A)
        assert rep.passed
        assert rep.lhs == check_okada(A).lhs


def test_ab2_odd_m_rejected():
    A = Matrix(ZZ, [[1, 2]])
    with pytest.raises(ParityError):
        check_ab2(A, A)


def test_ab_random_sweep():
    rng = random.Random(28)
    for _ in range(12):
        m = rng.randint(1, 4)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        B = rand_int_matrix(rng, m, n)
        assert check_ab(A, B).passed
        if m % 2 == 0:
            assert check_ab2(A, B).passed


# -- symmetric corollary -----------------------------------------------------


def test_cor7_symbolic_projection():
    ring, mats = generic_matrices({"x": (3, 3)})
    X = mats["x"]
    A = Matrix(ring, [[ring.one if i == j else ring.zero for j in range(3)] for i in range(2)])
    rep = check_cor7(A, X)
    assert rep.passed
    # f_AA(X) on the leading 2x2 block reduces to the skew part entry
    assert rep.details["f_AA"] == "x1_2 - x2_1"


def test_cor7_skew_X_consistency():
    rng = random.Random(29)
    A = rand_int_matrix(rng, 2, 4)
    Xs = rand_skew(rng, 4)
    rep = check_cor7(A, Xs)
    assert rep.passed
    fa = int(rep.details["f_AA"])
    assert fa * fa == int(rep.details["det_skew_part"])


def test_cor7_zero_X():
    rep = check_cor7(Matrix(ZZ, [[1, 0, 2], [0, 3, 1]]), Matrix.zeros(ZZ, 3, 3))
    assert rep.passed


def test_cor7_random_sweep():
    rng = random.Random(30)
    for _ in range(10):
        n = rng.randint(2, 5)
        A = rand_int_matrix(rng, 2, n)
        X = rand_int_matrix(rng, n, n)
        assert check_cor7(A, X).passed


# -- closed forms -------------------------------------------------------------


def test_x1_closed_form_spot_values():
    ring = PolynomialRing(("d1", "d2", "d3"))
    d = ring.gens()
    # I = J: product of the diagonal entries
    assert x1_closed_form(ring, d, (1, 3), (1, 3)) == d[0] * d[2]
    # chain 1 <= 1 <= 2 <= 3 with one off-diagonal pick
    assert x1_closed_form(ring, d, (1, 2), (1, 3)) == d[0]
    # broken interlacing: zero
    assert x1_closed_form(ring, d, (2, 3), (1, 3)) == ring.zero
    assert x1_closed_form(ring, d, (), ()) == ring.one
    with pytest.raises(ShapeError):
        x1_closed_form(ring, d, (1,), (1, 2))


def test_x2_closed_form_spot_values():
    ring = PolynomialRing(("d1", "d2", "d3"))
    d = ring.gens()
    one = ring.one
    # bordered determinant [[1, d1], [1, 0]] = -d1
    assert x2_closed_form(ring, d, (1, 2), (1,)) == -d[0]
    assert x2_closed_form(ring, d, (1,), ()) == one
    # bordered determinant [[1, 1], [1, 0]] = -1
    assert x2_closed_form(ring, d, (1, 3), (2,)) == -one
    # j1 hits i2: bordered [[1, 1], [1, d2]] = d2 - 1
    assert x2_closed_form(ring, d, (1, 2), (2,)) == d[1] - one
    assert x2_closed_form(ring, d, (2, 3), (1,)) == ring.zero
    with pytest.raises(ShapeError):
        x2_closed_form(ring, d, (1, 2), (1, 2))


@pytest.mark.parametrize(
    "form, I, J",
    [
        (x1_closed_form, (0,), (0,)),  # index 0 once read diag[-1]
        (x1_closed_form, (1, 1), (1, 1)),  # repeated indices
        (x1_closed_form, (1, 3), (1, 2)),  # past len(diag)
        (x1_closed_form, (2, 1), (1, 2)),  # decreasing
        (x2_closed_form, (1, 2), (0,)),
        (x2_closed_form, (1, 2, 2), (1, 2)),
        (x2_closed_form, (1, 3), (2,)),
    ],
)
def test_closed_forms_reject_bad_index_sets(form, I, J):
    with pytest.raises(IndexRangeError):
        form(ZZ, [2, 3], I, J)


def test_closed_forms_coerce_only_the_entries_they_read():
    # the entries off the chain are never read, so they need not be in the
    # ring; an entry on it is coerced as it is read
    diag = [2, "not a number", 3, object()]
    assert x1_closed_form(ZZ, diag, (1, 3), (1, 3)) == 6
    assert x2_closed_form(ZZ, diag, (1, 3), (1,)) == -2
    with pytest.raises(RingMismatchError):
        x1_closed_form(ZZ, [2, 1.5], (2,), (2,))


def test_closed_forms_match_determinants_directly():
    # independent cross-check against explicit permutation-sum determinants
    ring = PolynomialRing(("d1", "d2", "d3", "d4"))
    d = ring.gens()
    X = ones_above_diagonal(ring, d)
    assert x1_closed_form(ring, d, (1, 4), (2, 3)) == leibniz_det(
        X.submatrix((1, 4), (2, 3))._rows
    )
    assert x1_closed_form(ring, d, (1, 3), (2, 4)) == leibniz_det(
        X.submatrix((1, 3), (2, 4))._rows
    )


def test_check_closed_forms_symbolic_n3():
    ring = PolynomialRing(("d1", "d2", "d3"))
    rep = check_closed_forms(ring, ring.gens())
    assert rep.passed
    assert rep.details["mismatches"] == []
    assert rep.details["checked"] > 0


def test_check_closed_forms_unit_and_zero_diagonals():
    for diag in ((1, 1, 1, 1), (0, 0, 0, 0)):
        rep = check_closed_forms(ZZ, diag)
        assert rep.passed


def test_check_closed_forms_random_int():
    rng = random.Random(31)
    for _ in range(5):
        n = rng.randint(1, 5)
        rep = check_closed_forms(ZZ, [rng.randint(-5, 5) for _ in range(n)])
        assert rep.passed


# (I, J) pairs whose closed form is perturbed: per form one nonzero minor and
# one zero minor (a broken interlacing)
PERTURBED = {
    "x1": [((1, 3), (1, 3)), ((2, 3), (1, 3))],
    "x2": [((1, 2), (1,)), ((2, 3), (1,))],
}


@pytest.mark.parametrize("symbolic", [False, True], ids=["ZZ", "Poly"])
def test_check_closed_forms_reports_each_mismatch_with_its_determinant(
        monkeypatch, symbolic):
    import minorsum.identities as identities

    if symbolic:
        ring = PolynomialRing(("d1", "d2", "d3", "d4"))
        diag = ring.gens()
    else:
        ring, diag = ZZ, (2, 0, -3, 1)

    def perturbed(real, form):
        def closed(ring_, d, I, J):
            value = real(ring_, d, I, J)
            return value + 1 if (tuple(I), tuple(J)) in PERTURBED[form] else value
        return closed

    # the scan takes the closed forms unchecked, by these two names
    monkeypatch.setattr(identities, "_chain_product",
                        perturbed(identities._chain_product, "x1"))
    monkeypatch.setattr(identities, "_bordered_chain_product",
                        perturbed(identities._bordered_chain_product, "x2"))
    rep = check_closed_forms(ring, diag)
    # the public closed forms share those names: the references below are
    # the unperturbed ones
    monkeypatch.undo()
    assert not rep.passed
    mismatches = rep.details["mismatches"]
    assert [(e["form"], tuple(e["I"]), tuple(e["J"])) for e in mismatches] == [
        (form, I, J) for form in ("x1", "x2") for I, J in PERTURBED[form]
    ]
    X = ones_above_diagonal(ring, diag)
    bordered = Matrix(ring, [[1] + list(row) for row in X._rows])
    for e in mismatches:
        I, J = e["I"], e["J"]
        if e["form"] == "x1":
            expect = leibniz_det(X.submatrix(I, J)._rows)
            closed = x1_closed_form(ring, diag, I, J)
        else:
            expect = leibniz_det(bordered.submatrix(I, [1] + [j + 1 for j in J])._rows)
            closed = x2_closed_form(ring, diag, I, J)
        assert e["det"] == ring.format(expect)
        assert e["formula"] == ring.format(closed + 1)
    # the zero minors read "0": a key missing from the minor table
    assert [e["det"] for e in mismatches][1::2] == ["0", "0"]
    checked = rep.details["checked"]
    assert rep.rhs == f"{checked - 4} matching cofactor determinants"


# -- remaining checkers --------------------------------------------------------


def test_no_checker_calls_the_reference_kernels():
    # the reference determinant and Pfaffian are the tests' oracles, out of
    # the package's reach (test_package.py pins its imports): every
    # checker's sides run on the eliminations and the walks
    from minorsum import VerifyConfig, check_cauchy, run_verify

    for ring, ms, ns in (("int", (1, 2, 3, 4, 5, 6), (2, 3, 4, 6)),
                         ("poly", (1, 2, 3), (2, 3))):
        report = run_verify(VerifyConfig(identities=IDENTITY_IDS, ms=ms, ns=ns,
                                         trials=2, ring=ring))
        assert report.summary["failures"] == 0
        assert set(report.summary["per_identity"]) == set(IDENTITY_IDS)
    for shape in ((2, 2, 1, 1), (4, 4, 2, 2)):
        assert check_cauchy(*shape).passed


def test_det_pf_square_symbolic_4x4():
    ring, Y, _ = generic_skew(4)
    rep = check_det_pf_square(Y)
    assert rep.passed
    g = ring.gen
    pf = g("y1_2") * g("y3_4") - g("y1_3") * g("y2_4") + g("y1_4") * g("y2_3")
    assert rep.details["pfaffian"] == ring.format(pf)


def test_cauchy_binet_pf_small():
    rng = random.Random(32)
    for _ in range(10):
        m = 2 * rng.randint(1, 2)
        n = rng.randint(m, m + 2)
        A = rand_int_matrix(rng, m, n)
        B = rand_int_matrix(rng, m, n)
        assert check_cauchy_binet_pf(A, B).passed
    with pytest.raises(ParityError):
        check_cauchy_binet_pf(Matrix(ZZ, [[1]]), Matrix(ZZ, [[1]]))


def cauchy_binet_sum(A, B):
    """Sum over |I| = m/2 of det(A^I B^I), by the permutation sum."""
    total = 0
    for I in itertools.combinations(range(A.ncols), A.nrows // 2):
        total = total + leibniz_det([[a[i] for i in I] + [b[i] for i in I]
                                     for a, b in zip(A._rows, B._rows)])
    return total


def zero_column(ring, M, j):
    return Matrix(ring, [[ring.zero if c == j else x for c, x in enumerate(row)]
                         for row in M._rows], ncols=M.ncols)


def test_cauchy_binet_pf_sums_on_the_pair_route(monkeypatch):
    # the right side is one pick sum over [A, B]: no `det` per m/2-subset,
    # and the one `pfaffian` call is the left side's; m > n, m/2 > n (an
    # empty sum), n = 0 and zero columns included
    calls = {"det": 0, "pfaffian": 0}
    for name in calls:
        def counted(M, kernel=getattr(identities, name), name=name):
            calls[name] += 1
            return kernel(M)
        monkeypatch.setattr(identities, name, counted)
    rng = random.Random(25)
    cases = []
    for m, n in ((0, 0), (0, 3), (2, 0), (4, 0), (2, 1), (4, 1), (4, 3), (6, 2),
                 (8, 3), (2, 2), (4, 4), (4, 6), (6, 5), (6, 7), (8, 4)):
        A, B = (Matrix(ZZ, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)],
                       ncols=n) for _ in "AB")
        cases.append((ZZ, A, B))
        if n:
            cases.append((ZZ, zero_column(ZZ, A, rng.randrange(n)),
                          zero_column(ZZ, B, rng.randrange(n))))
    cases.append((POLY_ST, Matrix(POLY_ST, [[], []]), Matrix(POLY_ST, [[], []])))
    for m, n in ((2, 1), (2, 3), (4, 1), (4, 2), (4, 4), (6, 2), (6, 3)):
        ring, mats = generic_matrices({"a": (m, n), "b": (m, n)})
        A, B = mats["a"], mats["b"]
        cases.append((ring, A, B))
        cases.append((ring, zero_column(ring, A, n - 1), zero_column(ring, B, 0)))
    for ring, A, B in cases:
        calls.update(det=0, pfaffian=0)
        rep = check_cauchy_binet_pf(A, B)
        assert rep.passed
        assert calls == {"det": 0, "pfaffian": 1}
        expect = sign_from_binom2(A.nrows // 2) * cauchy_binet_sum(A, B)
        assert rep.rhs == ring.format(ring.coerce(expect))


def test_reports_serialize_without_elapsed():
    rep = check_okada(GOLDEN)
    d = rep.to_json_dict()
    assert set(d) == {"identity", "digest", "lhs", "rhs", "pass", "details"}
    assert d["pass"] is True


def test_digest_depends_on_input():
    A = Matrix(ZZ, [[1, 1, 1], [1, 2, 3]])
    B = Matrix(ZZ, [[1, 1, 1], [1, 2, 4]])
    assert check_okada(A).input_digest != check_okada(B).input_digest
    assert check_okada(A).input_digest == check_okada(GOLDEN).input_digest


def test_checkers_build_no_zero_one_matrix(monkeypatch):
    # U, U + Id, Id and J - X enter the forms and the pair route as running
    # sums, so no checker and no path route builds U, Id or J
    import minorsum.matrix
    import minorsum.symfun
    from minorsum.paths import count_free_routes
    from minorsum.symfun import check_cauchy
    from test_paths import DELANNOY, staircase_instance

    def forbidden(*args, **kwargs):
        raise AssertionError("a checker built a 0/1 matrix")

    for module in (minorsum.matrix, identities, minorsum.symfun):
        for name in ("upper_ones", "identity", "all_ones"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(29)
    for m, n in ((3, 5), (4, 5)):
        A, B, X = rand_int_matrix(rng, m, n), rand_int_matrix(rng, m, n), rand_int_matrix(rng, n, n)
        for report in (check_okada(A), check_byun(A), check_ab(A, B), check_main1(A, B, X)):
            assert report.passed, (report.identity_id, m)
    A, B = rand_int_matrix(rng, 4, 6), rand_int_matrix(rng, 4, 6)
    assert check_ab2(A, B).passed and check_cauchy_binet_pf(A, B).passed
    assert check_cauchy(4, 5, 2, 2).passed
    problem = staircase_instance(random.Random(5), 4, 7, lowest_end=0, highest_end=4,
                                 steps=DELANNOY)
    assert len(set(count_free_routes(problem).values())) == 1


@pytest.mark.parametrize("m, n", [(12, 30), (13, 30), (14, 19)])
def test_okada_and_byun_are_prompt_on_either_side_of_the_evaluator_choice(m, n):
    # the minor sum's evaluator is chosen by counted work: at (12, 30) the
    # sweep takes a fraction of a second and the walk minutes, while at
    # (14, 19) the chooser takes the walk
    rng = random.Random(1)
    A = Matrix(ZZ, [[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)])
    for check in (check_okada, check_byun):
        start = time.perf_counter()
        assert check(A).passed
        assert time.perf_counter() - start < 3, check.__name__
