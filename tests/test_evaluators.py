"""The minor-sum evaluators against sums of Leibniz determinants.

The references in oracles.py expand every determinant over permutations
and enumerate the index sets and chains directly, so they share nothing
with the column sweep or the prefix-sharing elimination the evaluators
use.  The rank-deficient inputs make whole subtrees of that elimination
vanish, which is where it prunes.  Each route is summed by both
evaluators, forced, on integers, fractions and polynomials; the sweep is
shown to divide nothing, and the choice between them to depend on the
shape and the kind of ring alone.  The minor table closed-forms reads is
checked entry by entry against cofactor determinants.  The edge shapes
(no rows, one row, more rows than columns) are pinned on integers and
polynomials.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import combinations

import pytest
from oracles import gauss_det, leibniz_det, ref_chain_sum, ref_f, ref_g, ref_minor_sum

import minorsum
from minorsum import (
    QQ,
    ZZ,
    Matrix,
    PolynomialRing,
    check_ab2,
    check_cauchy_binet_pf,
    check_iswa,
    f_AB,
    g_AB,
    minor_sum,
)
from minorsum import identities
from minorsum.identities import (
    _apply_sign,
    _chain_route,
    _chain_sum,
    _double_minor_sum,
    _f_sign,
    _minor_levels,
    _minor_route,
    _pair_blocks,
    _pair_route,
    _sweep_is_cheaper,
    _sweep_sum,
    _walk_sum,
    sign_from_binom2,
)
from minorsum.ring import IntegerRing, Poly, RationalRing


def assert_evaluators_match(ring, a, b, x):
    A, B, X = (Matrix(ring, rows) for rows in (a, b, x))
    assert minor_sum(A) == ref_minor_sum(a, len(x))
    if len(a) % 2 == 0:
        assert f_AB(A, B, X) == ref_f(a, b, x)
    else:
        assert g_AB(A, B, X) == ref_g(a, b, x)
    for weak_within in (True, False):
        assert _chain_sum(A, B, weak_within) == ref_chain_sum(a, b, weak_within)


def rand_rows(rng, m, n, bound=5):
    return [[rng.randint(-bound, bound) for _ in range(n)] for _ in range(m)]


SHAPES = [(m, n) for m in range(1, 7) for n in range(m, 9)]


@pytest.mark.parametrize("m,n", SHAPES)
def test_random_int_inputs_match_leibniz(m, n):
    rng = random.Random(1000 * m + n)
    a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
    assert_evaluators_match(ZZ, a, b, x)


RANK_DEFICIENT = [(2, 4), (3, 5), (4, 5), (5, 6), (6, 7)]


@pytest.mark.parametrize("m,n", RANK_DEFICIENT)
def test_zero_column_in_A(m, n):
    rng = random.Random(2000 * m + n)
    a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
    for row in a:
        row[1] = 0
    assert_evaluators_match(ZZ, a, b, x)


@pytest.mark.parametrize("m,n", RANK_DEFICIENT)
def test_A_equals_B(m, n):
    rng = random.Random(3000 * m + n)
    a, x = rand_rows(rng, m, n), rand_rows(rng, n, n)
    assert_evaluators_match(ZZ, a, [row[:] for row in a], x)


@pytest.mark.parametrize("m,n", RANK_DEFICIENT)
def test_repeated_columns(m, n):
    rng = random.Random(4000 * m + n)
    a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
    for row in a:
        row[2] = row[0]
    for row in b:
        row[n - 1] = row[0]
        row[1] = -2 * row[3 % n]
    assert_evaluators_match(ZZ, a, b, x)


@pytest.mark.parametrize("m,n", RANK_DEFICIENT)
def test_singular_X(m, n):
    rng = random.Random(5000 * m + n)
    a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
    # row 1 of X is the sum of rows 0 and 2, so det(X) = 0
    x[1] = [u + v for u, v in zip(x[0], x[2])]
    assert_evaluators_match(ZZ, a, b, x)


def test_rank_one_inputs_vanish_beyond_order_one():
    a = [[1, 2, 3, 4]] * 3
    assert minor_sum(Matrix(ZZ, a)) == ref_minor_sum(a, 4) == 0
    assert_evaluators_match(ZZ, a, [[2, 4, 6, 8]] * 3, [[1, 1, 1, 1]] * 4)


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_generic_poly_inputs_match_leibniz(m, n):
    names = [f"{t}{i}_{j}" for t, (r, c) in (("a", (m, n)), ("b", (m, n)), ("x", (n, n)))
             for i in range(1, r + 1) for j in range(1, c + 1)]
    ring = PolynomialRing(names)

    def generic(t, r, c):
        return [[ring.gen(f"{t}{i}_{j}") for j in range(1, c + 1)] for i in range(1, r + 1)]

    assert_evaluators_match(ring, generic("a", m, n), generic("b", m, n), generic("x", n, n))


def minor_table(ring, rows, p, border):
    # the minors on p rows of X, or of [1 | X] with the ones column kept,
    # read off the trie of [1 | X] as check_closed_forms reads them: the
    # ones column at bit 0 and column j of X at bit j + 1
    level = _minor_levels(ring, [(ring.one, *row) for row in rows], p)[p]
    table = {}
    for I, minors in level.items():
        picked = {T >> 1: d for T, d in minors.items() if T & 1 == border}
        if picked:
            table[I] = picked
    return table


def assert_minor_table_matches_cofactors(ring, x):
    """Every minor of X on p rows, and of [1 | X] on p rows with the ones
    column kept, against the table: a present entry is the nonzero cofactor
    determinant, a missing one a zero minor."""
    n = len(x)
    rows = Matrix(ring, x)._rows
    for border in (False, True):
        M = Matrix(ring, [[1] + row for row in x] if border else x)
        lead = (1,) if border else ()
        for p in range(1, n + 1):
            table = minor_table(ring, rows, p, border)
            seen = 0
            for I in combinations(range(n), p):
                for J in combinations(range(n), p - border):
                    cols = lead + tuple(j + 1 + border for j in J)
                    expect = leibniz_det(M.submatrix([i + 1 for i in I], cols)._rows)
                    got = table.get(I, {}).get(sum(1 << j for j in J))
                    if got is None:
                        assert expect == 0, (border, I, J)
                    else:
                        assert got and got == expect, (border, I, J)
                        seen += 1
            assert sum(len(minors) for minors in table.values()) == seen
            assert all(minors for minors in table.values())


@pytest.mark.parametrize("n", range(1, 7))
def test_minor_table_random_int(n):
    rng = random.Random(6000 + n)
    assert_minor_table_matches_cofactors(ZZ, rand_rows(rng, n, n))


RANK_DEFICIENT_X = {
    "zero row": lambda x: x[:2] + [[0] * len(x)] + x[3:],
    "repeated row": lambda x: x[:3] + [x[1][:]] + x[4:],
    "rank one": lambda x: [[u * v for v in x[0]] for u in (1, -2, 0, 3, 1, -1)[:len(x)]],
}


@pytest.mark.parametrize("kind", sorted(RANK_DEFICIENT_X))
@pytest.mark.parametrize("n", [5, 6])
def test_minor_table_rank_deficient(kind, n):
    rng = random.Random(7000 + n)
    x = RANK_DEFICIENT_X[kind](rand_rows(rng, n, n))
    assert_minor_table_matches_cofactors(ZZ, x)


def test_minor_table_generic_poly():
    n = 4
    ring = PolynomialRing([f"x{i}_{j}" for i in range(1, n + 1) for j in range(1, n + 1)])
    x = [[ring.gen(f"x{i}_{j}") for j in range(1, n + 1)] for i in range(1, n + 1)]
    assert_minor_table_matches_cofactors(ring, x)


@pytest.mark.parametrize("m,n", [(2, 3), (2, 5), (4, 4), (4, 6), (6, 6), (6, 7)])
def test_f_BA_is_signed_f_AB_of_the_transpose(m, n):
    # the identity that lets one call with A and B give f_BA as well
    rng = random.Random(8000 * m + n)
    A, B, Y = (Matrix(ZZ, rand_rows(rng, r, n)) for r in (m, m, n))
    assert f_AB(B, A, Y) == _apply_sign(_f_sign(m), f_AB(A, B, Y.T))


# -- the double sums as pick sums over [A | B X^t] ----------------------------
# f_AB and g_AB sum det(A^I H^I), H = B X^t, over I by Cauchy-Binet in J, g
# on the hat-augmented pair.  m = 1..7 covers J of size 0..3; m > n leaves
# some sums empty.

COLLAPSE_SHAPES = [(1, 1), (1, 4), (2, 1), (2, 5), (3, 1), (3, 2), (3, 6), (4, 3),
                   (4, 6), (5, 2), (5, 3), (5, 6), (6, 2), (6, 4), (7, 3), (7, 4)]


def double_sum_matches_leibniz(ring, a, b, x):
    A, B, X = (Matrix(ring, rows) for rows in (a, b, x))
    if len(a) % 2 == 0:
        return f_AB(A, B, X) == ref_f(a, b, x)
    return g_AB(A, B, X) == ref_g(a, b, x)


def rand_fractions(rng, m, n):
    return [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
            for _ in range(m)]


@pytest.mark.parametrize("m,n", COLLAPSE_SHAPES)
def test_collapsed_sum_matches_leibniz(m, n):
    rng = random.Random(9000 * m + n)
    a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
    assert double_sum_matches_leibniz(ZZ, a, b, x)
    assert double_sum_matches_leibniz(ZZ, a, [row[:] for row in a], x)
    a, b, x = rand_fractions(rng, m, n), rand_fractions(rng, m, n), rand_fractions(rng, n, n)
    assert double_sum_matches_leibniz(QQ, a, b, x)


def zero_first_column(a):
    return [[0] + row[1:] for row in a]


def pivots_below(a):
    # the first row is zero but for its last entry, and the second row
    # zero on the first half, so pivots come from lower rows
    n = len(a[0])
    out = [row[:] for row in a]
    out[0] = [0] * (n - 1) + [out[0][-1] or 1]
    if len(out) > 1:
        out[1][: n // 2] = [0] * (n // 2)
    return out


# test_repeated_columns above gives A^I of lower rank
A_KINDS = {
    "zero first column": zero_first_column,
    "pivots below": pivots_below,
}


@pytest.mark.parametrize("kind", sorted(A_KINDS))
@pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 4), (5, 5), (6, 6), (7, 5)])
def test_collapsed_sum_on_degenerate_A(kind, m, n):
    rng = random.Random(9500 * m + n)
    a = A_KINDS[kind](rand_rows(rng, m, n))
    b, x = rand_rows(rng, m, n), rand_rows(rng, n, n)
    assert double_sum_matches_leibniz(ZZ, a, b, x)
    assert double_sum_matches_leibniz(ZZ, a, [row[:] for row in a], x)
    assert double_sum_matches_leibniz(QQ, a, b, x)


@pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 8) for n in (3, 5, 7)])
def test_integer_and_polynomial_routes_agree(m, n):
    # the same integers as ZZ and QQ entries and as constant polynomials,
    # two Xs in one call
    rng = random.Random(9900 * m + n)
    a, b = rand_rows(rng, m, n, bound=9), rand_rows(rng, m, n, bound=9)
    xs = [rand_rows(rng, n, n, bound=9) for _ in range(2)]
    p, border = (m + 1) // 2, m % 2 == 1
    poly = PolynomialRing(("z",))
    values = []
    for ring in (ZZ, QQ, poly):
        A, B = Matrix(ring, a), Matrix(ring, b)
        Xs = [Matrix(ring, x) for x in xs]
        Hs = [(B @ X.T)._rows for X in Xs]
        values.append([ring.format(v) for v in _double_minor_sum(A, Hs, p, border)])
    assert values[0] == values[1] == values[2]


FORBIDDEN_KERNELS = ("det", "det_bareiss", "det_minors", "_extend_minors", "pfaffian",
                     "pfaffian_bareiss", "pfaffian_walk", "_pfaffian_minors")


def test_import_builds_no_sweep_table_or_plan():
    # the sweep's tables are built on the first sweep of each shape, so that
    # importing the package (and its command line) costs nothing for them
    src = os.path.dirname(os.path.dirname(minorsum.__file__))
    code = ("import minorsum, minorsum.cli\n"
            "from minorsum import identities as i\n"
            "print(i._sweep_table.cache_info().currsize,"
            " i._sweep_plan.cache_info().currsize)")
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, env=dict(os.environ, PYTHONPATH=src), timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["0", "0"]


def test_sweep_table_lists_each_laplace_step():
    table = identities._sweep_table(4)
    assert len(table) == 16
    assert sum(len(steps) for steps in table) == 4 * 2 ** 3
    for S, steps in enumerate(table):
        assert [r for r, _, _ in steps] == [r for r in range(4) if not S >> r & 1]
        for r, T, odd in steps:
            assert T == S | 1 << r
            assert odd == sum(1 for s in range(r + 1, 4) if S >> s & 1) % 2


def test_sweep_past_the_table_limit_keeps_no_table():
    # past SWEEP_TABLE_MAX_ROWS rows the sweep forms each step as it takes
    # it, and keeps no table
    limit = identities.SWEEP_TABLE_MAX_ROWS
    identities._sweep_table.cache_clear()
    m, n = limit + 1, limit + 2
    rng = random.Random(13)
    A = Matrix(ZZ, rand_rows(rng, m, n, bound=2))
    route = _minor_route(m, n)
    expect = sum(gauss_det([[row[c] for c in I] for row in A._rows])
                 for I in combinations(range(n), m))
    assert _sweep_sum(ZZ, [A._rows], route) == _walk_sum(ZZ, [A._rows], route) == expect
    assert identities._sweep_table.cache_info().currsize == 0


def test_sweep_at_the_table_limit_keeps_dense_maps():
    # at exactly SWEEP_TABLE_MAX_ROWS rows the sweep keeps its table and its
    # 2^m-slot maps, and agrees with the walk and the Fraction determinants
    m = identities.SWEEP_TABLE_MAX_ROWS
    identities._sweep_table.cache_clear()
    identities._masks_by_size.cache_clear()
    rng = random.Random(17)
    n = m + 2
    A = Matrix(ZZ, rand_rows(rng, m, n, bound=2))
    route = _minor_route(m, n)
    expect = sum(gauss_det([[row[c] for c in I] for row in A._rows])
                 for I in combinations(range(n), m))
    assert _sweep_sum(ZZ, [A._rows], route) == _walk_sum(ZZ, [A._rows], route) == expect
    # f's pick sum on [A | H]: p pairs a_i h_i, i strictly increasing
    p, n = m // 2, m + 1
    a, b, x = rand_rows(rng, m, n, bound=2), rand_rows(rng, m, n, bound=2), rand_rows(rng, n, n, 2)
    blocks = _pair_blocks(Matrix(ZZ, a), (Matrix(ZZ, b) @ Matrix(ZZ, x).T)._rows, False)
    route = _pair_route(n, p)
    expect = sum(gauss_det([[blocks[d % 2][r][I[d // 2]] for d in range(m)] for r in range(m)])
                 for I in combinations(range(n), p))
    assert _sweep_sum(ZZ, blocks, route) == _walk_sum(ZZ, blocks, route) == expect
    assert identities._sweep_table.cache_info().currsize == 1
    assert len(identities._masks_by_size(m)) == m + 1


@pytest.mark.parametrize("ring", [ZZ, QQ, PolynomialRing(("s", "t"))],
                         ids=["ZZ", "QQ", "Poly"])
@pytest.mark.parametrize("m", [3, 6, identities.SWEEP_TABLE_MAX_ROWS + 1])
def test_sweep_with_no_complete_pick_is_the_rings_zero(ring, m):
    # a zero block, or fewer columns than rows, leave the full row set's
    # slot empty; the sweep answers the ring's zero, not None
    rng = random.Random(m)
    zero_block = [[0] * (m + 2) for _ in range(m)]
    narrow = rand_rows(rng, m, m - 1)
    for rows, route in ((zero_block, _minor_route(m, m + 2)),
                        (narrow, _minor_route(m, m - 1))):
        got = _sweep_sum(ring, [Matrix(ring, rows)._rows], route)
        assert got is not None and type(got) is type(ring.zero) and got == ring.zero


def test_evaluators_call_no_determinant_or_pfaffian_kernel(monkeypatch):
    # the evaluators are one side of every identity whose other side is a
    # det or a Pfaffian, so they may not reach those kernels by any name
    def forbidden(*args, **kwargs):
        raise AssertionError("an evaluator called a det or Pfaffian kernel")

    for module in (minorsum, minorsum.matrix, minorsum.identities):
        for name in FORBIDDEN_KERNELS:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, forbidden)
    rng = random.Random(77)
    poly = PolynomialRing(("s", "t"))
    s, t = poly.gens()
    for m, n in [(1, 3), (2, 4), (3, 4), (4, 5), (5, 5), (6, 6)]:
        a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
        a_poly = [[v * s + t if (i + j) % 3 == 0 else v for j, v in enumerate(row)]
                  for i, row in enumerate(a)]
        for ring, rows in ((ZZ, a), (QQ, a), (poly, a_poly)):
            A, B, X = Matrix(ring, rows), Matrix(ring, b), Matrix(ring, x)
            minor_sum(A)
            (g_AB if m % 2 else f_AB)(A, B, X)
            for weak_within in (True, False):
                _chain_sum(A, B, weak_within)


# -- the two evaluators of a route --------------------------------------------
# Every route is summed by the sweep and by the walk, each forced, against
# the Leibniz references: on integers, on fractions and on polynomials in
# two variables, with no rows, no columns, more rows than columns, A == B
# and a zero column of A.


def route_cases(ring, a, b, x, n):
    """(name, blocks, route, sign, reference) for each route of these rows:
    the minor sum of A, both chain sums of (A, B), and f or g of (A, B, X)
    as the signed pick sum over the pairs of [A | B X^t]."""
    m = len(a)
    A, B, X = (Matrix(ring, rows, ncols=n) for rows in (a, b, x))
    cases = [("minor", [A._rows], _minor_route(m, n), 1, ref_minor_sum(a, n))]
    for weak_within in (True, False):
        cases.append((f"chain weak_within={weak_within}", [A._rows, B._rows],
                      _chain_route(m, n, weak_within), 1,
                      ref_chain_sum(a, b, weak_within)))
    border = m % 2 == 1
    p = (m + 1) // 2
    reference = ref_g(a, b, x) if border else ref_f(a, b, x)
    sign = sign_from_binom2(p + 1 if border else p)
    cases.append(("g" if border else "f", _pair_blocks(A, (B @ X.T)._rows, border),
                  _pair_route(n, p), sign, reference))
    return cases


def assert_both_evaluators_match(ring, a, b, x, n):
    for name, blocks, route, sign, reference in route_cases(ring, a, b, x, n):
        expect = ring.coerce(reference)
        for evaluate in (_sweep_sum, _walk_sum):
            got = _apply_sign(sign, evaluate(ring, blocks, route))
            assert got == expect, (name, evaluate.__name__)


ROUTE_SHAPES = [(0, 0), (0, 3), (1, 0), (1, 1), (1, 4), (2, 0), (2, 1), (2, 3), (2, 5),
                (3, 2), (3, 4), (3, 6), (4, 3), (4, 4), (4, 6), (5, 3), (5, 5),
                (6, 3), (6, 4), (7, 3), (7, 4)]

ROUTE_INPUTS = {
    "random": lambda a, b: (a, b),
    "A equals B": lambda a, b: (a, [row[:] for row in a]),
    "zero column": lambda a, b: ([[0] * min(1, len(row)) + row[1:] for row in a], b),
}


@pytest.mark.parametrize("kind", sorted(ROUTE_INPUTS))
@pytest.mark.parametrize("m,n", ROUTE_SHAPES)
def test_sweep_and_walk_match_leibniz_on_integers_and_fractions(kind, m, n):
    rng = random.Random(11000 * m + 10 * n + len(kind))
    a, b = ROUTE_INPUTS[kind](rand_rows(rng, m, n), rand_rows(rng, m, n))
    assert_both_evaluators_match(ZZ, a, b, rand_rows(rng, n, n), n)
    if n:
        a, b = ROUTE_INPUTS[kind](rand_fractions(rng, m, n), rand_fractions(rng, m, n))
    assert_both_evaluators_match(QQ, a, b, rand_fractions(rng, n, n), n)


@pytest.mark.parametrize("m,n", [(0, 2), (1, 0), (1, 3), (2, 3), (3, 2), (3, 4), (4, 3),
                                 (4, 4), (5, 3)])
def test_sweep_and_walk_match_leibniz_on_polynomials(m, n):
    poly = PolynomialRing(("s", "t"))
    s, t = poly.gens()
    rng = random.Random(12000 * m + n)

    def rows(r, c):
        # a third of the entries linear in s and t, the rest constants
        return [[v * s + rng.randint(-2, 2) * t if rng.random() < 0.34 else poly.coerce(v)
                 for v in row] for row in rand_rows(rng, r, c, bound=3)]

    assert_both_evaluators_match(poly, rows(m, n), rows(m, n), rows(n, n), n)


class DivisionUsed(AssertionError):
    pass


# shapes on which the chooser takes the sweep for every route named, on
# every ring
SWEEP_SHAPES = {"minor": [(4, 8), (3, 9)], "chain": [(4, 6), (5, 7), (6, 8)],
                "f": [(4, 8), (4, 9)], "g": [(3, 8), (3, 9)]}


def test_sweep_divides_nothing(monkeypatch):
    def refuse(*args):
        raise DivisionUsed("the sweep divided")

    monkeypatch.setattr(IntegerRing, "exact_divide", refuse)
    monkeypatch.setattr(RationalRing, "exact_divide", refuse)
    monkeypatch.setattr(Poly, "exact_div", refuse)
    poly = PolynomialRing(("s", "t"))
    s, t = poly.gens()
    rng = random.Random(13)
    for kind, shapes in SWEEP_SHAPES.items():
        for m, n in shapes:
            a, b, x = rand_rows(rng, m, n), rand_rows(rng, m, n), rand_rows(rng, n, n)
            a_poly = [[v * s + t if (i + j) % 3 == 0 else v for j, v in enumerate(row)]
                      for i, row in enumerate(a)]
            for ring, rows in ((ZZ, a), (QQ, a), (poly, a_poly)):
                A, B, X = Matrix(ring, rows), Matrix(ring, b), Matrix(ring, x)
                if kind == "minor":
                    route, width = _minor_route(m, n), 1
                    minor_sum(A)
                elif kind == "chain":
                    route, width = _chain_route(m, n, True), 2
                    assert _sweep_is_cheaper(_chain_route(m, n, False), n, 2, False)
                    for weak_within in (True, False):
                        _chain_sum(A, B, weak_within)
                else:
                    route, width = _pair_route(n, (m + 1) // 2), 2
                    (g_AB if m % 2 else f_AB)(A, B, X)
                for polynomial in (False, True):
                    assert _sweep_is_cheaper(route, n, width, polynomial), (kind, m, n)
    # and the walk on the same route does divide
    A = Matrix(ZZ, rand_rows(rng, 4, 8))
    with pytest.raises(DivisionUsed):
        _walk_sum(ZZ, [A._rows], _minor_route(4, 8))


def test_sixteen_rows_take_the_walks_single_path():
    # a square minor sum and f_AB at m = 2n have one pick, which the chooser
    # gives to the walk rather than the sweep's 2^16 row subsets
    rng = random.Random(14)
    a = rand_rows(rng, 16, 16)
    t0 = time.perf_counter()
    got = minor_sum(Matrix(ZZ, a))
    elapsed = time.perf_counter() - t0
    assert got == gauss_det(a)
    assert elapsed < 1.0, f"16 x 16 minor sum took {elapsed:.2f} s"
    a, b, x = rand_rows(rng, 16, 8), rand_rows(rng, 16, 8), rand_rows(rng, 8, 8)
    t0 = time.perf_counter()
    got = f_AB(Matrix(ZZ, a), Matrix(ZZ, b), Matrix(ZZ, x))
    elapsed = time.perf_counter() - t0
    # the one term: I = J = all eight columns
    assert got == gauss_det(x) * gauss_det([ra + rb for ra, rb in zip(a, b)])
    assert elapsed < 1.0, f"f_AB at (16, 8) took {elapsed:.2f} s"


def test_choice_of_evaluator_depends_on_the_shape_and_kind_of_ring(monkeypatch):
    # integers and rationals of one shape take one evaluator, as do any two
    # polynomial inputs of one shape, whatever their entries; polynomials
    # take the sweep wherever integers do, and on more shapes
    calls = []

    def recording(evaluate):
        def wrapper(ring, blocks, route):
            calls.append((evaluate.__name__, len(route), len(blocks[0][0])))
            return evaluate(ring, blocks, route)
        return wrapper

    for evaluate in (_sweep_sum, _walk_sum):
        monkeypatch.setattr(identities, evaluate.__name__, recording(evaluate))
    poly = PolynomialRing(("s",))
    s = poly.gen("s")
    rng = random.Random(15)
    seen = {}
    for name, ring, entry in (("int", ZZ, int), ("rat", QQ, Fraction),
                              ("constant poly", poly, poly.coerce),
                              ("poly", poly, lambda v: v * s + 1)):
        calls.clear()
        for m in range(1, 7):
            for n in range(1, 9):
                A, B, X = (Matrix(ring, [[entry(v) for v in row] for row in rand_rows(rng, r, n)])
                           for r in (m, m, n))
                minor_sum(A)
                _chain_sum(A, B, True)
                _chain_sum(A, B, False)
                (g_AB if m % 2 else f_AB)(A, B, X)
        seen[name] = list(calls)
    assert seen["int"] == seen["rat"]
    assert seen["constant poly"] == seen["poly"]
    assert len(seen["int"]) == len(seen["poly"])
    pairs = list(zip(seen["int"], seen["poly"]))
    assert all(p[0] == "_sweep_sum" for i, p in pairs if i[0] == "_sweep_sum")
    assert any(i[0] == "_walk_sum" and p[0] == "_sweep_sum" for i, p in pairs)
    assert {name for name, _, _ in seen["int"]} == {"_sweep_sum", "_walk_sum"}
    # a square minor sum and f_AB at m = 2n stay on the walk's one pick
    for polynomial in (False, True):
        assert not _sweep_is_cheaper(_minor_route(16, 16), 16, 1, polynomial)
        assert not _sweep_is_cheaper(_pair_route(8, 8), 8, 2, polynomial)

# -- edge shapes --------------------------------------------------------------

EDGE_RINGS = [ZZ, PolynomialRing(("s", "t"))]


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=["ZZ", "Poly"])
@pytest.mark.parametrize("n", range(0, 4))
def test_minor_sum_of_no_rows_is_one(ring, n):
    assert minor_sum(Matrix(ring, [], ncols=n)) == ring.one


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=["ZZ", "Poly"])
def test_minor_sum_of_one_row_is_its_row_sum(ring):
    s, t = (ring.gen(v) for v in ("s", "t")) if ring is not ZZ else (3, -7)
    row = [2, s, 0, t, -5]
    expect = sum((ring.coerce(x) for x in row), ring.zero)
    assert minor_sum(Matrix(ring, [row])) == expect
    assert minor_sum(Matrix(ring, [[0, 0, 0]])) == ring.zero


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=["ZZ", "Poly"])
@pytest.mark.parametrize("m,n", [(2, 1), (3, 2), (4, 0), (5, 3)])
def test_minor_sum_is_zero_when_overdetermined(ring, m, n):
    rows = [[i + j + 1 for j in range(n)] for i in range(m)]
    assert minor_sum(Matrix(ring, rows, ncols=n)) == ring.zero


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=["ZZ", "Poly"])
@pytest.mark.parametrize("n", range(0, 4))
def test_chain_sums_of_no_rows_are_one(ring, n):
    A, B = Matrix(ring, [], ncols=n), Matrix(ring, [], ncols=n)
    for weak_within in (True, False):
        assert _chain_sum(A, B, weak_within) == ring.one


@pytest.mark.parametrize("ring", EDGE_RINGS, ids=["ZZ", "Poly"])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_zero_row_checks_pass_with_one(ring, n):
    A, B = Matrix(ring, [], ncols=n), Matrix(ring, [], ncols=n)
    Y = Matrix(ring, [[j - i for j in range(n)] for i in range(n)], ncols=n)
    for rep in (check_ab2(A, B), check_iswa(A, Y), check_cauchy_binet_pf(A, B)):
        assert rep.passed
        assert (rep.lhs, rep.rhs) == ("1", "1")
