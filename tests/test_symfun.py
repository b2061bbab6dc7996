import itertools
import time

import pytest

from oracles import expansion_pfaffian, identity, tableau_schur, upper_ones
from minorsum import (
    Matrix,
    ParityError,
    ShapeError,
    check_ab2,
    check_cauchy,
    pfaffian_bareiss,
    skew_schur,
    xy_ring,
)
from minorsum.identities import _chain_route, _chain_sum, _sweep_is_cheaper
from minorsum.matrix import skew_form
from minorsum.symfun import _h_matrix, _h_table


def permute_exponents(ring, p, perm):
    """Apply a permutation of the ring's variables to a polynomial."""
    from minorsum import Poly

    out = {}
    for exps, c in p.terms.items():
        new = [0] * len(exps)
        for pos, e in enumerate(exps):
            new[perm[pos]] = e
        out[tuple(new)] = c
    return Poly(ring.vars, out)


def box_partitions(rows, cols):
    """All partitions fitting in a rows x cols box, including the empty one."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if remaining == 0:
            return
        for part in range(min(cap, cols), 0, -1):
            rec(prefix + [part], remaining - 1, part)

    rec([], rows, cols)
    return [p for p in out]


def sub_partitions(lam):
    """All partitions contained in lam."""
    if not lam:
        return [()]
    found = set()
    for combo in itertools.product(*[range(part + 1) for part in lam]):
        if all(combo[i] >= combo[i + 1] for i in range(len(combo) - 1)):
            found.add(tuple(x for x in combo if x))
    return sorted(found)


# -- ring construction ---------------------------------------------------


def test_xy_ring_blocks():
    ring, xs, ys = xy_ring(2, 3)
    assert [ring.format(x) for x in xs] == ["x1", "x2"]
    assert [ring.format(y) for y in ys] == ["y1", "y2", "y3"]
    ring0, xs0, ys0 = xy_ring(1, 0)
    assert len(xs0) == 1 and ys0 == ()
    with pytest.raises(ShapeError):
        xy_ring(-1, 2)


# -- complete homogeneous polynomials -------------------------------------


def test_h_complete_values():
    ring, xs, _ = xy_ring(2, 0)
    x1, x2 = xs
    assert _h_table(ring, 3, xs) == [
        ring.one,
        x1 + x2,
        x1**2 + x1 * x2 + x2**2,
        x1**3 + x1**2 * x2 + x1 * x2**2 + x2**3,
    ]
    assert _h_table(ring, 0, xs) == [ring.one]


def test_h_complete_term_count():
    # number of degree-d monomials in k variables is C(d+k-1, d)
    import math

    ring, xs, _ = xy_ring(3, 0)
    for d in range(6):
        assert len(_h_table(ring, d, xs)[d].terms) == math.comb(d + 2, d)


# -- skew Schur polynomials -------------------------------------------------


def test_skew_schur_base_cases():
    ring, xs, _ = xy_ring(2, 0)
    assert skew_schur(ring, (), (), xs) == ring.one
    assert skew_schur(ring, (1,), (), xs) == _h_table(ring, 1, xs)[1]
    assert skew_schur(ring, (2, 1), (2, 1), xs) == ring.one
    # mu not inside lam: determinant vanishes
    assert skew_schur(ring, (1,), (2,), xs) == ring.zero
    assert skew_schur(ring, (2, 1), (1, 1, 1), xs) == ring.zero


def test_skew_schur_frozen_s21():
    ring, xs, _ = xy_ring(2, 0)
    assert ring.format(skew_schur(ring, (2, 1), (), xs)) == "x1^2*x2 + x1*x2^2"


def test_skew_schur_matches_tableau_oracle_3x3_box():
    ring, xs, _ = xy_ring(3, 0)
    lams = box_partitions(3, 3)
    assert len(lams) == 20
    pairs = 0
    for lam in lams:
        for mu in sub_partitions(lam):
            assert skew_schur(ring, lam, mu, xs) == tableau_schur(ring, lam, mu, xs)
            pairs += 1
    assert pairs > 100


@pytest.mark.parametrize(
    "lam, mu",
    [((3,) * 8, ()), ((3, 3, 3, 2, 2, 2, 1, 1), (3, 2, 2, 2, 1, 1))],
)
def test_skew_schur_eight_rows_without_cofactor_expansion(lam, mu):
    # an 8 x 8 Jacobi-Trudi matrix takes seconds by cofactor expansion
    ring, xs, _ = xy_ring(3, 0)
    assert skew_schur(ring, lam, mu, xs) == tableau_schur(ring, lam, mu, xs)


def test_skew_schur_is_symmetric():
    ring, xs, _ = xy_ring(3, 0)
    for lam, mu in (((2, 1), ()), ((3, 1), (1,)), ((2, 2, 1), (1, 1))):
        s = skew_schur(ring, lam, mu, xs)
        for perm in itertools.permutations(range(3)):
            assert permute_exponents(ring, s, perm) == s


def test_skew_schur_in_mixed_ring_uses_only_its_block():
    ring, xs, ys = xy_ring(2, 2)
    s = skew_schur(ring, (2,), (), ys)
    y1, y2 = ys
    assert s == y1**2 + y1 * y2 + y2**2


# -- coupled Cauchy-type identity ---------------------------------------------


def test_check_cauchy_small_shapes():
    rep = check_cauchy(2, 2, 1, 1)
    assert rep.passed
    assert rep.identity_id == "cauchy"
    assert rep.lhs == rep.rhs
    assert rep.lhs != "0"
    assert rep.details["strip_pairs"] > 0


def test_check_cauchy_more_variables():
    assert check_cauchy(2, 3, 2, 2).passed


def test_check_cauchy_rejects_bad_shapes():
    with pytest.raises(ParityError):
        check_cauchy(3, 3, 1, 1)
    with pytest.raises(ShapeError):
        check_cauchy(2, 0, 1, 1)
    with pytest.raises(ShapeError):
        check_cauchy(2, 2, 0, 1)


def test_cauchy_rhs_is_h_matrix_pfaffian():
    # the coupled-entry matrix is exactly A(U+Id)B^t - B(U^t+Id)A^t for the
    # h-matrices A_ij = h_{j-i}(x), B_ij = h_{j-i}(y); cross-check the
    # reported Pfaffian against that product form, then against the even
    # chain-sum identities on the same inputs
    m, n, k = 2, 3, 2
    ring, xs, ys = xy_ring(k, k)
    A, B = (Matrix(ring, [[h[j - i] if j >= i else 0 for j in range(n)] for i in range(m)])
            for h in (_h_table(ring, n - 1, block) for block in (xs, ys)))
    U = upper_ones(n, ring)
    Id = identity(n, ring)
    pf = pfaffian_bareiss(A @ (U + Id) @ B.T - B @ (U.T + Id) @ A.T)
    rep = check_cauchy(m, n, k, k)
    assert rep.passed
    assert ring.format(pf) == rep.rhs
    assert check_ab2(A, B).passed


def test_cauchy_pfaffian_is_the_weak_chain_sum_of_the_h_matrices():
    # By the Ishikawa-Wakayama expansion of Pf(M Z M^t), M = [H(x) | H(y)],
    # check_cauchy's right side Pf(Y(H(x), U + Id, H(y))) is the ab2 weak
    # chain sum of the h-matrices; the sweep takes it at (4,6,3,3), while
    # the walk took about a second, and the Pfaffian side is expanded along
    # its first row
    m, n, kx, ky = 4, 6, 3, 3
    ring, xs, ys = xy_ring(kx, ky)
    H_x, H_y = (_h_matrix(ring, _h_table(ring, n - 1, block), m, n) for block in (xs, ys))
    assert _sweep_is_cheaper(_chain_route(m, n, True), n, 2, True)
    t0 = time.perf_counter()
    chain = _chain_sum(H_x, H_y, weak_within=True)
    elapsed = time.perf_counter() - t0
    UI = upper_ones(n, ring) + identity(n, ring)
    assert chain == expansion_pfaffian(skew_form(H_x, UI, H_y)._rows)
    assert chain
    assert elapsed < 5.0, f"weak chain sum took {elapsed:.2f} s"
