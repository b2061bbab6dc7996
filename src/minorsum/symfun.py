"""Symmetric polynomials in finitely many variables.

Complete homogeneous symmetric polynomials, skew Schur polynomials through
the Jacobi-Trudi determinant (`matrix.det`, division-free on polynomials),
and a checker for the Cauchy-type Pfaffian identity that couples an
x-variable block with a y-variable block.  Its coupled matrix is the
paper's skew form Y(H(x), U + Id, H(y)) (`matrix.skew_form`), where
H(x) is the m x n matrix with entries h_{k-i}(x).

Everything is truncated to a declared finite variable set, so both sides of
the coupled identity are ordinary polynomials and comparison is exact.  The
two blocks share one ring with the x-variables ordered before the
y-variables, which fixes a single canonical form for cross products.
"""

from __future__ import annotations

from functools import cache
from typing import Sequence

from .combinat import as_partition, is_horizontal_strip, lambda_of, subsets
from .errors import ParityError, ShapeError
from .identities import _digest_of, IdentityReport
from .matrix import Matrix, det, identity, pfaffian_matchings, skew_form, upper_ones
from .ring import Poly, PolynomialRing


def xy_ring(kx: int, ky: int):
    """Shared polynomial ring over x1..x<kx>, y1..y<ky>.

    Returns (ring, x_block, y_block) where the blocks are tuples of
    generators.  kx or ky may be 0 when only one block is needed.
    """
    if kx < 0 or ky < 0:
        raise ShapeError(f"variable counts must be non-negative, got {kx}, {ky}")
    names = tuple(f"x{i}" for i in range(1, kx + 1)) + tuple(
        f"y{i}" for i in range(1, ky + 1)
    )
    ring = PolynomialRing(names)
    gens = ring.gens()
    return ring, gens[:kx], gens[kx:]


def h_complete(ring: PolynomialRing, degree: int, block: Sequence[Poly]) -> Poly:
    """Complete homogeneous symmetric polynomial of the given degree.

    Sum of all monomials x_{i_1}...x_{i_d} with i_1 <= ... <= i_d drawn
    from the block.  degree 0 gives 1; negative degree gives 0 (the
    convention the Jacobi-Trudi determinant relies on).  Built one variable
    at a time by h_d(x_1..x_k) = h_d(x_1..x_{k-1}) + x_k h_{d-1}(x_1..x_k).
    """
    if degree < 0:
        return ring.zero
    h = [ring.one] + [ring.zero] * degree  # h_0..h_degree of no variables
    for g in block:
        for d in range(1, degree + 1):
            h[d] = h[d] + g * h[d - 1]
    return h[degree]


def skew_schur(
    ring: PolynomialRing,
    lam: Sequence[int],
    mu: Sequence[int],
    block: Sequence[Poly],
) -> Poly:
    """Skew Schur polynomial via the Jacobi-Trudi determinant.

    Entry (i, j) of the matrix is h_{lam_j - j - mu_i + i}; the shorter
    partition is padded with zeros.  When mu is not contained in lam the
    determinant vanishes, so 0 is returned directly.
    """
    lam = as_partition(lam)
    mu = as_partition(mu)
    size = max(len(lam), len(mu))
    lam = lam + (0,) * (size - len(lam))
    mu = mu + (0,) * (size - len(mu))
    if any(m > l for l, m in zip(lam, mu)):
        return ring.zero
    if size == 0:
        return ring.one

    @cache
    def h(d: int) -> Poly:
        return h_complete(ring, d, block)

    rows = [
        [h(lam[j] - (j + 1) - mu[i] + (i + 1)) for j in range(size)]
        for i in range(size)
    ]
    return det(Matrix(ring, rows))


def check_cauchy(m: int, n: int, kx: int, ky: int) -> IdentityReport:
    """Cauchy-type identity coupling skew Schur polynomials in two blocks.

    LHS: over all splits of {1..m} into halves R and S, with sign
    (-1)^{sum_{r in R}(r-1)}, sum s_{lambda(I)/lambda(R)}(x) *
    s_{lambda(J)/lambda(S)}(y) over half-size I, J in {1..n} such that
    lambda(J)/lambda(I) is a horizontal strip.

    RHS: the m x m Pfaffian whose (i, j) entry is
    sum_{1<=k<=l<=n} (h_{k-i}(x)h_{l-j}(y) - h_{l-i}(y)h_{k-j}(x)),
    that is of Y(H(x), U + Id, H(y)) with H(x)_ik = h_{k-i}(x).
    """
    if m % 2:
        raise ParityError(f"coupled identity needs even m, got {m}")
    if m <= 0 or n <= 0:
        raise ShapeError(f"m and n must be positive, got {m}, {n}")
    if kx < 1 or ky < 1:
        raise ShapeError(f"need at least one variable per block, got {kx}, {ky}")
    digest = _digest_of(identity="cauchy", m=m, n=n, kx=kx, ky=ky)
    ring, xs, ys = xy_ring(kx, ky)
    half = m // 2

    @cache
    def h_x(d: int) -> Poly:
        return h_complete(ring, d, xs)

    @cache
    def h_y(d: int) -> Poly:
        return h_complete(ring, d, ys)

    # LHS: enumerate (I, J) pairs once, reuse skew Schur values across splits
    half_subsets = list(subsets(n, half))
    pairs = []
    for I in half_subsets:
        lam_i = lambda_of(I)
        for J in half_subsets:
            lam_j = lambda_of(J)
            if is_horizontal_strip(lam_j, lam_i):
                pairs.append((lam_i, lam_j))

    @cache
    def s_x(lam, mu) -> Poly:
        return skew_schur(ring, lam, mu, xs)

    @cache
    def s_y(lam, mu) -> Poly:
        return skew_schur(ring, lam, mu, ys)

    lhs = ring.zero
    for R in subsets(m, half):
        S = R.complement()
        negative = sum(r - 1 for r in R) % 2 == 1
        lam_r = lambda_of(R)
        lam_s = lambda_of(S)
        for lam_i, lam_j in pairs:
            a = s_x(lam_i, lam_r)
            if not a:
                continue
            b = s_y(lam_j, lam_s)
            if not b:
                continue
            term = a * b
            lhs = lhs + (-term if negative else term)

    # RHS: the coupled h-matrix as the paper's skew form
    H_x, H_y = (
        Matrix(ring, [[h(k - i) for k in range(n)] for i in range(m)])
        for h in (h_x, h_y)
    )
    UI = upper_ones(n, ring) + identity(n, ring)
    rhs = pfaffian_matchings(skew_form(H_x, UI, H_y))

    passed = lhs == rhs
    details = {"strip_pairs": len(pairs)}
    return IdentityReport("cauchy", digest, lhs, rhs, passed, details, ring=ring)
