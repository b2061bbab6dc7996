"""Symmetric polynomials in finitely many variables.

Skew Schur polynomials through the Jacobi-Trudi determinant (`matrix.det`,
division-free on polynomials), and a checker for the Cauchy-type Pfaffian
identity that couples an x-variable block with a y-variable block.  Both
read the complete homogeneous polynomials h_0..h_d of a block from one
table (`_h_table`).  The checker's coupled matrix is the paper's skew form
Y(H(x), U + Id, H(y)) (`matrix._form_rows`), where H(x) is the m x n
matrix with entries h_{k-i}(x).

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
from .identities import IdentityReport
from .matrix import Matrix, _form_rows, _running_sums, _wrap, det, pfaffian
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


def _h_table(ring: PolynomialRing, degree: int, block: Sequence[Poly]) -> list:
    """[h_0, ..., h_degree] of the block, in one pass: built one variable
    at a time by h_d(x_1..x_k) = h_d(x_1..x_{k-1}) + x_k h_{d-1}(x_1..x_k),
    which computes every lower degree on the way to the top one."""
    h = [ring.one] + [ring.zero] * degree  # h_0..h_degree of no variables
    for g in block:
        for d in range(1, degree + 1):
            h[d] = h[d] + g * h[d - 1]
    return h


def _h_matrix(ring: PolynomialRing, h: list, m: int, n: int) -> Matrix:
    """The m x n matrix H with H_ik = h_{k-i}, from the table [h_0, ...]
    (_h_table) of degree at least n - 1; zero below the diagonal."""
    return _wrap(ring, (tuple(h[k - i] if k >= i else ring.zero for k in range(n))
                        for i in range(m)), n)


def _padded(lam: Sequence[int], mu: Sequence[int]):
    """(lam, mu) as partitions padded with zeros to one length, or None
    when mu is not contained in lam."""
    lam = as_partition(lam)
    mu = as_partition(mu)
    size = max(len(lam), len(mu))
    lam = lam + (0,) * (size - len(lam))
    mu = mu + (0,) * (size - len(mu))
    if any(m > l for l, m in zip(lam, mu)):
        return None
    return lam, mu


def _jacobi_trudi(ring: PolynomialRing, lam: tuple, mu: tuple, h: list) -> Poly:
    # det(h_{lam_j - j - mu_i + i}) for padded shapes with mu inside lam;
    # the table h = [h_0, h_1, ...] must reach lam_1 - 1 + len - mu_len
    zero = ring.zero
    size = len(lam)
    rows = (
        tuple(h[d] if d >= 0 else zero for d in (lam[j] - j - mu[i] + i for j in range(size)))
        for i in range(size)
    )
    return det(_wrap(ring, rows, size))


def skew_schur(
    ring: PolynomialRing,
    lam: Sequence[int],
    mu: Sequence[int],
    block: Sequence[Poly],
) -> Poly:
    """Skew Schur polynomial via the Jacobi-Trudi determinant.

    Entry (i, j) of the matrix is h_{lam_j - j - mu_i + i}; the shorter
    partition is padded with zeros.  When mu is not contained in lam the
    determinant vanishes, so 0 is returned directly.  The entries come from
    one table h_0..h_D (`_h_table`), D the largest index in the matrix.
    """
    shapes = _padded(lam, mu)
    if shapes is None:
        return ring.zero
    lam, mu = shapes
    top = lam[0] - 1 + len(lam) - mu[-1] if lam else 0
    return _jacobi_trudi(ring, lam, mu, _h_table(ring, top, block))


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
    ring, xs, ys = xy_ring(kx, ky)
    half = m // 2

    # one table per block: a skew Schur here has half rows and
    # lambda(I)_1 <= n - half, so its Jacobi-Trudi indices stay below n,
    # as do those of H(x) and H(y)
    h_x = _h_table(ring, n - 1, xs)
    h_y = _h_table(ring, n - 1, ys)

    # LHS: enumerate (I, J) pairs once, reuse skew Schur values across splits
    half_subsets = list(subsets(n, half))
    pairs = []
    for I in half_subsets:
        lam_i = lambda_of(I)
        for J in half_subsets:
            lam_j = lambda_of(J)
            if is_horizontal_strip(lam_j, lam_i):
                pairs.append((lam_i, lam_j))

    def skew_schur_from(h):
        @cache
        def s(lam, mu) -> Poly:
            shapes = _padded(lam, mu)
            return ring.zero if shapes is None else _jacobi_trudi(ring, *shapes, h)
        return s

    s_x, s_y = skew_schur_from(h_x), skew_schur_from(h_y)

    # one fused sum over the signed (s_x, s_y) products
    xs_terms, ys_terms = [], []
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
            xs_terms.append(-a if negative else a)
            ys_terms.append(b)
    lhs = ring.dot(xs_terms, ys_terms)

    # RHS: the paper's skew form, H(x)(U + Id) being H(x)'s running sums
    H_x, H_y = (_h_matrix(ring, h, m, n) for h in (h_x, h_y))
    rhs = pfaffian(_form_rows(ring, _running_sums(H_x._rows, ring.zero), H_y._rows))

    passed = lhs == rhs
    details = {"strip_pairs": len(pairs)}
    return IdentityReport(
        "cauchy", {"identity": "cauchy", "m": m, "n": n, "kx": kx, "ky": ky},
        lhs, rhs, passed, details, ring=ring,
    )
