"""Reference computations for checking minorsum's outputs.

Stdlib only, and written without minorsum: exact determinants by Fraction
Gaussian elimination, Pfaffians by skew Schur-complement elimination,
free-endpoint path counts as a Lindstrom-Gessel-Viennot sum of binomial
determinants, skew Schur values by tableau enumeration, and an evaluator
for the printed polynomial text, used to specialise symbolic results at an
integer point (Schwartz-Zippel).

Matrices are lists of rows of ints or Fractions.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from itertools import combinations


def _integral(x):
    """Fraction results of integer inputs are integers; return them as int."""
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError(f"non-integral reference value {x}")
        return x.numerator
    return x


def det(rows) -> int:
    """Determinant by Gaussian elimination over the rationals."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    value = Fraction(1)
    for k in range(n):
        p = next((r for r in range(k, n) if a[r][k] != 0), None)
        if p is None:
            return 0
        if p != k:
            a[k], a[p] = a[p], a[k]
            value = -value
        pivot = a[k][k]
        value *= pivot
        for i in range(k + 1, n):
            f = a[i][k] / pivot
            if f:
                ai, ak = a[i], a[k]
                for j in range(k + 1, n):
                    ai[j] -= f * ak[j]
    return _integral(value)


def pfaffian(rows) -> int:
    """Pfaffian of a skew-symmetric matrix by eliminating a 2x2 block at a
    time: Pf(A) = a * Pf(S) with a = A[k][k+1] and the skew Schur
    complement S[i][j] = A[i][j] + (A[k+1][i] A[k][j] - A[k][i] A[k+1][j]) / a.
    Swapping index k+1 with another index negates the Pfaffian."""
    n = len(rows)
    a = [[Fraction(v) for v in row] for row in rows]
    for i in range(n):
        if len(a[i]) != n:
            raise ValueError("pfaffian needs a square matrix")
        for j in range(i, n):
            if a[i][j] != -a[j][i]:
                raise ValueError("pfaffian needs a skew-symmetric matrix")
    if n % 2:
        return 0
    value = Fraction(1)
    for k in range(0, n, 2):
        p = next((j for j in range(k + 1, n) if a[k][j] != 0), None)
        if p is None:
            return 0
        if p != k + 1:
            a[k + 1], a[p] = a[p], a[k + 1]
            for row in a:
                row[k + 1], row[p] = row[p], row[k + 1]
            value = -value
        piv = a[k][k + 1]
        value *= piv
        rk, rk1 = a[k], a[k + 1]
        for i in range(k + 2, n):
            ai = a[i]
            u, v = rk1[i], rk[i]
            if u or v:
                for j in range(k + 2, n):
                    ai[j] += (u * rk[j] - v * rk1[j]) / piv
    return _integral(value)


def matmul(x, y):
    cols = list(zip(*y))
    return [[sum(p * q for p, q in zip(row, col)) for col in cols] for row in x]


def transpose(x):
    return [list(col) for col in zip(*x)]


def add(x, y):
    return [[p + q for p, q in zip(r, s)] for r, s in zip(x, y)]


def sub(x, y):
    return [[p - q for p, q in zip(r, s)] for r, s in zip(x, y)]


def upper(n: int):
    """Ones strictly above the diagonal."""
    return [[1 if i < j else 0 for j in range(n)] for i in range(n)]


def ident(n: int):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ones(n: int):
    return [[1] * n for _ in range(n)]


def columns(x, cols):
    return [[row[c] for c in cols] for row in x]


def submatrix(x, rows, cols):
    return [[x[r][c] for c in cols] for r in rows]


def maximal_minor_sum(x) -> int:
    """Sum of all maximal minors of an m x n matrix; 0 when m > n."""
    m, n = len(x), len(x[0]) if x else 0
    return sum(det(columns(x, combo)) for combo in combinations(range(n), m))


def double_minor_sum(a, b, x, bordered: bool) -> int:
    """sum over I, J of det(X_IJ) * det(A^I B^J), with |I| = |J| = m/2, or,
    bordered, det(1 X_IJ) with |I| = (m+1)/2 and |J| = (m-1)/2."""
    m, n = len(a), len(a[0])
    p = (m + 1) // 2 if bordered else m // 2
    q = p - 1 if bordered else p
    total = 0
    for I in combinations(range(n), p):
        for J in combinations(range(n), q):
            xs = submatrix(x, I, J)
            if bordered:
                xs = [[1] + row for row in xs]
            dx = det(xs)
            if dx:
                cat = [[a[r][c] for c in I] + [b[r][c] for c in J] for r in range(m)]
                total += dx * det(cat)
    return total


def path_count(start, end) -> int:
    """North-east lattice paths from start to end."""
    dx, dy = end[0] - start[0], end[1] - start[1]
    return math.comb(dx + dy, dx) if dx >= 0 and dy >= 0 else 0


def free_endpoint_count(starts, ends) -> int:
    """Non-intersecting north-east path families from the staircase starts
    to any |starts| of the staircase ends: a sum over endpoint subsets of
    Lindstrom-Gessel-Viennot determinants of binomial path counts."""
    m = len(starts)
    return sum(
        det([[path_count(s, ends[j]) for j in sel] for s in starts])
        for sel in combinations(range(len(ends)), m)
    )


def complete_h(degree: int, values) -> int:
    """h_degree(values) by h_d(x_1..x_k) = h_d(x_1..x_{k-1}) + x_k h_{d-1}(x_1..x_k)."""
    if degree < 0:
        return 0
    h = [1] + [0] * degree
    for v in values:
        for d in range(1, degree + 1):
            h[d] += v * h[d - 1]
    return h[degree]


def tableau_schur_value(lam, mu, values) -> int:
    """Skew Schur polynomial s_{lam/mu} at the point `values`: the sum over
    semistandard tableaux of shape lam/mu (rows weakly increasing, columns
    strictly increasing, entries 1..len(values)) of prod values[entry-1]."""
    lam = tuple(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam) or any(m > l for l, m in zip(lam, mu)):
        return 0
    cells = [(r, c) for r, (l, m) in enumerate(zip(lam, mu)) for c in range(m, l)]
    k = len(values)
    filling = {}

    def rec(t: int) -> int:
        if t == len(cells):
            return 1
        r, c = cells[t]
        lo = 1
        left = filling.get((r, c - 1))
        if left is not None:
            lo = max(lo, left)
        above = filling.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        total = 0
        for v in range(lo, k + 1):
            filling[(r, c)] = v
            total += values[v - 1] * rec(t + 1)
        filling.pop((r, c), None)
        return total

    return rec(0)


_TERM_SPLIT = re.compile(r"\s+([+-])\s+")
_FACTOR = re.compile(r"^(?:(\d+)|([A-Za-z_][A-Za-z_0-9]*)(?:\^(\d+))?)$")


def eval_poly_text(text: str, point: dict) -> int:
    """Value of a printed polynomial ("2*a1_1^2*b - 3 + x") at integer
    values for its variables.  Accepts the sum-of-products text minorsum
    prints and the benchmark writes; rejects anything else."""
    text = text.strip()
    if not text:
        raise ValueError("empty polynomial text")
    pieces = _TERM_SPLIT.split(text)
    signs = ["+"] + pieces[1::2]
    total = 0
    for sign, term in zip(signs, pieces[0::2]):
        neg = sign == "-"
        if term.startswith("-"):
            neg, term = not neg, term[1:]
        value = 1
        for factor in term.split("*"):
            m = _FACTOR.match(factor)
            if not m:
                raise ValueError(f"cannot evaluate factor {factor!r} in {text!r}")
            num, name, power = m.groups()
            if num is not None:
                value *= int(num)
            else:
                value *= point[name] ** (int(power) if power else 1)
        total += -value if neg else value
    return total
