"""Dense matrices over an exact ring, with fraction-free determinants and
Pfaffians.

Public index arguments (entry, row, column, submatrix, delete_rc, IndexSet)
are 1-based throughout, matching the determinant/Pfaffian notation the
package verifies.  Internal storage is a 0-based tuple of row tuples.

Every kernel is one loop for every ring: arithmetic is the entries' own
operators, zero tests are `not x`, and the two fraction-free eliminations
(the Bareiss determinant and its skew analogue for the Pfaffian, both
O(n^3)) divide with the ring's `exact_divide`.  No Pfaffian kernel calls
a determinant, so Pf^2 = det compares two independent kernels; the
definitions they are tested against live with the tests.

There are two determinant kernels behind `det`: `det_bareiss` (O(n^3),
each step multiplies two minors and divides exactly; fastest on integers
and rationals) and `det_minors` (memoised minors, about n 2^n products of
one entry and one smaller minor, no division; fastest on polynomials).
`det` picks one from the input's ring.  `det_minors` folds one row step,
`_extend_minors`, over the rows; the closed-forms check runs the same
step over a prefix trie of row sets.  That step and the matrix product
form their sums of products with the ring's `dot`, which on polynomials
accumulates every product into one map instead of building each product
and partial sum as its own value.

There are two Pfaffian kernels behind `pfaffian`: `pfaffian_bareiss`
(O(n^3) skew elimination with exact divisions; fastest on integers and
rationals) and `pfaffian_walk` (the memoised expansion along the lowest
index, `_pfaffian_minors`, each minor one `ring.dot`, no division;
fastest on polynomials of small order, but on dense entries its minors
grow exponentially with the order).  `pfaffian` picks one from the
input's ring and order: the walk on polynomial matrices up to order 12,
the elimination otherwise.  `_pfaffian_minors` is the package's one
division-free Pfaffian expansion; the checkers that read many Pfaffian
minors of one matrix read them from one such memo.

Every identity in the paper is about one skew matrix,
Y(A, X, B) = AXB^t - BX^tA^t: `skew_form` builds it as P - P^t with
P = AXB^t, and `rank_one_form` builds the determinant side
AXB^t + B(J - X^t)A^t = Y(A, X, B) + (B 1)(A 1)^t, a skew matrix plus a
rank-one matrix.  One body, `_form_rows`, dots the rows of AX with those
of B for P's entries and writes each entry of the result, rank-one term
included, in one pass; both forms give it the dots of A's rows with X's
columns.  At X = U, U + Id and Id, AX needs no dot: AU and A(U + Id) are
running sums of A's rows (`_running_sums`), so `okada_pfaffian` and
`byun_determinant` (the Pfaffian and the determinant that compress a sum
of maximal minors) and the checkers build no 0/1 matrix.

Only the `Matrix` constructor coerces its entries; the builders here
wrap ring elements they made themselves.
"""

from __future__ import annotations

from itertools import accumulate, compress
from typing import Sequence

from .combinat import IndexSet
from .errors import (
    IndexRangeError,
    RingMismatchError,
    ShapeError,
    SkewSymmetryError,
)
from .ring import PolynomialRing, Ring, ring_from_json_tag


def _as_positions(dim: int, which) -> tuple:
    """Normalize a 1-based index collection to a 0-based position tuple."""
    if isinstance(which, IndexSet):
        idx = which.indices
    else:
        idx = tuple(which)
        for a, b in zip(idx, idx[1:]):
            if a >= b:
                raise IndexRangeError(f"indices {idx} not strictly increasing")
    if idx and (idx[0] < 1 or idx[-1] > dim):
        raise IndexRangeError(f"indices {idx} outside [1, {dim}]")
    return tuple(i - 1 for i in idx)


def _wrap(ring: Ring, rows, ncols: int) -> "Matrix":
    """Matrix on trusted rows: equal-length tuples of elements of `ring`."""
    out = Matrix.__new__(Matrix)
    out._rows = tuple(rows)
    out.ring, out.nrows, out.ncols = ring, len(out._rows), ncols
    return out


class Matrix:
    __slots__ = ("ring", "nrows", "ncols", "_rows")

    def __init__(self, ring: Ring, entries: Sequence[Sequence], ncols: int | None = None):
        rows = [tuple(map(ring.coerce, row)) for row in entries]
        if rows:
            width = len(rows[0])
            for r in rows:
                if len(r) != width:
                    raise ShapeError("ragged rows")
        else:
            width = 0
        if ncols is not None:
            if rows and ncols != width:
                raise ShapeError(f"ncols={ncols} but rows have width {width}")
            width = ncols
        self.ring = ring
        self.nrows = len(rows)
        self.ncols = width
        self._rows = tuple(rows)

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, ring: Ring, m: int, n: int) -> "Matrix":
        return _wrap(ring, ((ring.zero,) * n for _ in range(m)), n)

    # -- basic accessors ----------------------------------------------

    def entry(self, i: int, j: int):
        """Entry at 1-based position (i, j)."""
        if not (1 <= i <= self.nrows and 1 <= j <= self.ncols):
            raise IndexRangeError(f"({i}, {j}) outside {self.nrows}x{self.ncols}")
        return self._rows[i - 1][j - 1]

    def row(self, i: int) -> tuple:
        if not 1 <= i <= self.nrows:
            raise IndexRangeError(f"row {i} outside 1..{self.nrows}")
        return self._rows[i - 1]

    def column(self, j: int) -> tuple:
        if not 1 <= j <= self.ncols:
            raise IndexRangeError(f"column {j} outside 1..{self.ncols}")
        return tuple(r[j - 1] for r in self._rows)

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and self.ring == other.ring
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self._rows == other._rows
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self._rows))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format(x) for x in row) for row in self._rows
        )
        return f"Matrix[{self.nrows}x{self.ncols} over {self.ring.name}]({body})"

    # -- arithmetic ----------------------------------------------------

    def _check_same_ring(self, other: "Matrix"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring!r} vs {other.ring!r}")

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("size mismatch in matrix addition")
        rows = (
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )
        return _wrap(self.ring, rows, self.ncols)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_same_ring(other)
        if (self.nrows, self.ncols) != (other.nrows, other.ncols):
            raise ShapeError("size mismatch in matrix subtraction")
        rows = (
            tuple(a - b for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )
        return _wrap(self.ring, rows, self.ncols)

    def __neg__(self) -> "Matrix":
        return _wrap(self.ring, (tuple(-a for a in r) for r in self._rows), self.ncols)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_same_ring(other)
        if self.ncols != other.nrows:
            raise ShapeError(
                f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}"
            )
        dot = self.ring.dot
        bt = list(zip(*other._rows)) if other._rows else [()] * other.ncols
        rows = (tuple(dot(r, col) for col in bt) for r in self._rows)
        return _wrap(self.ring, rows, other.ncols)

    def scale(self, scalar) -> "Matrix":
        c = self.ring.coerce(scalar)
        return _wrap(self.ring, (tuple(c * a for a in r) for r in self._rows), self.ncols)

    def transpose(self) -> "Matrix":
        rows = zip(*self._rows) if self._rows else [()] * self.ncols
        return _wrap(self.ring, rows, self.nrows)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    # -- selection ------------------------------------------------------

    def submatrix(self, rows, cols) -> "Matrix":
        """Submatrix at 1-based row/column index collections (IndexSet or
        strictly increasing iterables)."""
        rp = _as_positions(self.nrows, rows)
        cp = _as_positions(self.ncols, cols)
        src = self._rows
        return _wrap(self.ring, (tuple(src[r][c] for c in cp) for r in rp), len(cp))

    def delete_rc(self, indices) -> "Matrix":
        """Remove the same 1-based rows and columns (Pfaffian minors Y(i,j))."""
        if not self.is_square():
            raise ShapeError("delete_rc needs a square matrix")
        drop = set(_as_positions(self.nrows, indices))
        keep = [i + 1 for i in range(self.nrows) if i not in drop]
        return self.submatrix(keep, keep)

    def columns_at(self, which) -> "Matrix":
        """All rows, 1-based columns `which` (A^I in minor-sum notation)."""
        return self.submatrix(range(1, self.nrows + 1), which)

    # -- predicates -----------------------------------------------------

    def is_skew_symmetric(self) -> bool:
        return _skew_defect(self) is None


def _skew_defect(M: Matrix):
    """None when M is skew-symmetric, else where it fails to be."""
    if not M.is_square():
        return f"Y is {M.nrows}x{M.ncols}, not square"
    rows = M._rows
    for i in range(M.nrows):
        for j in range(i, M.nrows):
            if rows[i][j] + rows[j][i]:
                return f"Y + Y^t is nonzero at ({i + 1}, {j + 1})"
    return None


def require_skew(Y: Matrix, what: str) -> None:
    """Raise SkewSymmetryError unless Y is skew-symmetric."""
    defect = _skew_defect(Y)
    if defect is not None:
        raise SkewSymmetryError(f"{what} needs a skew-symmetric matrix: {defect}")


# -- structured matrices -------------------------------------------------


def upper_ones(n: int, ring: Ring) -> Matrix:
    """U_n: 1 strictly above the diagonal, 0 elsewhere."""
    one, zero = ring.one, ring.zero
    return _wrap(ring, (tuple(one if i < j else zero for j in range(n)) for i in range(n)), n)


def all_ones(n: int, ring: Ring) -> Matrix:
    return _wrap(ring, ((ring.one,) * n for _ in range(n)), n)


def identity(n: int, ring: Ring) -> Matrix:
    one, zero = ring.one, ring.zero
    return _wrap(ring, (tuple(one if i == j else zero for j in range(n)) for i in range(n)), n)


def concat_columns(blocks: Sequence[Matrix]) -> Matrix:
    """Column concatenation of matrices with equal row counts and ring."""
    blocks = list(blocks)
    if not blocks:
        raise ShapeError("concat_columns needs at least one block")
    first = blocks[0]
    for b in blocks[1:]:
        if b.ring != first.ring:
            raise RingMismatchError("concat_columns blocks over different rings")
        if b.nrows != first.nrows:
            raise ShapeError("concat_columns blocks with different row counts")
    rows = (tuple(x for b in blocks for x in b._rows[r]) for r in range(first.nrows))
    return _wrap(first.ring, rows, sum(b.ncols for b in blocks))


def augment_hat(A: Matrix) -> Matrix:
    """(m+1) x (n+1) augmentation: A in the top-left block, 1 in the new
    bottom-right corner, 0 elsewhere.  Preserves the sum of maximal minors
    and makes the minor order even."""
    ring = A.ring
    zero, one = ring.zero, ring.one
    rows = [r + (zero,) for r in A._rows]
    rows.append(tuple([zero] * A.ncols + [one]))
    return _wrap(ring, rows, A.ncols + 1)


def outer_product(ring: Ring, a: Sequence, b: Sequence) -> Matrix:
    """Rank-one matrix (a_i * b_j)."""
    av = [ring.coerce(x) for x in a]
    bv = [ring.coerce(x) for x in b]
    return _wrap(ring, (tuple(x * y for y in bv) for x in av), len(bv))


def _form(A: Matrix, X: Matrix, B: Matrix, rank_one: bool) -> Matrix:
    """P - P^t with P = AXB^t, plus (B 1)(A 1)^t when `rank_one`: a row of
    AX is the dots of a row of A with X's columns, and _form_rows does the
    rest.  Raises the errors of A @ X @ B.T - its transpose."""
    A._check_same_ring(X)
    A._check_same_ring(B)
    if A.ncols != X.nrows or X.ncols != B.ncols or A.nrows != B.nrows:
        raise ShapeError(f"cannot form AXB^t from {A.nrows}x{A.ncols}, "
                         f"{X.nrows}x{X.ncols} and {B.nrows}x{B.ncols} blocks")
    ring, dot = A.ring, A.ring.dot
    columns = list(zip(*X._rows)) if X._rows else [()] * X.ncols
    AX = [[dot(a, col) for col in columns] for a in A._rows]
    return _form_rows(ring, AX, B._rows, A._rows if rank_one else None)


def _form_rows(ring: Ring, AX, B, A=None) -> Matrix:
    """P - P^t with P = AXB^t from the rows of AX and of B (an entry of P is
    the dot of a row of each), plus (B 1)(A 1)^t given the rows of A, in
    one pass.  Unchecked: AX and B have as many rows, of one length."""
    dot, m = ring.dot, len(AX)
    P = [[dot(ax, b) for b in B] for ax in AX]
    if A is None:
        rows = (tuple(P[i][j] - P[j][i] for j in range(m)) for i in range(m))
    else:
        a1, b1 = ([sum(r, ring.zero) for r in block] for block in (A, B))
        rows = (tuple(P[i][j] - P[j][i] + b1[i] * a1[j] for j in range(m)) for i in range(m))
    return _wrap(ring, rows, m)


def _running_sums(rows, zero, strict: bool = False, backward: bool = False) -> list:
    """Each row's running sums: entry j adds the entries up to column j, or
    from column j on when `backward`, column j left out when `strict`.
    Forward they are the rows of A(U + Id), or of AU when strict; backward,
    of A(U^t + Id), or of AU^t when strict.  An empty row has no sums."""
    step = -1 if backward else 1
    return [list(accumulate(r[:-1], initial=zero) if strict and r else accumulate(r))[::step]
            for r in (row[::step] for row in rows)]


def skew_form(A: Matrix, X: Matrix, B: Matrix) -> Matrix:
    """Y(A, X, B) = AXB^t - BX^tA^t, the skew matrix of every identity in
    the paper, formed as P - P^t with P = AXB^t since (AXB^t)^t = BX^tA^t."""
    return _form(A, X, B, False)


def rank_one_form(A: Matrix, X: Matrix, B: Matrix) -> Matrix:
    """AXB^t + B(J - X^t)A^t = Y(A, X, B) + (B 1)(A 1)^t: the skew form
    plus the rank-one matrix of the row sums, since BJA^t = (B 1)(A 1)^t."""
    return _form(A, X, B, True)


# -- determinants ----------------------------------------------------------


def _require_square(M: Matrix, what: str):
    if not M.is_square():
        raise ShapeError(f"{what} needs a square matrix, got {M.nrows}x{M.ncols}")


def det_bareiss(M: Matrix):
    """Fraction-free Bareiss determinant with swap-and-negate row pivoting.
    When a pivot column has no nonzero entry left, the leading columns are
    linearly dependent, which over these integral domains means the
    determinant is 0."""
    _require_square(M, "det_bareiss")
    ring = M.ring
    n = M.nrows
    if n == 0:
        return ring.one
    a = [list(r) for r in M._rows]
    div = ring.exact_divide
    negative = False
    prev = ring.one
    for k in range(n - 1):
        if not a[k][k]:
            for r in range(k + 1, n):
                if a[r][k]:
                    a[k], a[r] = a[r], a[k]
                    negative = not negative
                    break
            else:
                return ring.zero
        ak = a[k]
        akk = ak[k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            for j in range(k + 1, n):
                ai[j] = div(akk * ai[j] - aik * ak[j], prev)
        prev = akk
    result = a[n - 1][n - 1]
    return -result if negative else result


def _row_picks(row) -> list:
    """A row as _extend_minors takes it: (column, its bit, entry, -entry)
    for each nonzero entry.  The sign goes on the entry, which is cheaper
    to negate than a minor."""
    return [(c, 1 << c, a, -a) for c, a in enumerate(row) if a]


def _extend_minors(ring: Ring, minors: dict, picks: list) -> dict:
    """The nonzero minors on one more row, given by its _row_picks.  From
    the nonzero minors D[S] of some rows on the column sets S (bitmasks),
    the minor with the row a below them on the columns T is
    D[T] = sum (-1)^s a[c] D[S] over the c in T with S = T - c, where s
    counts the members of S above c; zero minors and zero entries are
    skipped.  Each D[T] is one `ring.dot` of signed entries and smaller
    minors, so on polynomials its products are summed in one fused
    accumulation, and nothing is divided."""
    extends = {}  # T -> ([signed entries], [minors of T - c])
    for S, d in minors.items():
        for c, bit, a, neg_a in picks:
            if S & bit:
                continue
            entry = neg_a if (S >> c).bit_count() & 1 else a
            T = S | bit
            pair = extends.get(T)
            if pair is None:
                extends[T] = ([entry], [d])
            else:
                pair[0].append(entry)
                pair[1].append(d)
    dot = ring.dot
    extended = {}
    for T, (entries, smaller) in extends.items():
        d = dot(entries, smaller)
        if d:
            extended[T] = d
    return extended


def det_minors(M: Matrix):
    """Division-free determinant by memoised minors, about n 2^n products:
    the minors of the first k rows on every column set, extended row by
    row with _extend_minors."""
    _require_square(M, "det_minors")
    ring = M.ring
    minors = {0: ring.one}
    for row in M._rows:
        minors = _extend_minors(ring, minors, _row_picks(row))
        if not minors:
            return ring.zero
    (result,) = minors.values()
    return result


def det(M: Matrix):
    """Determinant by the kernel that suits the entries: `det_minors` for
    polynomials, where Bareiss's exact divisions cost more than the
    products they undo and each minor is one fused `ring.dot`, and
    `det_bareiss` for integers and rationals."""
    if isinstance(M.ring, PolynomialRing):
        return det_minors(M)
    return det_bareiss(M)


# -- Pfaffians --------------------------------------------------------------


def _assert_pfaffian_input(Y: Matrix):
    _require_square(Y, "pfaffian")
    if Y.nrows % 2:
        raise SkewSymmetryError(f"Pfaffian needs even size, got {Y.nrows}")
    require_skew(Y, "Pfaffian")


def pfaffian_bareiss(Y: Matrix):
    """Fraction-free skew elimination, O(n^3): the Pfaffian analogue of
    Bareiss.  With 0-based indices, after the step on pivot pair
    (p, q) = (2k, 2k+1), entry (i, j) of the remaining block is the
    sub-Pfaffian Pf(Y[0..2k+1, i, j]) of the pivoted matrix, so each
    division by the previous pivot is exact (Knuth's overlapping-Pfaffian
    identity).  A zero pivot is replaced by swapping index q with a later
    one, which negates the Pfaffian; when row p has no nonzero entry left,
    the reduced matrix has a zero row and the Pfaffian is 0.  Pf of the
    empty matrix is 1."""
    _assert_pfaffian_input(Y)
    ring = Y.ring
    n = Y.nrows
    if n == 0:
        return ring.one
    a = [list(r) for r in Y._rows]
    div = ring.exact_divide
    negative = False
    prev = ring.one
    for p in range(0, n - 2, 2):
        q = p + 1
        ap = a[p]
        if not ap[q]:
            for s in range(q + 1, n):
                if ap[s]:
                    break
            else:
                return ring.zero
            a[q], a[s] = a[s], a[q]
            for r in a:
                r[q], r[s] = r[s], r[q]
            negative = not negative
        aq = a[q]
        piv = ap[q]
        for i in range(q + 1, n):
            ai = a[i]
            api, aqi = ap[i], aq[i]
            for j in range(i + 1, n):
                v = div(piv * ai[j] - api * aq[j] + ap[j] * aqi, prev)
                ai[j] = v
                a[j][i] = -v
        prev = piv
    result = a[n - 2][n - 1]
    return -result if negative else result


def _pfaffian_minors(ring: Ring, rows):
    """S -> Pf(Y_S) for the skew Y with these rows and S the bitmask of an
    even index set, memoised over the sets reached.  Along the lowest
    member i of S, Pf(Y_S) is the sum over j in S above i of
    (-1)^s y_ij Pf(Y_(S - i - j)), s the members of S between i and j: one
    `ring.dot` of signed entries and smaller minors, with no division.
    Only the sets the expansion reaches are visited, so a sparse Y costs
    little at any order.  Pending sets wait on an explicit stack, not the
    call stack, so the order is not bounded by the recursion limit."""
    memo = {0: ring.one}
    dot = ring.dot

    def expand(S: int):
        i = (S & -S).bit_length() - 1
        row, rest = rows[i], S & (S - 1)
        entries, smaller = [], []
        for j in compress(range(i + 1, len(row)), row[i + 1:]):
            if rest >> j & 1:
                odd = (rest & ((1 << j) - 1)).bit_count() & 1
                entries.append(-row[j] if odd else row[j])
                smaller.append(rest ^ 1 << j)
        return S, entries, smaller

    def pf(S: int):
        value = memo.get(S)
        if value is None:
            stack = [expand(S)]
            while stack:
                T, entries, smaller = stack[-1]
                missing = [U for U in smaller if U not in memo]
                if missing:
                    stack.extend(map(expand, missing))
                else:
                    stack.pop()
                    memo[T] = dot(entries, [memo[U] for U in smaller])
            value = memo[S]
        return value

    return pf


def pfaffian_walk(Y: Matrix):
    """Division-free Pfaffian: the full index set's value in
    _pfaffian_minors, whose minors are each one fused `ring.dot`.  Pf of
    the empty matrix is 1."""
    _assert_pfaffian_input(Y)
    return _pfaffian_minors(Y.ring, Y._rows)((1 << Y.nrows) - 1)


# The largest Pfaffian order `pfaffian` gives to the walk on polynomials.
# Timed on a 2-vCPU Intel Xeon (CPython 3.11, skew matrices from
# random.Random(1), coefficients in [-5, 5], CPU time): at n = 12 the
# expansion takes 0.40x the elimination's time with linear entries in 4
# variables and 0.15x in 6, but 1.23x in 2 and 3.3x with constant entries
# (medians of paired runs).  Past it the expansion's minors outgrow the
# elimination's n^3/3 steps when the entries have few variables: at
# n = 24 with linear entries in 2 variables it took 27x the elimination's
# time (15.9 s against 0.59 s), and at n = 30 with constant entries 2,400x
# (69.7 s against 0.029 s; one run each).
PFAFFIAN_WALK_MAX_ORDER = 12


def pfaffian(Y: Matrix):
    """Pfaffian by the kernel that suits the entries and the size:
    `pfaffian_walk` for polynomial matrices up to order
    PFAFFIAN_WALK_MAX_ORDER, where the elimination's exact divisions cost
    more than the products they undo, and `pfaffian_bareiss` otherwise,
    on integers and rationals at any order and on larger polynomial
    matrices, where the walk's exponential count of minors dominates.
    Neither calls a determinant kernel, so Pf^2 = det compares two
    independent computations."""
    if isinstance(Y.ring, PolynomialRing) and Y.nrows <= PFAFFIAN_WALK_MAX_ORDER:
        return pfaffian_walk(Y)
    return pfaffian_bareiss(Y)


# -- the two compressions of a maximal-minor sum ----------------------------


def okada_pfaffian(A: Matrix):
    """Pf(Y(W, U, W)), W = A for even m and augment_hat(A) for odd m: the
    Pfaffian that equals the sum of A's maximal minors (Okada).  The rows
    of WU are W's strict running sums."""
    W = (augment_hat(A) if A.nrows % 2 else A)._rows
    return pfaffian(_form_rows(A.ring, _running_sums(W, A.ring.zero, strict=True), W))


def byun_determinant(A: Matrix):
    """det(A(2U + Id)A^t), the square of the sum of A's maximal minors
    (Byun); as 2U + Id = U + J - U^t it is rank_one_form(A, U, A), formed
    from A's strict running sums (the rows of AU) and its row sums."""
    AU = _running_sums(A._rows, A.ring.zero, strict=True)
    return det(_form_rows(A.ring, AU, A._rows, A._rows))


# -- JSON interchange --------------------------------------------------------


def matrix_to_json_dict(M: Matrix) -> dict:
    fmt = M.ring.format
    return {
        "ring": M.ring.to_json_tag(),
        "rows": M.nrows,
        "cols": M.ncols,
        "entries": [[fmt(x) for x in row] for row in M._rows],
    }


def matrix_from_json_dict(obj: dict) -> Matrix:
    try:
        ring = ring_from_json_tag(obj["ring"])
        nrows = obj["rows"]
        ncols = obj["cols"]
        entries = obj["entries"]
        shaped = len(entries) == nrows and all(len(r) == ncols for r in entries)
    except (KeyError, TypeError) as exc:
        raise ShapeError(f"bad matrix JSON: {exc}") from None
    if not shaped:
        raise ShapeError(
            f"entries shape does not match rows={nrows} cols={ncols}"
        )

    def scalar(x):
        return ring.parse(x) if isinstance(x, str) else ring.coerce(x)

    return _wrap(ring, (tuple(map(scalar, row)) for row in entries), ncols)
