"""Minor-summation and Pfaffian factorization identities.

Every check_* function evaluates both sides of one identity through
independent code paths (subset sums of determinants on one side, a
Pfaffian or a single determinant on the other), compares them exactly,
and returns an IdentityReport.  Nothing here is numeric: all arithmetic
happens in the matrix ring.

Conventions, fixed once for the whole module:
  * matrices A, B are m x n; X is n x n; skew inputs Y are square;
  * Y(A, X, B) = AXB^t - BX^tA^t (`matrix.skew_form`) is the skew matrix
    of the Pfaffian sides, and AXB^t + B(J - X^t)A^t = Y(A, X, B) +
    (B 1)(A 1)^t (J all ones, 1 the ones vector) is the skew-plus-rank-one
    matrix of the determinant sides, which `matrix._form_rows` builds from
    the rows of AX, B and A for `main1`, `ab` and `byun`;
  * A^I is the m x |I| matrix of A-columns picked by the 1-based set I,
    and det(A^I B^J) is the determinant of the column concatenation;
  * sign_from_binom2(k) is (-1)^binom(k,2), read off k mod 4.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import combinations
from math import comb
from typing import Callable, Sequence

from .combinat import IndexSet, inv_word
from .errors import ParityError, RingMismatchError, ShapeError
from .matrix import (
    Matrix,
    _extend_minors,
    _form_rows,
    _pfaffian_minors,
    _row_picks,
    _running_sums,
    _wrap,
    augment_hat,
    byun_determinant,
    det,
    matrix_to_json_dict,
    okada_pfaffian,
    outer_product,
    pfaffian,
    pfaffian_bareiss,
    require_skew,
    skew_form,
)
from .ring import PolynomialRing, Ring

IDENTITY_IDS = (
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


class IdentityReport:
    """Outcome of one check.

    Given a ring, `lhs`, `rhs` and the named ring `values` are kept as ring
    values and formatted on first access (a verify run serializes only its
    failures); the formatted values come first in `details`, then the
    plain JSON `details`.  Given no ring, lhs and rhs are already text.
    `inputs` is the check's inputs as JSON, or a function of no arguments
    that builds it on first access; `input_digest` is the sha256 prefix of
    exactly that JSON, computed on first access.  So a check that passes
    builds, formats and hashes nothing of its inputs."""

    def __init__(self, identity_id: str, inputs: dict | Callable[[], dict],
                 lhs, rhs, passed: bool, details: dict | None = None,
                 ring: Ring | None = None, values: dict | None = None):
        self.identity_id = identity_id
        self._inputs = inputs
        self._digest = None
        self.passed = passed
        self._ring = ring
        self._lhs, self._rhs = lhs, rhs
        self._values = values or {}
        self._details = details or {}

    def _format(self):
        ring = self._ring
        if ring is not None:
            self._lhs = ring.format(self._lhs)
            self._rhs = ring.format(self._rhs)
            formatted = {k: ring.format(v) for k, v in self._values.items()}
            self._details = {**formatted, **self._details}
            self._ring = None
            self._values = {}

    @property
    def inputs(self) -> dict:
        if callable(self._inputs):
            self._inputs = self._inputs()
        return self._inputs

    @property
    def input_digest(self) -> str:
        if self._digest is None:
            self._digest = input_digest(self.inputs)
        return self._digest

    @property
    def lhs(self) -> str:
        self._format()
        return self._lhs

    @property
    def rhs(self) -> str:
        self._format()
        return self._rhs

    @property
    def details(self) -> dict:
        self._format()
        return self._details


def input_digest(payload: dict) -> str:
    # imported here: a run that reads no digest never loads hashlib
    import hashlib

    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _inputs_of(**named) -> dict:
    """The named inputs as JSON, matrices in their JSON form.  Checkers
    hand their report `lambda: _inputs_of(...)`, which it calls only when
    its inputs or their digest are read."""
    return {
        key: matrix_to_json_dict(value) if isinstance(value, Matrix) else value
        for key, value in named.items()
    }


def sign_from_binom2(k: int) -> int:
    """(-1)^binom(k,2) from k mod 4 (binom(k,2) is odd iff k = 2, 3 mod 4)."""
    return -1 if k % 4 in (2, 3) else 1


def _apply_sign(sign: int, x):
    return -x if sign < 0 else x


def _minor_walk(ring: Ring, rows, nxt):
    """Yield (prefix, leaves, dets, sign), one leaf row for each column
    prefix one short of a full path: `leaves` is the range of positions the
    last column may take, and the determinant of the path prefix + (t,) is
    sign * dets[i] for the i-th position t of leaves (zeros included; sign
    is +1 or -1).

    `rows` hold the columns at positions 0, 1, ...; a path picks
    len(rows) of them, in order.  `nxt(path)` gives the positions the next
    column may take, as a range, and the first position any later column
    may take, which lies at or before that range and at or after the one
    it gave for path[:-1] (_walk_rule reads both off a route).  Paths are
    walked depth first, and pushing a column does one Bareiss step on the
    residual rows, with an exact division by the last pivot, so paths
    sharing a prefix share its elimination (Sylvester's identity).  The
    last step reduces the one row left at the leaf positions only.  A
    pushed column with no nonzero residual entry depends on the prefix, so
    every path through it is skipped.  `rows` must not be empty: the empty
    path's determinant, 1, is the caller's."""
    div = ring.exact_divide
    cand, keep = nxt(())
    if len(rows) == 1:
        yield (), cand, [rows[0][t] for t in cand], 1
        return
    # one frame per pushed prefix: (candidates left, residual rows, position
    # of their first entry, prefix, sign flipped, last pivot)
    stack = [(iter(cand), rows, 0, (), False, ring.one)]
    while stack:
        todo, res, base, path, negative, prev = stack[-1]
        last_step = len(res) == 2
        for t in todo:
            k = t - base
            for r, prow in enumerate(res):
                piv = prow[k]
                if piv:
                    break
            else:
                continue
            child = path + (t,)
            cand, keep = nxt(child)
            # the pivot row moves to the front past r rows
            flipped = negative ^ (r % 2 == 1)
            if last_step:
                if cand:
                    row = res[1 - r]
                    rk = row[k]
                    # a nonempty range starts at or after base
                    at = slice(cand.start - base, cand.stop - base, cand.step)
                    dets = [div(piv * x - rk * y, prev)
                            for x, y in zip(row[at], prow[at])]
                    yield child, cand, dets, -1 if flipped else 1
                continue
            cut = keep - base
            ptail = prow[cut:]
            reduced = []
            for i, row in enumerate(res):
                if i != r:
                    rk = row[k]
                    reduced.append(
                        [div(piv * x - rk * y, prev) for x, y in zip(row[cut:], ptail)]
                    )
            stack.append((iter(cand), reduced, keep, child, flipped, piv))
            break
        else:
            stack.pop()


# -- routes: sums of minors over monotone column picks ------------------------
# A route describes a set of picks: one column per depth, depth d taking a
# column of the block route[d][0] among the columns 0..n-1 that every block
# shares, with the relation route[d][1] to the previous depth's column.  A
# pick's determinant is that of the square matrix with its columns in depth
# order, one row per depth.  Both evaluators below sum the determinants of
# every pick of a route; _route_sum runs the one a count of work prefers.

STRICT, WEAK, EQUAL = "strict", "weak", "equal"


def _route(n: int, block_of: Sequence[int], relations: Sequence[str]) -> tuple:
    """The route whose depth d takes a column of block block_of[d] that is
    greater than (STRICT), at least (WEAK) or equal to (EQUAL) the previous
    depth's column, relations[d] saying which (relations[0] is unused), as
    a tuple of depths (block, relation, lo, hi).  [lo, hi] is the window of
    the columns that depth's pick can take in a complete pick: lo counts
    the strict steps up to the depth, n - 1 - hi those after it."""
    strict = [d > 0 and rel == STRICT for d, rel in enumerate(relations)]
    return tuple(
        (block_of[d], relations[d], sum(strict[:d + 1]), n - 1 - sum(strict[d + 1:]))
        for d in range(len(block_of))
    )


@lru_cache(maxsize=None)
def _minor_route(m: int, n: int) -> tuple:
    """The maximal minors of one m x n block: strictly increasing picks."""
    return _route(n, [0] * m, [STRICT] * m)


@lru_cache(maxsize=None)
def _chain_route(m: int, n: int, weak_within: bool) -> tuple:
    """Picks alternating between blocks 0 and 1, weak inside a pair and
    strict between pairs (weak_within), or the other way round."""
    return _route(
        n, [d % 2 for d in range(m)],
        [WEAK if (weak_within if d % 2 else not weak_within) else STRICT
         for d in range(m)],
    )


@lru_cache(maxsize=None)
def _pair_route(n: int, p: int) -> tuple:
    """p pairs of a column of block 0 and the same column of block 1, the
    pairs strictly increasing."""
    return _route(n, [d % 2 for d in range(2 * p)],
                  [EQUAL if d % 2 else STRICT for d in range(2 * p)])


@lru_cache(maxsize=None)
def _walk_rule(route: tuple, width: int):
    """Walk rule (see _minor_walk) for the picks of a route over `width`
    blocks with their columns interleaved: column c of block b sits at
    position width * c + b."""
    # per depth: block, window, the step past the previous column, and
    # whether the pick repeats that column
    depths = [(block, lo, hi, int(relation == STRICT), relation == EQUAL)
              for block, relation, lo, hi in route]

    def nxt(path):
        block, lo, hi, step, same = depths[len(path)]
        if path:
            c = path[-1] // width + step
            if c > lo:
                lo = c
            if same:
                hi = lo
        return range(width * lo + block, width * hi + block + 1, width), width * lo

    return nxt


def _walk_sum(ring: Ring, blocks: Sequence, route: tuple):
    """Sum of the determinants of the picks of `route` from `blocks` (row
    lists, one row per depth), walked depth first by _minor_walk, one row
    of leaves at a time; 1 for no depths, the empty pick."""
    if not route:
        return ring.one
    # the walk's rows: the blocks' columns interleaved, as _walk_rule reads them
    rows = blocks[0] if len(blocks) == 1 else [
        [x for column in zip(*parts) for x in column] for parts in zip(*blocks)
    ]
    total = ring.zero
    for _, _, dets, sign in _minor_walk(ring, rows, _walk_rule(route, len(blocks))):
        row_sum = sum(dets, ring.zero)
        total = total - row_sum if sign < 0 else total + row_sum
    return total


def _sweep_sum(ring: Ring, blocks: Sequence, route: tuple):
    """Sum of the determinants of the picks of `route` from `blocks` (row
    lists, one row per depth) by one pass over the columns, with no
    division; 1 for no depths.

    After column c, depth d keeps a map from row bitmasks S to the sums,
    over its partial picks c_0 <= ... <= c_d, of the minors on the rows S
    of the picked columns: the picks with c_d <= c, or with c_d = c alone
    when the next depth takes the same column (EQUAL).  Column v at depth d
    extends the map the depth reads by one Laplace step along the new last
    column, D[S | r] += (-1)^(members of S above r) * v[r] * D[S] for each
    row r outside S with v[r] nonzero, so every pick ending in the same
    column is extended at once; v[r] and -v[r] are formed once per column.
    Up to SWEEP_TABLE_MAX_ROWS rows a map is a list of 2^m slots indexed by
    S, None where no partial pick lands (m 2^m slots in all, 10 x 1,024 at
    the limit); a depth reads only the masks with as many members as it
    has picks (_masks_by_size), and the rows outside S, S | r and the
    sign's parity come from _sweep_table.  Past the limit a map is a dict
    and each step is formed as it is taken.
    A STRICT depth reads the previous depth's map before this column enters
    it, a WEAK or EQUAL one after, so each column visits the depths in runs
    that start at a STRICT depth, the last run first (_sweep_plan).
    Cf. Rote, "Division-free algorithms for the determinant and the
    Pfaffian", LNCS 2122 (2001)."""
    m = len(route)
    if not m:
        return ring.one
    n = len(blocks[0][0])
    # column c of each block, per row: (entry, -entry), or None for a zero
    columns = [
        [[(row[c], -row[c]) if row[c] else None for row in rows] for c in range(n)]
        for rows in blocks
    ]
    steps = _sweep_plan(route)
    size = 1 << m
    dense = m <= SWEEP_TABLE_MAX_ROWS
    if dense:
        table, by_size = _sweep_table(m), _masks_by_size(m)
        maps, root = [[None] * size for _ in range(m)], [ring.one]
    else:
        maps, root = [{} for _ in range(m)], {0: ring.one}
    for c in range(n):
        for d, block, lo, hi, fresh in steps:
            if not lo <= c <= hi:
                continue
            column = columns[block][c]
            source = maps[d - 1] if d else root
            if dense:
                kept = [None] * size if fresh else maps[d]
                for S in by_size[d]:
                    value = source[S]
                    if value is None:
                        continue
                    for r, T, odd in table[S]:
                        pair = column[r]
                        if pair is None:
                            continue
                        term = pair[odd] * value
                        prior = kept[T]
                        kept[T] = term if prior is None else prior + term
            else:
                # too many rows to keep a table: each step is formed as taken
                kept = {} if fresh else maps[d]
                get = kept.get
                nonzero = [(r, 1 << r, pair) for r, pair in enumerate(column) if pair]
                for S, value in source.items():
                    for r, bit, pair in nonzero:
                        if S & bit:
                            continue
                        T = S | bit
                        term = pair[(S >> r).bit_count() & 1] * value
                        prior = get(T)
                        kept[T] = term if prior is None else prior + term
            maps[d] = kept
    full = maps[-1][size - 1] if dense else maps[-1].get(size - 1)
    return ring.zero if full is None else full


@lru_cache(maxsize=None)
def _sweep_plan(route: tuple) -> tuple:
    """The order in which _sweep_sum visits a route's depths at each
    column, as (depth, block, lo, hi, fresh): runs of depths that start at
    a STRICT depth, the last run first, and `fresh` when the next depth
    repeats the column (EQUAL), so the depth keeps this column's part
    only."""
    m = len(route)
    run = [0] * m
    for d in range(1, m):
        run[d] = d if route[d][1] == STRICT else run[d - 1]
    return tuple(
        (d, block, lo, hi, d + 1 < m and route[d + 1][1] == EQUAL)
        for d, (block, _, lo, hi) in sorted(enumerate(route),
                                            key=lambda item: (-run[item[0]], item[0]))
    )


# The most rows whose Laplace steps _sweep_sum reads from a kept table,
# with its maps as dense lists.  A table holds m 2^(m-1) steps, about
# 0.55 MB at 10 rows and 12.7 MB at 14, and the maps of one sweep m 2^m
# slots, 10 x 1,024 at 10 rows; past this the sweep forms each step as it
# takes it and keeps its maps as dicts.
SWEEP_TABLE_MAX_ROWS = 10


@lru_cache(maxsize=SWEEP_TABLE_MAX_ROWS)
def _sweep_table(m: int) -> tuple:
    """For each bitmask S of m rows, the Laplace steps out of it:
    (r, S | 1 << r, parity of the members of S above r) for each row r
    outside S; m 2^(m-1) steps in all.  _sweep_sum asks for it only up to
    SWEEP_TABLE_MAX_ROWS rows, so the tables kept come to about 1.1 MB."""
    return tuple(
        tuple((r, S | 1 << r, (S >> r).bit_count() & 1)
              for r in range(m) if not S >> r & 1)
        for S in range(1 << m)
    )


@lru_cache(maxsize=SWEEP_TABLE_MAX_ROWS)
def _masks_by_size(m: int) -> tuple:
    """The bitmasks of m rows with k members, increasing, for k = 0..m."""
    return tuple(tuple(S for S in range(1 << m) if S.bit_count() == k) for k in range(m + 1))


@lru_cache(maxsize=None)
def _sweep_is_cheaper(route: tuple, n: int, width: int, polynomial: bool) -> bool:
    """Whether the sweep does less work than the walk on this route shape,
    over n columns of `width` blocks, on polynomial entries or not.

    The sweep at depth d makes up to C(m, d + 1) entries per column of its
    window, each from d + 1 terms and the entry it adds to: a product and a
    sum apiece.  The walk pushing the column at depth d < m - 2 of a prefix
    updates m - d - 1 rows over the positions any later column may take,
    and at depth m - 2 one row over the last depth's candidates.  Such an
    entry is a (d + 2)-minor, from two products of (d + 1)-minors, a
    difference and an exact division by a d-minor.  On integers and
    rationals the size of the factors matters little, so an entry weighs
    two sweep terms.  Polynomial minors grow with their order, and a
    sweep term multiplies one by a single entry, so there an entry weighs
    (d + 2)^2 terms."""
    m = len(route)
    sweep = sum((hi - lo + 1) * comb(m, d + 1) * (d + 2)
                for d, (_, _, lo, hi) in enumerate(route) if lo <= hi)
    rule = _walk_rule(route, width)
    # prefixes[c]: how many prefixes of the current length end in column c;
    # the rule reads only a path's length and last column
    prefixes = {t // width: 1 for t in rule(())[0]}
    walk = len(prefixes) if m == 1 else 0
    for d in range(m - 1):
        weight = (d + 2) ** 2 if polynomial else 2
        grown = {}
        for c, count in prefixes.items():
            cand, keep = rule((width * c,) * (d + 1))
            if d < m - 2:
                walk += weight * count * (m - d - 1) * (width * n - keep)
            else:
                walk += weight * count * len(cand)
            for t in cand:
                grown[t // width] = grown.get(t // width, 0) + count
        prefixes = grown
    return sweep < walk


def _route_sum(ring: Ring, blocks: Sequence, route: tuple):
    """Sum of the determinants of the picks of `route` from `blocks`, by
    the sweep or the walk, whichever _sweep_is_cheaper says does less
    work on the shape and the kind of ring."""
    if not route:
        return ring.one
    n = len(blocks[0][0])
    polynomial = isinstance(ring, PolynomialRing)
    if _sweep_is_cheaper(route, n, len(blocks), polynomial):
        return _sweep_sum(ring, blocks, route)
    return _walk_sum(ring, blocks, route)


def _check_ab(A: Matrix, B: Matrix):
    if A.ring != B.ring:
        raise RingMismatchError("A and B must share a ring")
    if (A.nrows, A.ncols) != (B.nrows, B.ncols):
        raise ShapeError("A and B must have equal shape")


def _check_abx(A: Matrix, B: Matrix, X: Matrix):
    if A.ring != X.ring:
        raise RingMismatchError("A, B, X must share a ring")
    _check_ab(A, B)
    if X.nrows != A.ncols or X.ncols != A.ncols:
        raise ShapeError(f"X must be {A.ncols}x{A.ncols}")
    if A.nrows < 1:
        raise ShapeError("need at least one row")


# -- minor sums and the f/g evaluators --------------------------------------


def minor_sum(A: Matrix):
    """Sum of all maximal minors det(A^I), |I| = row count; 0 when m > n."""
    return _route_sum(A.ring, [A._rows], _minor_route(A.nrows, A.ncols))


def _minor_levels(ring: Ring, rows, size: int) -> list:
    """[level 0, ..., level size] of the nonzero minors of the matrix with
    these rows.  Level k is {I: {J: det}} for the k x k minors: I is an
    increasing tuple of k 0-based rows, J a bitmask of k columns, and a
    missing I or J means the minor is 0.  Each minor on I extends one on
    I[:-1] by the row I[-1] (matrix._extend_minors, det_minors' row step),
    so row sets share their prefixes, each row is prepared once for all
    of them, and nothing is divided."""
    picks = [_row_picks(row) for row in rows]
    levels = [{(): {0: ring.one}}]
    for _ in range(size):
        grown = {}
        for I, minors in levels[-1].items():
            for i in range(I[-1] + 1 if I else 0, len(rows)):
                extended = _extend_minors(ring, minors, picks[i])
                if extended:
                    grown[I + (i,)] = extended
        levels.append(grown)
    return levels


def _pair_blocks(A: Matrix, H: list, border: bool) -> list:
    """[A, H], H the rows of B X^t.  When `border`, a zero row goes on top
    of A and a ones row on top of H (the hat augmentation)."""
    if not border:
        return [A._rows, H]
    ring, n = A.ring, A.ncols
    return [[[ring.zero] * n, *A._rows], [[ring.one] * n, *H]]


def _double_minor_sum(A: Matrix, Hs: Sequence[list], p: int, border: bool) -> list:
    """[sum over |I| = p, |J| = m - p of det(X_IJ) * det(A^I B^J) for each
    H = B X^t in Hs, given by its rows], with a ones column in front of
    X_IJ when `border`.

    By Cauchy-Binet in the last q = m - p columns, with H = B X^t,
    sum_J det(X_KJ) det(A^I B^J) = det(A^I H^K) for any q-set K.  Without a
    border p = q and K = I, so the sum is sum_I det(A^I H^I); interleaving
    the columns as a_i1 h_i1 a_i2 h_i2 ... costs the sign (-1)^binom(p,2),
    and what is left is the pick sum of p pairs over [A, H] (_pair_route).
    With the border p = q + 1, and expanding det(1 X_IJ) along its ones
    column gives sum_r (-1)^(r-1) det(A^I H^(I - i_r)).  That is
    (-1)^p det(A^I H^I) of the hat-augmented blocks, a zero row on top of
    A and a ones row on top of H (expand along that row), so the same pick
    sum on them takes the sign (-1)^binom(p+1,2).  One pick sum per H."""
    if p == 1 and border:
        # m = 1: J is empty and det(1) det(A^{i}) = a_i
        return [sum(A._rows[0], A.ring.zero)] * len(Hs)
    route = _pair_route(A.ncols, p)
    sign = sign_from_binom2(p + 1 if border else p)
    return [_apply_sign(sign, _route_sum(A.ring, _pair_blocks(A, H, border), route))
            for H in Hs]


def _ones_less(B: Matrix, H: list) -> list:
    """The rows of B (J - X)^t from those of H = B X^t: B's row sums less H."""
    sums = (sum(b, B.ring.zero) for b in B._rows)
    return [[s - h for h in row] for s, row in zip(sums, H)]


def _f_sign(m: int) -> int:
    """(-1)^floor(m/2), for either parity: f_BA(Y) = (-1)^(m/2) f_AB(Y^t)
    for even m, since swapping the two m/2-column blocks of [B^I A^J] and
    transposing Y_IJ relabel the sum, and (-1)^((m-1)/2) for odd m."""
    return -1 if (m // 2) % 2 else 1


def f_AB(A: Matrix, B: Matrix, X: Matrix):
    """Even-order evaluator:
    sum over |I| = |J| = m/2 of det(X_IJ) * det(A^I B^J).  By Cauchy-Binet
    this is sum_I det(A^I H^I) with H = B X^t, which is (-1)^binom(m/2,2)
    times the sum over the picks a_i1 h_i1 a_i2 h_i2 ..., i1 < i2 < ...,
    of [A | H] (see _double_minor_sum)."""
    _check_abx(A, B, X)
    if A.nrows % 2:
        raise ParityError(f"f_AB needs even m, got {A.nrows}")
    return _double_minor_sum(A, [(B @ X.T)._rows], A.nrows // 2, border=False)[0]


def g_AB(A: Matrix, B: Matrix, X: Matrix):
    """Odd-order evaluator: sum over |I| = (m+1)/2, |J| = (m-1)/2 of
    det(1 X_IJ) * det(A^I B^J), the bordered minor taking an all-ones
    first column.  It is f_AB's pick sum on the hat-augmented pair, a zero
    row on top of A and a ones row on top of H = B X^t, with p = (m+1)/2
    pairs and the sign (-1)^binom(p+1,2) (see _double_minor_sum)."""
    _check_abx(A, B, X)
    if A.nrows % 2 == 0:
        raise ParityError(f"g_AB needs odd m, got {A.nrows}")
    return _double_minor_sum(A, [(B @ X.T)._rows], (A.nrows + 1) // 2, border=True)[0]


# -- closed forms for near-triangular minors ---------------------------------


def _chain_product(ring: Ring, diag: Sequence, I: tuple, J: tuple):
    """Closed form for det(X_IJ), X with diagonal diag and ones strictly
    above it: the product over the interleaved word i1 j1 i2 j2 ...
    (ending in i_(l+1) when |I| = |J| + 1) of d_w at each step
    i_k = j_k = w and 1 - d_w at each step j_k = i_(k+1) = w; 0 unless the
    word is weakly increasing.  Unchecked: I and J are strictly increasing
    within 1..len(diag), and the entries of diag are ring elements."""
    word = [0] * (len(I) + len(J))
    word[::2], word[1::2] = I, J
    if word != sorted(word):
        return ring.zero
    val = ring.one
    for t in range(1, len(word)):
        if word[t - 1] == word[t]:
            d = diag[word[t] - 1]
            val = val * (d if t % 2 else ring.one - d)
    return val


def _bordered_chain_product(ring: Ring, diag: Sequence, I: tuple, J: tuple):
    """Closed form for det(1 X_IJ) with |I| = |J| + 1, X as in
    _chain_product and 1 a first column of ones: (-1)^|J| times the chain
    product over i1 <= j1 <= i2 <= ... <= i_(l+1), else 0.  Unchecked as
    _chain_product is."""
    val = _chain_product(ring, diag, I, J)
    return -val if len(J) % 2 else val


def ones_above_diagonal(ring: Ring, diag: Sequence) -> Matrix:
    """Upper-triangular matrix with the given diagonal, elements of `ring`,
    and ones above it."""
    n = len(diag)
    one, zero = ring.one, ring.zero
    rows = (tuple(diag[i] if i == j else (one if j > i else zero) for j in range(n))
            for i in range(n))
    return _wrap(ring, rows, n)


def strict_upper_part(Y: Matrix) -> Matrix:
    """Copy of Y with everything on or below the diagonal zeroed."""
    zero = Y.ring.zero
    rows = (tuple(x if j > i else zero for j, x in enumerate(row))
            for i, row in enumerate(Y._rows))
    return _wrap(Y.ring, rows, Y.ncols)


# -- interlacing-chain sums (theorem AB family) -------------------------------


def _chain_sum(first: Matrix, second: Matrix, weak_within: bool):
    """Sum of det over interleaved column picks first^{c1} second^{c2}
    first^{c3} ... with m columns total.

    weak_within=True:  c1 <= c2 < c3 <= c4 < ...  (weak inside a pair,
                       strict between pairs)
    weak_within=False: c1 < c2 <= c3 < c4 <= ...

    One route over [first, second] (_chain_route)."""
    rows = (first._rows, second._rows)
    route = _chain_route(first.nrows, first.ncols, weak_within)
    return _route_sum(first.ring, rows, route)


# -- checkers -----------------------------------------------------------------


def _signed_pf_minors(ring: Ring, rows) -> list:
    """[(-1)^(i-1) Pf(Y(i)) for i = 1..size] for the skew Y with these rows
    (odd size), Y(i) dropping row and column i, all read from one memo
    (_pfaffian_minors): the weights of the odd-order rank-one factor
    sum_i a_i w_i."""
    pf = _pfaffian_minors(ring, rows)
    full = (1 << len(rows)) - 1
    values = (pf(full ^ 1 << i) for i in range(len(rows)))
    return [-v if i % 2 else v for i, v in enumerate(values)]


def check_okada(A: Matrix) -> IdentityReport:
    """Minor summation: sum of maximal minors equals Pf(AUA^t - AU^tA^t),
    with the hat augmentation for odd m.  For m > n both sides must be 0."""
    if A.nrows < 1:
        raise ShapeError("need at least one row")
    details = {}
    values = {}
    odd = A.nrows % 2 == 1
    lhs = minor_sum(augment_hat(A) if odd else A)
    passed = True
    if odd:
        raw = minor_sum(A)
        values["unaugmented_minor_sum"] = raw
        passed = lhs == raw
    rhs = okada_pfaffian(A)
    passed = passed and lhs == rhs
    if A.nrows > A.ncols:
        # the minor sum is empty, so lhs == rhs already requires both to vanish
        details["overdetermined"] = True
    return IdentityReport(
        "okada", lambda: _inputs_of(A=A), lhs, rhs, passed, details,
        ring=A.ring, values=values,
    )


def check_byun(A: Matrix) -> IdentityReport:
    """Squared minor sum equals det(A (2U + Id) A^t), both parities of m."""
    if A.nrows < 1:
        raise ShapeError("need at least one row")
    s = minor_sum(A)
    lhs = s * s
    rhs = byun_determinant(A)
    details = {"overdetermined": True} if A.nrows > A.ncols else None
    return IdentityReport(
        "byun", lambda: _inputs_of(A=A), lhs, rhs, lhs == rhs, details,
        ring=A.ring, values={"minor_sum": s},
    )


def check_main2(A: Matrix, B: Matrix, X: Matrix) -> IdentityReport:
    """Pfaffian Cauchy-Binet: Pf(AXB^t - BX^tA^t) equals
    (-1)^binom(m/2,2) * f_AB(X), m even."""
    _check_abx(A, B, X)
    m = A.nrows
    if m % 2:
        raise ParityError(f"main2 needs even m, got {m}")
    ring = A.ring
    lhs = pfaffian(skew_form(A, X, B))
    rhs = _apply_sign(sign_from_binom2(m // 2), f_AB(A, B, X))
    return IdentityReport(
        "main2", lambda: _inputs_of(A=A, B=B, X=X), lhs, rhs, lhs == rhs, ring=ring
    )


def check_main1(A: Matrix, B: Matrix, X: Matrix) -> IdentityReport:
    """Main factorization: det(AXB^t + B(J - X^t)A^t) splits as
    f_AB(X) f_BA(J - X^t) for even m and g_AB(X) g_BA(J - X^t) for odd m.
    Odd m also cross-checks the equivalent form
    (-1)^((m-1)/2) g_AB(X) g_BA(X^t).  The H of J - X is B's row sums less
    H = B X^t (_ones_less).  AX is formed once, for the left side's
    rank-one form and for odd m's H on (B, A)."""
    _check_abx(A, B, X)
    m = A.nrows
    ring = A.ring
    AX = (A @ X)._rows
    lhs = det(_form_rows(ring, AX, B._rows, A._rows))
    values = {}
    if m % 2 == 0:
        # f_BA(J - X^t) = (-1)^(m/2) f_AB(J - X), so one call serves both
        H = (B @ X.T)._rows
        fx, fy = _double_minor_sum(A, [H, _ones_less(B, H)], m // 2, border=False)
        rhs = fx * _apply_sign(_f_sign(m), fy)
        passed = lhs == rhs
    else:
        gx = g_AB(A, B, X)
        # one call on (B, A) for g_BA(J - X^t) and g_BA(X^t), whose H is AX
        gy, gt = _double_minor_sum(B, [_ones_less(A, AX), AX], (m + 1) // 2, border=True)
        rhs = gx * gy
        alt = _apply_sign(_f_sign(m), gx * gt)
        values["alt_rhs"] = alt
        passed = lhs == rhs and rhs == alt
    return IdentityReport(
        "main1", lambda: _inputs_of(A=A, B=B, X=X), lhs, rhs, passed,
        ring=ring, values=values,
    )


def check_rank1(Y: Matrix, a: Sequence, b: Sequence) -> IdentityReport:
    """Rank-one perturbation of a skew matrix: det(Y + ab^t) in terms of
    Pfaffian minors of Y, all of them (Pf(Y), Pf(Y(i, j)) for even m,
    Pf(Y(i)) for odd m) read from one memo (`matrix._pfaffian_minors`).
    When a = b the even case must collapse to det(Y) and the odd case to a
    perfect square (checked as sub-assertions)."""
    ring = Y.ring
    m = Y.nrows
    require_skew(Y, "rank1")
    av = [ring.coerce(x) for x in a]
    bv = [ring.coerce(x) for x in b]
    if len(av) != m or len(bv) != m:
        raise ShapeError("vector lengths must match the matrix size")
    M = outer_product(ring, av, bv)
    lhs = det(Y + M)
    values = {}
    if m % 2 == 0:
        minors = _pfaffian_minors(ring, Y._rows)
        full = (1 << m) - 1
        pf = minors(full)
        acc = ring.zero
        for i in range(m):
            for j in range(i + 1, m):
                w = av[i] * bv[j] - av[j] * bv[i]
                if not w:
                    continue
                # Pf(Y(i, j)) with 1-based i, j has sign (-1)^(i+j-1)
                term = w * minors(full ^ 1 << i ^ 1 << j)
                if (i + j + 1) % 2:
                    acc -= term
                else:
                    acc += term
        rhs = pf * (pf + acc)
        passed = lhs == rhs
        if av == bv:
            dy = det(Y)
            values["symmetric_det_Y"] = dy
            passed = passed and lhs == dy and rhs == dy
    else:
        w = _signed_pf_minors(ring, Y._rows)
        fa = ring.dot(av, w)
        fb = ring.dot(bv, w)
        rhs = fa * fb
        passed = lhs == rhs
        if av == bv:
            values["symmetric_square_root"] = fa
            passed = passed and fa == fb
    return IdentityReport(
        "rank1",
        lambda: _inputs_of(
            Y=Y, a=[ring.format(x) for x in av], b=[ring.format(x) for x in bv]
        ),
        lhs, rhs, passed, ring=ring, values=values,
    )


def check_lemma_aux(A: Matrix, B: Matrix, X: Matrix) -> IdentityReport:
    """Auxiliary odd-order lemma: with Y = AXB^t - BX^tA^t,
    sum_i (-1)^(i-1) (row sum of A_i) Pf(Y(i)), the odd rank1 factor at
    a = A 1, equals (-1)^binom((m-1)/2, 2) * g_AB(X)."""
    _check_abx(A, B, X)
    m = A.nrows
    if m % 2 == 0:
        raise ParityError(f"lemma-aux needs odd m, got {m}")
    ring = A.ring
    w = _signed_pf_minors(ring, skew_form(A, X, B)._rows)
    lhs = ring.dot([sum(r, ring.zero) for r in A._rows], w)
    rhs = _apply_sign(sign_from_binom2((m - 1) // 2), g_AB(A, B, X))
    return IdentityReport(
        "lemma-aux", lambda: _inputs_of(A=A, B=B, X=X), lhs, rhs, lhs == rhs, ring=ring
    )


def check_iswa(A: Matrix, Y: Matrix) -> IdentityReport:
    """Pfaffian minor summation: sum over |I| = m of Pf(Y_II) det(A^I)
    equals Pf(A Y A^t), for even m and skew n x n Y.  The left side walks
    the minors det(A^I) (_minor_walk) and, where one is nonzero, reads
    Pf(Y_II) from one memo of Pfaffian minors (`matrix._pfaffian_minors`);
    the right side is `pfaffian_bareiss`, an elimination with exact
    divisions, so the two sides share no algorithm on any ring."""
    m, n = A.nrows, A.ncols
    if m % 2:
        raise ParityError(f"iswa needs even m, got {m}")
    if A.ring != Y.ring:
        raise RingMismatchError("A and Y must share a ring")
    if Y.nrows != n or Y.ncols != n:
        raise ShapeError(f"Y must be {n}x{n}")
    require_skew(Y, "iswa")
    ring = A.ring
    # with no rows the one term is the empty minor times the empty Pfaffian
    lhs = ring.zero if m else ring.one
    rule = _walk_rule(_minor_route(m, n), 1)
    walk = _minor_walk(ring, A._rows, rule) if m else ()
    pf = _pfaffian_minors(ring, Y._rows)
    for prefix, leaves, dets, sign in walk:
        mask = sum(1 << c for c in prefix)
        for t, d in zip(leaves, dets):
            if d:
                term = pf(mask | 1 << t) * d
                lhs = lhs - term if sign < 0 else lhs + term
    rhs = pfaffian_bareiss(A @ Y @ A.T)
    return IdentityReport(
        "iswa", lambda: _inputs_of(A=A, Y=Y), lhs, rhs, lhs == rhs, ring=ring
    )


def check_lemma_iswa(Y: Matrix, I) -> IdentityReport:
    """Split lemma: with X the strict upper part of skew Y and |I| = m even,
    sum over disjoint J u K = I, |J| = |K| = m/2 of
    (-1)^(binom(m/2,2) + inv(JK)) det(X_JK) equals Pf(Y_II)."""
    if not isinstance(I, IndexSet):
        I = IndexSet(Y.nrows, I)
    m = len(I)
    if m % 2:
        raise ParityError(f"lemma-iswa needs an even index set, got size {m}")
    ring = Y.ring
    X = strict_upper_part(Y)
    base = sign_from_binom2(m // 2)
    lhs = ring.zero
    members = I.indices
    for J in combinations(members, m // 2):
        K = tuple(v for v in members if v not in J)
        d = det(X.submatrix(J, K))
        if not d:
            continue
        sign = base if inv_word(J, K) % 2 == 0 else -base
        lhs += _apply_sign(sign, d)
    rhs = pfaffian(Y.submatrix(I, I))
    return IdentityReport(
        "lemma-iswa", lambda: _inputs_of(Y=Y, I=list(I.indices)), lhs, rhs,
        lhs == rhs, ring=ring,
    )


def check_ab(A: Matrix, B: Matrix) -> IdentityReport:
    """Interlacing-chain factorization of det(AUB^t + BUA^t + AB^t), which
    is Y(A, U + Id, B) + (B 1)(A 1)^t since J - U^t - Id = U:
    (weak-within chain sum, A leading) times (strict-within chain sum,
    B leading).  Each factor is also cross-checked against f/g's pair-route
    sums at X = U + Id and X = U (or U^t), whose H = B X^t are suffix or
    prefix sums of B's rows (of A's for g_BA(U))."""
    _check_ab(A, B)
    m = A.nrows
    if m < 1:
        raise ShapeError("need at least one row")
    ring, zero = A.ring, A.ring.zero
    lhs = det(_form_rows(ring, _running_sums(A._rows, zero), B._rows, A._rows))
    factor1 = _chain_sum(A, B, weak_within=True)
    factor2 = _chain_sum(B, A, weak_within=False)
    rhs = factor1 * factor2
    passed = lhs == rhs
    suffix = _running_sums(B._rows, zero, backward=True)
    if m % 2 == 0:
        s = sign_from_binom2(m // 2)
        # f_BA(U) = (-1)^(m/2) f_AB(U^t), so one call serves both
        prefix = _running_sums(B._rows, zero, strict=True)
        f1, f2 = _double_minor_sum(A, [suffix, prefix], m // 2, border=False)
        c1 = _apply_sign(s, f1) == factor1
        c2 = _apply_sign(s * _f_sign(m), f2) == factor2
    else:
        p = (m + 1) // 2
        s = sign_from_binom2(p) * _f_sign(m)
        c1 = _apply_sign(s, _double_minor_sum(A, [suffix], p, border=True)[0]) == factor1
        AUt = _running_sums(A._rows, zero, strict=True, backward=True)
        c2 = _apply_sign(s, _double_minor_sum(B, [AUt], p, border=True)[0]) == factor2
    passed = passed and c1 and c2
    details = {"factor1_matches_fg": c1, "factor2_matches_fg": c2}
    values = {"factor1": factor1, "factor2": factor2}
    return IdentityReport(
        "ab", lambda: _inputs_of(A=A, B=B), lhs, rhs, passed, details,
        ring=ring, values=values,
    )


def check_ab2(A: Matrix, B: Matrix) -> IdentityReport:
    """Chain sums as Pfaffians, even m: the strict-within chain sum equals
    Pf(AUB^t - BU^tA^t) and the weak-within chain sum equals
    Pf(A(U+Id)B^t - B(U^t+Id)A^t); AU and A(U + Id) are running sums."""
    _check_ab(A, B)
    m = A.nrows
    if m % 2:
        raise ParityError(f"ab2 needs even m, got {m}")
    ring = A.ring
    strict_sum = _chain_sum(A, B, weak_within=False)
    weak_sum = _chain_sum(A, B, weak_within=True)
    AU = _running_sums(A._rows, ring.zero, strict=True)
    pf_strict = pfaffian(_form_rows(ring, AU, B._rows))
    pf_weak = pfaffian(_form_rows(ring, _running_sums(A._rows, ring.zero), B._rows))
    passed = strict_sum == pf_strict and weak_sum == pf_weak
    values = {"weak_chain_sum": weak_sum, "weak_chain_pf": pf_weak}
    return IdentityReport(
        "ab2", lambda: _inputs_of(A=A, B=B), strict_sum, pf_strict, passed,
        ring=ring, values=values,
    )


def check_cor7(A: Matrix, X: Matrix) -> IdentityReport:
    """Symmetric corollary, even m: det(A(X + J - X^t)A^t) equals
    det(A(X - X^t)A^t) equals f_AA(X)^2."""
    m, n = A.nrows, A.ncols
    if m % 2:
        raise ParityError(f"cor7 needs even m, got {m}")
    if A.ring != X.ring:
        raise RingMismatchError("A and X must share a ring")
    if X.nrows != n or X.ncols != n:
        raise ShapeError(f"X must be {n}x{n}")
    ring = A.ring
    # A(X + J - X^t)A^t is the skew A(X - X^t)A^t plus (A 1)(A 1)^t
    skew = skew_form(A, X, A)
    a1 = [sum(r, ring.zero) for r in A._rows]
    d1 = det(skew + outer_product(ring, a1, a1))
    d2 = det(skew)
    fa = f_AB(A, A, X)
    sq = fa * fa
    passed = d1 == d2 == sq
    return IdentityReport(
        "cor7", lambda: _inputs_of(A=A, X=X), d1, sq, passed,
        ring=ring, values={"det_skew_part": d2, "f_AA": fa},
    )


def check_closed_forms(ring: Ring, diag: Sequence) -> IdentityReport:
    """Exhaustive comparison of the x1/x2 closed forms against the
    determinants of the ones-above-diagonal matrix X, over every admissible
    (I, J) pair for the given diagonal.  det(X_IJ) and det(1 X_IJ) come from
    one table of every minor of [1 | X] (_minor_levels, a memoised row
    expansion), not from the chain products the closed forms take: with the
    ones column at bit 0 and column j of X at bit j, det(X_IJ) sits at J's
    bitmask and det(1 X_IJ) at that bitmask | 1.  The scan builds valid
    index sets itself, so it calls the chain products without the public
    forms' checks, and it builds each J and its column bitmask once."""
    d = [ring.coerce(x) for x in diag]
    n = len(d)
    zero = ring.zero
    X = ones_above_diagonal(ring, d)
    levels = _minor_levels(ring, [(ring.one, *row) for row in X._rows], n)
    column_sets = [
        [(J, sum(1 << j for j in J)) for J in combinations(range(1, n + 1), ell)]
        for ell in range(n + 1)
    ]
    checked = 0
    mismatches = []
    forms = (("x1", _chain_product, 0), ("x2", _bordered_chain_product, 1))
    for form, closed, border in forms:
        for ell in range(n + 1 - border):
            p = ell + border
            for rows in combinations(range(n), p):
                I = tuple(i + 1 for i in rows)
                minors = levels[p].get(rows, {})
                for J, mask in column_sets[ell]:
                    expect = minors.get(mask | border, zero)
                    got = closed(ring, d, I, J)
                    checked += 1
                    if got != expect:
                        mismatches.append(
                            {
                                "form": form,
                                "I": list(I),
                                "J": list(J),
                                "formula": ring.format(got),
                                "det": ring.format(expect),
                            }
                        )
    report = IdentityReport(
        identity_id="closed-forms",
        inputs=lambda: {
            "ring": ring.to_json_tag(), "diag": [ring.format(x) for x in d]
        },
        lhs=f"{checked} closed-form values",
        rhs=f"{checked - len(mismatches)} matching cofactor determinants",
        passed=not mismatches,
        details={"checked": checked, "mismatches": mismatches},
    )
    return report


def check_det_pf_square(Y: Matrix) -> IdentityReport:
    """det(Y) = Pf(Y)^2 for skew Y of even size: two eliminations, the
    Pfaffian's never calling a determinant kernel."""
    ring = Y.ring
    lhs = det(Y)
    pf = pfaffian(Y)
    rhs = pf * pf
    return IdentityReport(
        "det-pf-square", lambda: _inputs_of(Y=Y), lhs, rhs, lhs == rhs,
        ring=ring, values={"pfaffian": pf},
    )


def check_cauchy_binet_pf(A: Matrix, B: Matrix) -> IdentityReport:
    """Specialization X = Id: Pf(AB^t - BA^t) equals
    (-1)^binom(m/2,2) * sum over |I| = m/2 of det(A^I B^I).  That sign is
    what interleaving the columns of [A^I B^I] costs, so the right side is
    f_AB's pick sum of m/2 pairs over [A, B] (H = B Id^t = B), unsigned."""
    _check_ab(A, B)
    m, n = A.nrows, A.ncols
    if m % 2:
        raise ParityError(f"cauchy-binet-pf needs even m, got {m}")
    ring = A.ring
    lhs = pfaffian(_form_rows(ring, A._rows, B._rows))
    rhs = _route_sum(ring, [A._rows, B._rows], _pair_route(n, m // 2))
    return IdentityReport(
        "cauchy-binet-pf", lambda: _inputs_of(A=A, B=B), lhs, rhs, lhs == rhs, ring=ring
    )
