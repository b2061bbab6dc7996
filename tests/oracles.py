"""Independent oracles used by the test suite.

Everything in this module is deliberately written from first principles
(tableau enumeration, naive path walks) so that it shares no code with the
library implementations it is used to check.
"""

import functools
import itertools
from fractions import Fraction


# -- semistandard tableau enumeration ----------------------------------------


def _cells(lam, mu):
    """Row-major list of (row, col) cells of the skew diagram lam/mu,
    0-based columns; None if the shape is invalid (mu not inside lam)."""
    lam = tuple(lam)
    mu = tuple(mu) + (0,) * (len(lam) - len(mu))
    if len(mu) > len(lam):
        if any(mu[len(lam):]):
            return None
        mu = mu[: len(lam)]
    if any(m > l for l, m in zip(lam, mu)):
        return None
    out = []
    for r, (l, m) in enumerate(zip(lam, mu)):
        for c in range(m, l):
            out.append((r, c))
    return out


def tableau_weights(lam, mu, nvars):
    """Yield one weight vector (occurrences of each value 1..nvars) per
    semistandard tableau of shape lam/mu: rows weakly increase, columns
    strictly increase."""
    cells = _cells(lam, mu)
    if cells is None:
        return
    filling = {}

    def rec(k):
        if k == len(cells):
            weight = [0] * nvars
            for v in filling.values():
                weight[v - 1] += 1
            yield tuple(weight)
            return
        r, c = cells[k]
        lo = 1
        left = filling.get((r, c - 1))
        if left is not None:
            lo = max(lo, left)
        above = filling.get((r - 1, c))
        if above is not None:
            lo = max(lo, above + 1)
        for v in range(lo, nvars + 1):
            filling[(r, c)] = v
            yield from rec(k + 1)
        filling.pop((r, c), None)

    yield from rec(0)


def tableau_schur(ring, lam, mu, block):
    """Skew Schur polynomial summed directly over semistandard tableaux."""
    total = ring.zero
    for weight in tableau_weights(lam, mu, len(block)):
        term = ring.one
        for var, k in zip(block, weight):
            if k:
                term = term * var**k
        total = total + term
    return total


# -- naive lattice path counting ----------------------------------------------
# Steps must have nonnegative coordinates and at least one positive entry,
# so pruning on overshoot is sound and every walk terminates.


def lattice_paths(start, end, steps=((1, 0), (0, 1))):
    """All paths start -> end as tuples of visited points (inclusive)."""
    out = []

    def walk(pt, acc):
        if pt == end:
            out.append(tuple(acc))
            return
        if pt[0] > end[0] or pt[1] > end[1]:
            return
        for dx, dy in steps:
            nxt = (pt[0] + dx, pt[1] + dy)
            acc.append(nxt)
            walk(nxt, acc)
            acc.pop()

    walk(tuple(start), [tuple(start)])
    return out


def count_disjoint_families(starts, ends, steps=((1, 0), (0, 1))):
    """Families of vertex-disjoint paths joining the start set to the end
    set, summed over every assignment of endpoints to starts.  For staircase
    configurations with monotone steps only one assignment can contribute,
    which is exactly what the tests rely on."""
    path_sets = {}
    for s in starts:
        for e in ends:
            path_sets[(s, e)] = [
                frozenset(p) for p in lattice_paths(s, e, steps)
            ]

    total = 0
    for perm in itertools.permutations(range(len(ends)), len(starts)):
        def fill(i, used):
            if i == len(starts):
                return 1
            acc = 0
            for vs in path_sets[(tuple(starts[i]), tuple(ends[perm[i]]))]:
                if not (vs & used):
                    acc += fill(i + 1, used | vs)
            return acc

        total += fill(0, frozenset())
    return total


def count_free_families(starts, candidate_ends, steps=((1, 0), (0, 1))):
    """Free-endpoint count: disjoint families onto every subset of the
    candidate endpoints of the right size."""
    m = len(starts)
    total = 0
    for combo in itertools.combinations(candidate_ends, m):
        total += count_disjoint_families(starts, list(combo), steps)
    return total


# -- the region walk of the exhaustive path route ----------------------------
# Any steps in one open half-plane; bounds are the pruning functionals.


def walk_region(start, end, steps, bounds):
    """Reference for the exhaustive path route's region walk: the points
    reachable from start by steps that none of the functionals in bounds
    prunes towards end (a point u is pruned when f.u > f.end), ordered by
    the last functional, largest first.  A straight copy of the set-based
    walk the library replaced, with its generator expressions kept."""
    bounds = [(a, b, a * end[0] + b * end[1]) for a, b in bounds]
    seen = set()
    todo = [start]
    while todo:
        u = todo.pop()
        if u in seen or any(a * u[0] + b * u[1] > c for a, b, c in bounds):
            continue
        seen.add(u)
        if u != end:
            todo.extend((u[0] + sx, u[1] + sy) for sx, sy in steps)
    a, b, _ = bounds[-1]
    return sorted(seen, key=lambda u: a * u[0] + b * u[1], reverse=True)


# -- edges that meet between lattice points ---------------------------------


def _orientation(a, b, c):
    v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    return (v > 0) - (v < 0)


def _within_box(a, b, c):
    return (min(a[0], b[0]) <= c[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= c[1] <= max(a[1], b[1]))


def segments_meet(a, b, c, d):
    """Whether the closed segments [a, b] and [c, d] have a common point."""
    o1, o2 = _orientation(a, b, c), _orientation(a, b, d)
    o3, o4 = _orientation(c, d, a), _orientation(c, d, b)
    if o1 * o2 < 0 and o3 * o4 < 0:
        return True
    return ((o1 == 0 and _within_box(a, b, c)) or (o2 == 0 and _within_box(a, b, d))
            or (o3 == 0 and _within_box(c, d, a)) or (o4 == 0 and _within_box(c, d, b)))


def steps_can_cross(steps):
    """Whether an edge 0 -> s and an edge d -> d + t, for steps s and t
    and a lattice offset d, meet while sharing no endpoint.  Every offset
    at which they meet lies in the box |d_x| <= |s_x| + |t_x|,
    |d_y| <= |s_y| + |t_y|, which is searched whole."""
    origin = (0, 0)
    for s in steps:
        for t in steps:
            wx, wy = abs(s[0]) + abs(t[0]), abs(s[1]) + abs(t[1])
            for dx in range(-wx, wx + 1):
                for dy in range(-wy, wy + 1):
                    d, e = (dx, dy), (dx + t[0], dy + t[1])
                    if {origin, s} & {d, e}:
                        continue
                    if segments_meet(origin, s, d, e):
                        return True
    return False


# -- determinants and Pfaffians by their definitions ------------------------
# Entries only need +, * and comparison with 0, so these work for int,
# Fraction and Poly entries alike.


@functools.lru_cache(maxsize=None)
def _permutations_with_sign(n):
    out = []
    for perm in itertools.permutations(range(n)):
        inversions = sum(
            1 for a in range(n) for b in range(a + 1, n) if perm[a] > perm[b]
        )
        out.append((tuple(enumerate(perm)), -1 if inversions % 2 else 1))
    return tuple(out)


def leibniz_det(rows):
    """Determinant as the signed sum over permutations; 1 for 0 x 0."""
    total = 0
    for cells, sign in _permutations_with_sign(len(rows)):
        term = sign
        for r, c in cells:
            term = term * rows[r][c]
        total = total + term
    return total


def expansion_pfaffian(rows):
    """Pfaffian by expansion along the first row: the sum over t of
    (-1)^(t-1) y_0t Pf(Y without vertices 0 and t), 0-based; 1 for 0 x 0."""
    n = len(rows)
    if n == 0:
        return 1
    total = 0
    for t in range(1, n):
        if rows[0][t]:
            keep = [k for k in range(1, n) if k != t]
            term = rows[0][t] * expansion_pfaffian([[rows[i][j] for j in keep] for i in keep])
            total = total - term if t % 2 == 0 else total + term
    return total


def gauss_det(rows):
    """Determinant by Gaussian elimination over Fraction, for int or
    Fraction entries; 1 for 0 x 0.  Polynomial in the size, for the sizes
    the permutation sum cannot reach."""
    work = [[Fraction(v) for v in row] for row in rows]
    n = len(work)
    total = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if work[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            work[k], work[pivot] = work[pivot], work[k]
            total = -total
        total *= work[k][k]
        for i in range(k + 1, n):
            ratio = work[i][k] / work[k][k]
            if ratio:
                work[i] = [u - ratio * v for u, v in zip(work[i], work[k])]
    return total


def _pick(rows, cols):
    return [[row[c] for c in cols] for row in rows]


def ref_minor_sum(rows, ncols):
    """Sum of det(A^I) over the len(rows)-subsets I of the columns."""
    total = 0
    for I in itertools.combinations(range(ncols), len(rows)):
        total = total + leibniz_det(_pick(rows, I))
    return total


def _double_sum(a, b, x, p, q, border):
    n = len(x)
    total = 0
    for I in itertools.combinations(range(n), p):
        for J in itertools.combinations(range(n), q):
            minor = [([1] if border else []) + [x[i][j] for j in J] for i in I]
            stacked = [[ra[i] for i in I] + [rb[j] for j in J] for ra, rb in zip(a, b)]
            total = total + leibniz_det(minor) * leibniz_det(stacked)
    return total


def ref_f(a, b, x):
    """Sum over |I| = |J| = m/2 of det(X_IJ) det(A^I B^J)."""
    p = len(a) // 2
    return _double_sum(a, b, x, p, p, border=False)


def ref_g(a, b, x):
    """Sum over |I| = (m+1)/2, |J| = (m-1)/2 of det(1 X_IJ) det(A^I B^J)."""
    p = (len(a) + 1) // 2
    return _double_sum(a, b, x, p, p - 1, border=True)


def ref_chain_sum(first, second, weak_within):
    """Sum of det(first^{c1} second^{c2} first^{c3} ...) over the chains
    c1 <= c2 < c3 <= ... (weak_within) or c1 < c2 <= c3 < ... (not); 1 for
    no rows, the empty chain."""
    m, n = len(first), len(first[0]) if first else 0
    total = 0
    for chain in itertools.product(range(n), repeat=m):
        ok = True
        for t in range(1, m):
            weak = weak_within if t % 2 else not weak_within
            if chain[t] < chain[t - 1] or (not weak and chain[t] == chain[t - 1]):
                ok = False
                break
        if ok:
            square = [
                [(first if t % 2 == 0 else second)[r][c] for t, c in enumerate(chain)]
                for r in range(m)
            ]
            total = total + leibniz_det(square)
    return total


# -- misc ---------------------------------------------------------------------


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out
