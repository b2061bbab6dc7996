"""Independent oracles used by the test suite.

Everything in this module is deliberately written from first principles
(tableau enumeration, naive path walks) so that it shares no code with the
library implementations it is used to check; the 0/1 reference matrices
use only the `Matrix` constructor, to hold their entries.
"""

import functools
import itertools
from fractions import Fraction

from minorsum import Matrix


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
# Steps must lie in one open half-plane, so some functional grows along
# every step: pruning once it passes its value at the end is sound, and
# every walk terminates.


def _ascending_functional(steps):
    """A small integer (a, b) with a*sx + b*sy > 0 for every step, found by
    trying every pair with |a|, |b| <= 2 max|step coordinate|: steps in an
    open half-plane have one there (the sum of the normals of the two
    outermost steps).  Raises ValueError when the steps have none."""
    reach = 2 * max(abs(c) for step in steps for c in step)
    pairs = sorted(itertools.product(range(-reach, reach + 1), repeat=2),
                   key=lambda w: abs(w[0]) + abs(w[1]))
    for a, b in pairs:
        if all(a * sx + b * sy > 0 for sx, sy in steps):
            return a, b
    raise ValueError(f"steps {steps} lie in no open half-plane")


def lattice_paths(start, end, steps=((1, 0), (0, 1))):
    """All paths start -> end as tuples of visited points (inclusive).  A
    walk stops once a functional that every step increases passes its value
    at end, and once it passes end in a coordinate that no step decreases."""
    out = []
    end = tuple(end)
    a, b = _ascending_functional(steps)
    top = a * end[0] + b * end[1]
    cuts = [k for k in (0, 1) if all(step[k] >= 0 for step in steps)]

    def walk(pt, acc):
        if pt == end:
            out.append(tuple(acc))
            return
        if a * pt[0] + b * pt[1] >= top or any(pt[k] > end[k] for k in cuts):
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


class ListedPathIndex:
    """Reference for the exhaustive route's index of the last start's
    paths, built from the listed paths.  listed[i] holds the vertex
    bitmasks of the paths to columns[i]; the paths are numbered from the
    last column down, in listed order within a column.  tail[i] is the
    number of paths to columns[i:], through[v] the numbers of the paths
    through vertex bit v, and touched the vertices of every path, each set
    an int bitmask, set one bit per (path, vertex)."""

    def __init__(self, columns, listed):
        self.columns = columns
        self.tail = [sum(map(len, listed[i:])) for i in range(len(listed) + 1)]
        self.touched = 0
        self.through = {}
        number = 0
        for masks in reversed(listed):
            for b in masks:
                self.touched |= b
                while b:
                    v = b & -b
                    self.through[v] = self.through.get(v, 0) | 1 << number
                    b ^= v
                number += 1


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


# -- 0/1 matrices by their definitions ---------------------------------------
# U, Id, J and the zero matrix for the literal products that the skew forms,
# the running sums and the checkers are tested against; the package itself
# builds none of them.


def zeros(ring, m, n):
    return Matrix(ring, [[ring.zero] * n for _ in range(m)], ncols=n)


def upper_ones(n, ring):
    """U_n: 1 strictly above the diagonal, 0 elsewhere."""
    return Matrix(ring, [[ring.one if i < j else ring.zero for j in range(n)]
                         for i in range(n)], ncols=n)


def identity(n, ring):
    return Matrix(ring, [[ring.one if i == j else ring.zero for j in range(n)]
                         for i in range(n)], ncols=n)


def all_ones(n, ring):
    return Matrix(ring, [[ring.one] * n for _ in range(n)], ncols=n)


# -- misc ---------------------------------------------------------------------


def report_json(report):
    """The six-key JSON form of an IdentityReport whose bytes the golden
    digests pin."""
    return {
        "identity": report.identity_id,
        "digest": report.input_digest,
        "lhs": report.lhs,
        "rhs": report.rhs,
        "pass": report.passed,
        "details": report.details,
    }


def binomial(n, k):
    if k < 0 or k > n:
        return 0
    out = 1
    for t in range(k):
        out = out * (n - t) // (t + 1)
    return out
