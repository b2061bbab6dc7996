"""Counting non-intersecting lattice paths with fixed or free endpoints.

A path problem has m starting points and n >= m candidate endpoints.  With
both point lists on a staircase (x weakly increasing, y weakly decreasing),
and steps whose edges meet only at lattice points (checked for m >= 2),
every m-subset of endpoints admits exactly one non-crossing connection
pattern, the path-count determinant is sign-free, and the free-endpoint
total is a sum of maximal minors, which the Pfaffian identities compress
into a single Pfaffian or determinant.  The exhaustive route that
cross-checks them counts vertex-disjoint families over all endpoint
subsets in one depth-first walk, with each path a bitmask of its vertices
and each start's paths to all its ends listed in one forward pass.  The
last start's paths are counted instead, into the numbers of its paths
through each vertex (as one bitmask, from two passes of path counts), and
every other path carries the set of the last start's paths it blocks, so
that a partial family's extensions are counted with one bitmask operation.

Endpoint subsets are 1-based column selections, matching the matrix module.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from itertools import accumulate, combinations
from typing import Iterable, Optional, Sequence, Tuple, Union

from .combinat import IndexSet
from .errors import (
    CrossingStepsError,
    RouteMismatchError,
    ShapeError,
    StaircaseError,
)
from .matrix import Matrix, _wrap, byun_determinant, det, okada_pfaffian
from .ring import ZZ

Point = Tuple[int, int]

NE_STEPS: Tuple[Point, ...] = ((1, 0), (0, 1))

ENUMERATION_GUARD = 10**6


def _as_point(obj) -> Point:
    try:
        x, y = obj
    except (TypeError, ValueError):
        raise ShapeError(f"not a lattice point: {obj!r}") from None
    for v in (x, y):
        if isinstance(v, bool) or not isinstance(v, int):
            raise ShapeError(f"lattice coordinates must be integers, got {obj!r}")
    return (x, y)


def _as_points(objs) -> Tuple[Point, ...]:
    try:
        items = tuple(objs)
    except TypeError:
        raise ShapeError(f"not a list of lattice points: {objs!r}") from None
    return tuple(_as_point(p) for p in items)


@dataclass(frozen=True)
class PathProblem:
    """m starting points, n ordered candidate endpoints, a step set.

    choose defaults to the number of starts and must equal it: every start
    gets exactly one path.  The step model is pluggable; its steps must lie
    in one open half-plane (some integer vector has a positive dot product
    with every step), so that every walk ends.  With two or more starts,
    no two vertex-disjoint paths may cross between lattice points
    (_require_planar), or the path-count determinant would count signed
    crossings.
    """

    starts: Tuple[Point, ...]
    candidate_ends: Tuple[Point, ...]
    choose: Optional[int] = None
    steps: Tuple[Point, ...] = NE_STEPS

    def __post_init__(self):
        starts = _as_points(self.starts)
        ends = _as_points(self.candidate_ends)
        if not starts:
            raise ShapeError("need at least one starting point")
        if not ends:
            raise ShapeError("need at least one candidate endpoint")
        if len(set(starts)) != len(starts):
            raise ShapeError("starting points must be pairwise distinct")
        if len(set(ends)) != len(ends):
            raise ShapeError("candidate endpoints must be pairwise distinct")
        steps = _as_points(self.steps)
        if not steps or any(s == (0, 0) for s in steps):
            raise ShapeError("steps must be nonzero lattice vectors")
        _step_bounds(steps)
        if len(starts) > 1:
            _require_planar(steps)
        choose = self.choose if self.choose is not None else len(starts)
        if isinstance(choose, bool) or not isinstance(choose, int):
            raise ShapeError(f"choose must be an integer, got {choose!r}")
        if choose != len(starts):
            raise ShapeError(
                f"choose must equal the number of starts ({len(starts)}), got {choose}"
            )
        object.__setattr__(self, "starts", starts)
        object.__setattr__(self, "candidate_ends", ends)
        object.__setattr__(self, "steps", steps)
        object.__setattr__(self, "choose", choose)


def _require_staircase(points: Sequence[Point], label: str) -> None:
    # x weakly increasing and y weakly decreasing along the list
    for a, b in zip(points, points[1:]):
        if a[0] > b[0] or a[1] < b[1]:
            raise StaircaseError(
                f"{label} must be staircase-ordered "
                f"(x weakly increasing, y weakly decreasing): {a} before {b}"
            )


def _cross(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def _step_bounds(steps: Sequence[Point]) -> Tuple[Point, Point, Point]:
    """Linear functionals f with f.s >= 0 for every step s, the last with
    f.s > 0.  Along a walk each f(u) only grows, so a point with
    f(u) > f(end) for one of them cannot reach end, and the last bounds the
    length of every walk.

    With r1 and r2 the clockwise- and counterclockwise-most steps and J the
    rotation by 90 degrees, the first two are J.r1 and -J.r2, the edges of
    the cone of functionals no step decreases: together they prune every
    point outside end - cone(steps).  The last is their sum, or r1 when
    all steps point one way.  Raises ShapeError unless the steps lie in one
    open half-plane, which is when every walk ends.
    """

    def extreme(sign: int) -> Point:
        # the step from which every step turns by an angle in [0, pi),
        # counterclockwise for sign 1 and clockwise for sign -1
        for r in steps:
            if all(
                sign * _cross(r, s) > 0
                or (_cross(r, s) == 0 and r[0] * s[0] + r[1] * s[1] > 0)
                for s in steps
            ):
                return r
        raise ShapeError(
            f"steps must all lie in one open half-plane, got {[list(s) for s in steps]}"
        )

    r1, r2 = extreme(1), extreme(-1)
    f1, f2 = (-r1[1], r1[0]), (r2[1], -r2[0])
    w = (f1[0] + f2[0], f1[1] + f2[1])
    return f1, f2, w if w != (0, 0) else r1


def _require_planar(steps: Sequence[Point]) -> None:
    """Raise CrossingStepsError if two vertex-disjoint paths can meet
    between lattice points.

    Edges u -> u + s and v -> v + t meet exactly when v - u = a s - b t for
    some a, b in [0, 1], so finitely many offsets v - u matter: the lattice
    points of the parallelogram with corners 0, s, -t and s - t.  At a
    corner the edges share an endpoint, so their paths share a vertex; at
    any other point two vertex-disjoint paths meet.  By Pick's theorem the
    corners are the only lattice points when s = t is primitive or
    |det(s, t)| = 1, and there are more otherwise (a parallel pair s != t
    in one half-plane has a non-primitive member)."""
    for s in steps:
        if math.gcd(*s) != 1:
            raise CrossingStepsError(
                f"step {list(s)} passes over a lattice point, so vertex-disjoint "
                f"paths can meet between their vertices; use one start"
            )
    for s, t in combinations(steps, 2):
        if abs(_cross(s, t)) > 1:
            raise CrossingStepsError(
                f"steps {list(s)} and {list(t)} span a parallelogram of area "
                f"{abs(_cross(s, t))}, so vertex-disjoint paths can cross "
                f"between lattice points; use one start"
            )


def _walk_region(start: Point, ends: Sequence[Point], steps: Sequence[Point], bounds) -> list:
    """The points of walks from start that the bounds _step_bounds(steps)
    do not prune towards at least one of ends, ordered so that every step
    goes to an earlier point."""
    (a1, b1), (a2, b2), (a3, b3) = bounds
    caps = [(a1 * x + b1 * y, a2 * x + b2 * y, a3 * x + b3 * y) for x, y in ends]
    seen = set()
    todo = [start]
    while todo:
        u = todo.pop()
        if u in seen:
            continue
        x, y = u
        f1, f2, f3 = a1 * x + b1 * y, a2 * x + b2 * y, a3 * x + b3 * y
        for c1, c2, c3 in caps:
            if f1 <= c1 and f2 <= c2 and f3 <= c3:
                break
        else:
            continue
        seen.add(u)
        for sx, sy in steps:
            todo.append((x + sx, y + sy))
    return sorted(seen, key=lambda u: a3 * u[0] + b3 * u[1], reverse=True)


def count_paths(start: Point, end: Point, steps: Sequence[Point] = NE_STEPS) -> int:
    """Number of single paths from start to end in the step model.  Raises
    ShapeError unless the steps lie in one open half-plane."""
    steps = tuple(steps)
    return _count_paths(start, (end,), steps, _bounds_of(steps))[0]


def _bounds_of(steps: Tuple[Point, ...]):
    """_step_bounds(steps), or None for the north-east steps, which
    _count_paths counts in closed form."""
    return None if steps == NE_STEPS else _step_bounds(steps)


def _count_paths(start: Point, ends: Sequence[Point], steps: Tuple[Point, ...], bounds) -> list:
    """The number of paths from start to each of ends, with
    bounds = _bounds_of(steps): binomials on the north-east steps, else one
    forward count over the union of the ends' regions (as _start_masks
    lists them), the paths to a point summing those to its predecessors."""
    if bounds is None:
        x0, y0 = start
        return [math.comb(x - x0 + y - y0, x - x0) if x >= x0 and y >= y0 else 0
                for x, y in ends]
    counts: dict = {}
    for u in reversed(_walk_region(start, ends, steps, bounds)):
        # every point of the region after start is a step from one before it
        counts[u] = 1 if u == start else sum(
            counts.get((u[0] - sx, u[1] - sy), 0) for sx, sy in steps
        )
    return [counts.get(e, 0) for e in ends]


def _start_masks(start: Point, ends: Sequence[Point], steps: Sequence[Point], bounds, bit,
                 through: dict) -> list:
    """Every path from start to each of ends, as (masks, blocked) per end:
    the bitmask of each path's vertices (bit(u) is the bit of vertex u) and
    the union of through[v] over its vertex bits v, with
    bounds = _step_bounds(steps).
    One forward pass over the union of the ends' regions keeps both for the
    paths to each point, so the ends share their paths' common prefixes."""
    masks, blocks = {}, {}
    for u in reversed(_walk_region(start, ends, steps, bounds)):
        # every point of the region after start is a step from one before it
        preds = [w for w in ((u[0] - sx, u[1] - sy) for sx, sy in steps) if w in masks]
        b = bit(u)
        t = through.get(b)
        masks[u] = [b | h for w in preds for h in masks[w]] if preds else [b]
        # blocks lacks the points whose paths' sets are all empty
        if t or any(w in blocks for w in preds):
            bls = [x for w in preds for x in blocks.get(w) or [0] * len(masks[w])] or [0]
            blocks[u] = [t | x for x in bls] if t else bls
    return [(masks.get(e, []), blocks.get(e) or [0] * len(masks.get(e, ()))) for e in ends]


def lindstrom_matrix(p: PathProblem) -> Matrix:
    """Integer matrix of single-path counts, entry (i, j) = #paths from
    start i to candidate endpoint j, one count per start for all ends."""
    bounds = _bounds_of(p.steps)
    rows = (tuple(_count_paths(s, p.candidate_ends, p.steps, bounds)) for s in p.starts)
    return _wrap(ZZ, rows, len(p.candidate_ends))


def _end_selection(p: PathProblem, ends: Union[IndexSet, Iterable[int]]):
    n = len(p.candidate_ends)
    sel = ends if isinstance(ends, IndexSet) else IndexSet(n, ends)
    if sel.ambient != n:
        raise ShapeError(
            f"endpoint selection is over {sel.ambient} candidates, problem has {n}"
        )
    if len(sel) != len(p.starts):
        raise ShapeError(
            f"need exactly {len(p.starts)} endpoints, got {len(sel)}"
        )
    return sel, [p.candidate_ends[i - 1] for i in sel]


def count_fixed(p: PathProblem, ends: Union[IndexSet, Iterable[int]]) -> int:
    """Non-intersecting path families onto a fixed endpoint selection:
    the determinant of the selected columns of the path-count matrix."""
    sel, points = _end_selection(p, ends)
    _require_staircase(p.starts, "starts")
    _require_staircase(points, "selected endpoints")
    return det(lindstrom_matrix(p).submatrix(range(1, len(p.starts) + 1), sel))


def _live_columns(counts: Sequence[Sequence[int]]) -> Optional[list]:
    """live[k]: the columns c of row k on some selection c_1 < ... < c_m
    whose counts counts[k][c_k] are all nonzero, or None when there is no
    such selection.  The leftmost chain of nonzero counts down the rows
    ends row k at lo[k], the rightmost at hi[k], and c is live exactly
    when counts[k][c] is nonzero and lo[k] <= c <= hi[k]."""
    n = len(counts[0])
    lo, c = [], -1
    for row in counts:
        c = next((j for j in range(c + 1, n) if row[j]), None)
        if c is None:
            return None
        lo.append(c)
    hi, c = [], n
    for row in reversed(counts):
        c = next(j for j in range(c - 1, -1, -1) if row[j])
        hi.append(c)
    hi.reverse()
    return [
        [c for c in range(lo[k], hi[k] + 1) if row[c]]
        for k, row in enumerate(counts)
    ]


def _disjoint_families(p: PathProblem, counts: Sequence[Sequence[int]]) -> int:
    """Vertex-disjoint path families, start k to candidate end c_k, summed
    over every selection c_1 < ... < c_m of 0-based columns whose path
    counts counts[k][c_k] are all nonzero.

    One depth-first walk over (start k, column c_k, path of start k to c_k
    disjoint from the paths already chosen) serves every selection: a path
    is the bitmask of its vertices, so disjointness is one `&`.  Only live
    columns (_live_columns) are visited.  The last start's paths are
    numbered up front from path counts (_PathIndex); each other start's
    paths to all its columns are listed in one forward pass (_start_masks)
    when the walk first reaches it, each with the set of the last start's
    paths it blocks.  A partial family carries the union of its paths' sets
    down the walk, and its extensions are counted with one bitmask
    operation.
    """
    live = _live_columns(counts)
    if live is None:
        return 0
    bounds = _step_bounds(p.steps)
    numbering: dict = {}

    def bit(u: Point) -> int:
        return 1 << numbering.setdefault(u, len(numbering))

    def listing(k: int, through: dict) -> list:
        ends = [p.candidate_ends[c] for c in live[k]]
        return _start_masks(p.starts[k], ends, p.steps, bounds, bit, through)

    last = len(live) - 1
    if last == 0:
        return sum(len(masks) for masks, _ in listing(0, {}))
    index = _PathIndex(p, live[last], bounds, bit)
    listed: dict = {}

    def paths(k: int) -> list:
        # (column, number of the last start's paths after it, its masks,
        # their blocked sets) for each live column of start k
        if k not in listed:
            columns = listed[k] = []
            for c, (masks, bls) in zip(live[k], listing(k, index.through)):
                later = index.later(c)
                below = (1 << later) - 1
                columns.append((c, later, masks, [bl & below for bl in bls]))
        return listed[k]

    # a recursive closure would be a reference cycle holding the path lists
    # after the return, until the next collection; _extensions is not one
    return _extensions(0, -1, 0, 0, last - 1, paths)


def _extensions(k: int, prev: int, used: int, blocked: int, penult: int, paths) -> int:
    """The walk of _disjoint_families from start k on: families of the
    paths of starts k, k+1, ... onto live columns after prev, disjoint from
    the vertices in used and from each other, whose last start's paths lie
    outside blocked.  At start penult, the one before the last, each path
    adds the last start's paths after its column that avoid it."""
    total = 0
    if k == penult:
        for c, later, masks, bls in paths(k):
            if c > prev:
                shared = blocked & ((1 << later) - 1)
                for b, bl in zip(masks, bls):
                    if not b & used:
                        total += later - (shared | bl).bit_count()
        return total
    for c, _, masks, bls in paths(k):
        if c > prev:
            for b, bl in zip(masks, bls):
                if not b & used:
                    total += _extensions(k + 1, c, used | b, blocked | bl, penult, paths)
    return total


class _PathIndex:
    """The paths of the last start to its live columns, numbered from the
    last column down and, within a column, in _start_masks order, so that
    the paths to the columns after any column are the lowest numbers.
    tail[i] is the number of paths to columns[i:], and through[v] the set
    of numbers of the paths through vertex bit v (an int bitmask).

    Nothing is listed.  As the paths to w are those to each w - s over the
    steps s in order, the paths that go on from v to an end one same way
    have consecutive numbers, P(v) of them, with P(v) the number of paths
    to v.  With D(v) the numbers that begin such blocks, base(e) the number
    of paths to the columns after end e and off(w, s) the sum of P(w - s')
    over the steps s' before s, D(v) = [v is an end] 2^base(v) +
    sum_s D(v + s) << off(v + s, s), and through[v] = D(v) (2^P(v) - 1).
    """

    __slots__ = ("columns", "tail", "through")

    def __init__(self, p: PathProblem, columns: list, bounds, bit):
        start, ends = p.starts[-1], [p.candidate_ends[c] for c in columns]
        region = _walk_region(start, ends, p.steps, bounds)
        count: dict = {}  # P(u)
        for u in reversed(region):
            # every point of the region after start is a step from one before it
            count[u] = 1 if u == start else sum(count.get((u[0] - sx, u[1] - sy), 0)
                                                 for sx, sy in p.steps)
        self.columns = columns
        self.tail = list(accumulate((count[e] for e in reversed(ends)), initial=0))[::-1]
        # begins[u]: D(u) so far; every step from w lands before it, so D(w) is whole
        begins = {e: 1 << t for e, t in zip(ends, self.tail[1:])}
        through = self.through = {}
        for w in region:
            d = begins.pop(w, 0)
            if d:
                through[bit(w)] = (d << count[w]) - d
                off = 0
                for sx, sy in p.steps:
                    u = (w[0] - sx, w[1] - sy)
                    if u in count:
                        begins[u] = begins.get(u, 0) | d << off
                        off += count[u]

    def later(self, c: int) -> int:
        """The number of paths to columns after column c: they are the
        numbers below it."""
        return self.tail[bisect.bisect_right(self.columns, c)]


def _most_tuples(mat: Matrix) -> int:
    """Largest product mat[1][c_1] * ... * mat[m][c_m] over columns
    c_1 < ... < c_m: the most path tuples of one endpoint selection, which
    also bounds the paths the exhaustive route lists for any pair it uses."""
    # best[j]: the largest product over the rows so far within columns < j
    best = [1] * (mat.ncols + 1)
    for row in mat._rows:
        nxt = [0]
        for j, x in enumerate(row):
            nxt.append(max(nxt[j], best[j] * x))
        best = nxt
    return best[-1]


def count_free_routes(p: PathProblem) -> dict:
    """Non-intersecting path families with free endpoints, the sum of
    count_fixed over all endpoint selections, by each route that ran:

    - okada: the Pfaffian compression of the minor sum (hat augmentation
      when the number of starts is odd);
    - byun: integer square root of the determinant whose value is the
      squared minor sum, validated to be a perfect square;
    - brute: exhaustive vertex-disjoint enumeration over all selections
      in one depth-first walk, run only when no selection exceeds
      ENUMERATION_GUARD path tuples.

    Raises RouteMismatchError unless every route that ran agrees.
    """
    m, n = len(p.starts), len(p.candidate_ends)
    if m > n:
        raise ShapeError(f"need at least as many candidate ends ({n}) as starts ({m})")
    _require_staircase(p.starts, "starts")
    _require_staircase(p.candidate_ends, "candidate endpoints")
    mat = lindstrom_matrix(p)

    okada = okada_pfaffian(mat)
    byun_det = byun_determinant(mat)
    byun: Optional[int] = None
    if byun_det >= 0:
        root = math.isqrt(byun_det)
        if root * root == byun_det:
            byun = root

    routes = {"okada": okada, "byun": byun}
    if _most_tuples(mat) <= ENUMERATION_GUARD:
        routes["brute"] = _disjoint_families(p, mat._rows)
    if byun is None:
        raise RouteMismatchError(
            f"squared-minor-sum determinant {byun_det} is not a perfect square",
            routes,
        )
    if len(set(routes.values())) != 1:
        raise RouteMismatchError(
            "free-endpoint counting routes disagree", routes
        )
    return routes


def count_free(p: PathProblem) -> int:
    """Non-intersecting path families with free endpoints, checked by
    every route of count_free_routes."""
    return count_free_routes(p)["okada"]
