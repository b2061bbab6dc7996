"""Counting non-intersecting lattice paths with fixed or free endpoints.

A path problem has m starting points and n >= m candidate endpoints.  With
both point lists on a staircase (x weakly increasing, y weakly decreasing),
every m-subset of endpoints admits exactly one non-crossing connection
pattern, the path-count determinant is sign-free, and the free-endpoint
total is a sum of maximal minors, which the Pfaffian identities compress
into a single Pfaffian or determinant.

Endpoint subsets are 1-based column selections, matching the matrix module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence, Tuple, Union

from .combinat import IndexSet
from .errors import (
    EnumerationGuardError,
    RouteMismatchError,
    ShapeError,
    StaircaseError,
)
from .matrix import (
    Matrix,
    augment_hat,
    det_bareiss,
    identity,
    pfaffian_bareiss,
    upper_ones,
)
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
    gets exactly one path.  The step model is pluggable; it must define an
    acyclic walk with finitely many points between any start and end (the
    caller's responsibility, not verified).
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
        choose = self.choose if self.choose is not None else len(starts)
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


def _prunes(end: Point, steps: Sequence[Point]):
    checks = []
    if all(sx >= 0 for sx, _ in steps):
        checks.append(lambda u: u[0] > end[0])
    if all(sy >= 0 for _, sy in steps):
        checks.append(lambda u: u[1] > end[1])
    if all(sx + sy >= 1 for sx, sy in steps):
        checks.append(lambda u: u[0] + u[1] > end[0] + end[1])
    return checks


def count_paths(start: Point, end: Point, steps: Sequence[Point] = NE_STEPS) -> int:
    """Number of single paths from start to end in the step model."""
    steps = tuple(steps)
    if steps == NE_STEPS:
        dx, dy = end[0] - start[0], end[1] - start[1]
        return math.comb(dx + dy, dx) if dx >= 0 and dy >= 0 else 0
    checks = _prunes(end, steps)
    memo: dict = {}

    def walk(u: Point) -> int:
        if u == end:
            return 1
        if any(check(u) for check in checks):
            return 0
        if u not in memo:
            memo[u] = sum(walk((u[0] + sx, u[1] + sy)) for sx, sy in steps)
        return memo[u]

    return walk(start)


def _single_paths(start: Point, end: Point, steps: Sequence[Point]):
    # every path as the frozenset of its vertices
    checks = _prunes(end, tuple(steps))
    out = []

    def walk(u: Point, trail: tuple) -> None:
        if u == end:
            out.append(frozenset(trail))
            return
        if any(check(u) for check in checks):
            return
        for sx, sy in steps:
            v = (u[0] + sx, u[1] + sy)
            walk(v, trail + (v,))

    walk(start, (start,))
    return out


def lindstrom_matrix(p: PathProblem) -> Matrix:
    """Integer matrix of single-path counts, entry (i, j) = #paths from
    start i to candidate endpoint j."""
    rows = [
        [count_paths(s, e, p.steps) for e in p.candidate_ends] for s in p.starts
    ]
    return Matrix(ZZ, rows)


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
    sub = lindstrom_matrix(p).columns_at(sel)
    return det_bareiss(sub)


def brute_force_nonintersecting(
    p: PathProblem, ends: Union[IndexSet, Iterable[int]]
) -> int:
    """Exhaustive oracle: enumerate all path tuples onto the selected
    endpoints (start i to selected endpoint i) and count the vertex-disjoint
    ones.  Guarded by the product of single-path counts."""
    _, points = _end_selection(p, ends)
    counts = [count_paths(s, e, p.steps) for s, e in zip(p.starts, points)]
    total = math.prod(counts)
    if total > ENUMERATION_GUARD:
        raise EnumerationGuardError(
            f"{total} path tuples exceed the enumeration guard "
            f"({ENUMERATION_GUARD}); shrink the instance"
        )
    vertex_sets = [
        _single_paths(s, e, p.steps) for s, e in zip(p.starts, points)
    ]

    def disjoint_tuples(i: int, used: frozenset) -> int:
        if i == len(vertex_sets):
            return 1
        return sum(
            disjoint_tuples(i + 1, used | vs)
            for vs in vertex_sets[i]
            if not (vs & used)
        )

    return disjoint_tuples(0, frozenset())


def _most_tuples(mat: Matrix) -> int:
    """Largest product mat[1][c_1] * ... * mat[m][c_m] over columns
    c_1 < ... < c_m: the most path tuples the exhaustive route enumerates
    for one endpoint selection."""
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
    - brute: exhaustive vertex-disjoint enumeration summed over
      selections, run only when no selection exceeds ENUMERATION_GUARD
      path tuples.

    Raises RouteMismatchError unless every route that ran agrees.
    """
    m, n = len(p.starts), len(p.candidate_ends)
    if m > n:
        raise ShapeError(f"need at least as many candidate ends ({n}) as starts ({m})")
    _require_staircase(p.starts, "starts")
    _require_staircase(p.candidate_ends, "candidate endpoints")
    mat = lindstrom_matrix(p)

    work = mat if m % 2 == 0 else augment_hat(mat)
    k = work.ncols
    upper = upper_ones(k, ZZ)
    okada = pfaffian_bareiss(work @ upper @ work.T - work @ upper.T @ work.T)

    byun_det = det_bareiss(
        mat @ (upper_ones(n, ZZ).scale(2) + identity(n, ZZ)) @ mat.T
    )
    byun: Optional[int] = None
    if byun_det >= 0:
        root = math.isqrt(byun_det)
        if root * root == byun_det:
            byun = root

    routes = {"okada": okada, "byun": byun}
    if _most_tuples(mat) <= ENUMERATION_GUARD:
        routes["brute"] = sum(
            brute_force_nonintersecting(p, IndexSet(n, combo))
            for combo in combinations(range(1, n + 1), m)
        )
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
