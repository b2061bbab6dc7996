import gc
import math
import random
import time
from itertools import combinations, product

import pytest

from oracles import (
    ListedPathIndex,
    count_disjoint_families,
    count_free_families,
    lattice_paths,
    steps_can_cross,
    walk_region,
)
from minorsum import (
    CrossingStepsError,
    IndexSet,
    PathProblem,
    RouteMismatchError,
    ShapeError,
    StaircaseError,
    count_fixed,
    count_free,
    count_paths,
    lindstrom_matrix,
)
from minorsum.paths import (
    NE_STEPS,
    _PathIndex,
    _disjoint_families,
    _live_columns,
    _start_masks,
    _step_bounds,
    _walk_region,
    count_free_routes,
)

STARTS = ((0, 0), (1, -1))
CANDIDATES = ((1, 1), (2, 0), (2, 2))
DELANNOY = ((1, 0), (0, 1), (1, 1))


def staircase_instance(rng, m, n, lowest_end=2, highest_end=5, steps=NE_STEPS):
    """Random staircase starts/ends; with lowest_end >= 2 every end is
    reachable from every start."""
    while True:
        xs = sorted(rng.randint(0, 2) for _ in range(m))
        ys = sorted((rng.randint(0, 2) for _ in range(m)), reverse=True)
        starts = tuple(zip(xs, ys))
        ex = sorted(rng.randint(lowest_end, highest_end) for _ in range(n))
        ey = sorted((rng.randint(lowest_end, highest_end) for _ in range(n)), reverse=True)
        ends = tuple(zip(ex, ey))
        if len(set(starts)) == m and len(set(ends)) == n:
            return PathProblem(starts=starts, candidate_ends=ends, steps=steps)


# -- single-path counting -----------------------------------------------------


def test_count_paths_binomials():
    assert count_paths((0, 0), (3, 2)) == math.comb(5, 2)
    assert count_paths((2, 2), (2, 2)) == 1
    assert count_paths((1, 1), (0, 1)) == 0
    assert count_paths((0, 0), (0, 5)) == 1


def test_count_paths_custom_steps():
    # two (2,0) steps and one (0,1) step interleave three ways
    assert count_paths((0, 0), (4, 1), steps=((2, 0), (0, 1))) == 3
    # Delannoy number D(2,2)
    assert count_paths((0, 0), (2, 2), steps=((1, 0), (0, 1), (1, 1))) == 13
    assert count_paths((0, 0), (3, 1), steps=((2, 0), (0, 1))) == 0


def test_count_paths_matches_enumeration():
    rng = random.Random(41)
    for _ in range(20):
        end = (rng.randint(0, 3), rng.randint(0, 3))
        assert count_paths((0, 0), end) == len(lattice_paths((0, 0), end))


def test_count_paths_steps_with_no_monotone_coordinate():
    # (1,3) . step = 1 for both steps: three (1,0) and one (-2,1) in any order
    assert count_paths((0, 0), (1, 1), steps=((1, 0), (-2, 1))) == 4
    assert count_paths((0, 0), (0, 1), steps=((1, 0), (-2, 1))) == 3
    assert count_paths((0, 0), (-3, 1), steps=((1, 0), (-2, 1))) == 0
    # y goes both ways: (1,0) alone, or (0,1) and (1,-1) in either order
    assert count_paths((0, 0), (1, 0), ((1, 0), (0, 1), (1, -1))) == 3


def test_count_paths_long_walks_do_not_recurse():
    # walks of up to 1,101 and of 1,500 steps, beyond Python's default
    # recursion limit; the Delannoy number D(1, k) is 2k + 1
    assert count_paths((0, 0), (1, 1100), DELANNOY) == 2201
    p = PathProblem(starts=((0, 0),), candidate_ends=((0, 1500),))
    assert count_free_routes(p) == {"okada": 1, "byun": 1, "brute": 1}


def random_half_plane_steps(rng):
    """Two to five distinct steps with components in -2..2, all on the
    positive side of a random direction."""
    while True:
        d = (rng.randint(-3, 3), rng.randint(-3, 3))
        pool = [(x, y) for x in range(-2, 3) for y in range(-2, 3)
                if d[0] * x + d[1] * y > 0]
        if len(pool) >= 2:
            return tuple(rng.sample(pool, rng.randint(2, min(5, len(pool)))))


def test_walk_region_matches_the_reference_walk():
    # same points in the same order as the set-based walk it replaced, on
    # step sets with negative components and with three or more steps
    rng = random.Random(14)
    shapes = set()
    for _ in range(300):
        steps = random_half_plane_steps(rng)
        bounds = _step_bounds(steps)
        start = (rng.randint(-3, 3), rng.randint(-3, 3))
        if rng.random() < 0.8:
            end = start
            for _ in range(rng.randint(0, 6)):
                s = rng.choice(steps)
                end = (end[0] + s[0], end[1] + s[1])
        else:
            end = (rng.randint(-6, 6), rng.randint(-6, 6))
        got = _walk_region(start, (end,), steps, bounds)
        assert got == walk_region(start, end, steps, bounds)
        shapes.add((len(steps) >= 3, any(min(s) < 0 for s in steps), len(got) > 1))
    assert shapes >= {(True, True, True), (False, True, True), (True, False, True)}


# -- problem validation ---------------------------------------------------------


def test_path_problem_validation():
    with pytest.raises(ShapeError):
        PathProblem(starts=(), candidate_ends=CANDIDATES)
    with pytest.raises(ShapeError):
        PathProblem(starts=STARTS, candidate_ends=((1, 1), (1, 1)))
    with pytest.raises(ShapeError):
        PathProblem(starts=STARTS, candidate_ends=CANDIDATES, choose=3)
    with pytest.raises(ShapeError):
        PathProblem(starts=STARTS, candidate_ends=CANDIDATES, steps=((0, 0),))
    with pytest.raises(ShapeError):
        PathProblem(starts=((0, 0.5),), candidate_ends=CANDIDATES)
    p = PathProblem(starts=[[0, 0], [1, -1]], candidate_ends=[[1, 1], [2, 0], [2, 2]])
    assert p.starts == STARTS
    assert p.choose is None or p.choose == 2


@pytest.mark.parametrize(
    "steps",
    [((1, 0), (-1, 0)), ((1, 0), (0, 1), (-1, -1)), ((1, 0), (0, 1), (-1, 0))],
)
def test_step_sets_whose_walks_need_not_end(steps):
    # no vector has a positive dot product with every step, so a walk can
    # return to a point it left
    with pytest.raises(ShapeError, match="open half-plane"):
        PathProblem(starts=STARTS, candidate_ends=CANDIDATES, steps=steps)
    with pytest.raises(ShapeError, match="open half-plane"):
        count_paths((0, 0), (1, 1), steps)


TWO_ONE = ((1, 0), (0, 1), (2, 1))


def test_steps_that_cross_between_lattice_points_need_one_start():
    # a (2, 1) edge passes over the midpoint of a (0, 1) edge one column
    # to its right: two vertex-disjoint paths can cross there, and the
    # determinant routes would count the crossing pair with a sign
    # (okada 40, byun 40, brute 42 on this instance)
    with pytest.raises(CrossingStepsError, match=r"\[0, 1\] and \[2, 1\]"):
        PathProblem(starts=((0, 0), (1, -1)), candidate_ends=((2, 2), (3, 1)),
                    steps=TWO_ONE)
    # a step over a lattice point lets a path pass another's vertex
    with pytest.raises(CrossingStepsError, match=r"\[2, 0\]"):
        PathProblem(starts=STARTS, candidate_ends=CANDIDATES, steps=((2, 0), (0, 1)))
    one = PathProblem(starts=((0, 0),), candidate_ends=((2, 2), (3, 1)), steps=TWO_ONE)
    assert count_free_routes(one) == {"okada": 14, "byun": 14, "brute": 14}


@pytest.mark.parametrize("steps", [NE_STEPS, DELANNOY, ((1, 0), (-2, 1)),
                                   ((1, 2), (0, 1), (1, 1))],
                         ids=["ne", "delannoy", "negative", "steep"])
def test_planar_step_sets_take_many_starts(steps):
    # NE is the step set of criterion 8; every pair of these steps spans
    # a parallelogram of area 1
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES, steps=steps)
    assert p.steps == steps


def test_crossing_check_matches_an_edge_search():
    # the check decides by step pairs; the oracle tries every lattice
    # offset at which two edges could meet
    rng = random.Random(23)
    seen = set()
    for _ in range(300):
        steps = random_half_plane_steps(rng)
        if rng.random() < 0.3:
            steps = steps + ((rng.choice((-3, 3)), rng.choice((1, 2))),)
            try:
                _step_bounds(steps)
            except ShapeError:
                continue
        crosses = steps_can_cross(steps)
        try:
            PathProblem(starts=STARTS, candidate_ends=CANDIDATES, steps=steps)
            rejected = False
        except CrossingStepsError:
            rejected = True
        assert rejected == crosses, steps
        PathProblem(starts=STARTS[:1], candidate_ends=CANDIDATES, steps=steps)
        seen.add(crosses)
    assert seen == {True, False}


# -- the path-count matrix ------------------------------------------------------


def test_lindstrom_matrix_frozen_example():
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES)
    M = lindstrom_matrix(p)
    assert [list(r) for r in M._rows] == [[2, 1, 6], [1, 2, 4]]


def test_lindstrom_matrix_takes_the_step_bounds_once(monkeypatch):
    import minorsum.paths

    rng = random.Random(5)
    for steps, bound_calls in ((DELANNOY, 1), (NE_STEPS, 0)):
        p = staircase_instance(rng, 4, 7, lowest_end=0, highest_end=4, steps=steps)
        expect = [[count_paths(s, e, steps) for e in p.candidate_ends] for s in p.starts]
        calls, step_bounds = [], minorsum.paths._step_bounds

        def counted(steps):
            calls.append(steps)
            return step_bounds(steps)

        with monkeypatch.context() as patch:
            patch.setattr(minorsum.paths, "_step_bounds", counted)
            M = lindstrom_matrix(p)
        assert [list(r) for r in M._rows] == expect
        assert len(calls) == bound_calls


@pytest.mark.parametrize("steps", [DELANNOY, TWO_ONE], ids=["delannoy", "two-one"])
def test_lindstrom_matrix_counts_each_start_in_one_pass(monkeypatch, steps):
    # one forward count per start over all its ends, not one region per
    # (start, end) entry; the (2, 1) step crosses, so it takes one start
    import minorsum.paths

    rng = random.Random(24)
    m = 4 if steps == DELANNOY else 1
    for _ in range(5):
        p = staircase_instance(rng, m, 7, lowest_end=0, highest_end=4, steps=steps)
        expect = [[count_paths(s, e, steps) for e in p.candidate_ends] for s in p.starts]
        regions, walk_region = [], minorsum.paths._walk_region

        def counted(start, ends, steps, bounds):
            regions.append((start, tuple(ends)))
            return walk_region(start, ends, steps, bounds)

        with monkeypatch.context() as patch:
            patch.setattr(minorsum.paths, "_walk_region", counted)
            M = lindstrom_matrix(p)
        assert [list(r) for r in M._rows] == expect
        assert regions == [(s, p.candidate_ends) for s in p.starts]
        assert any(0 < x for row in expect for x in row)


def test_lindstrom_matrix_against_enumeration():
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES)
    M = lindstrom_matrix(p)
    for i, s in enumerate(p.starts, start=1):
        for j, e in enumerate(p.candidate_ends, start=1):
            assert M._rows[i - 1][j - 1] == len(lattice_paths(s, e))


# -- fixed endpoints -------------------------------------------------------------


def brute_on_selection(p, sel):
    """The exhaustive route on the problem with only the selected ends, so
    with sel as its one selection; None beyond the enumeration guard."""
    ends = [p.candidate_ends[i - 1] for i in sel]
    routes = count_free_routes(PathProblem(p.starts, ends, steps=p.steps))
    return routes.get("brute")


def test_count_fixed_matches_brute_force():
    p = PathProblem(starts=STARTS, candidate_ends=((1, 2), (2, 1), (3, 0)))
    for sel in ((1, 2), (1, 3), (2, 3)):
        det = count_fixed(p, sel)
        brute = brute_on_selection(p, sel)
        oracle = count_disjoint_families(
            p.starts, [p.candidate_ends[i - 1] for i in sel]
        )
        assert det == brute == oracle


def test_count_fixed_staircase_enforced():
    # (2,2) then (1,1) endpoints break the weakly-decreasing-y order
    p = PathProblem(starts=STARTS, candidate_ends=((1, 1), (2, 2)))
    with pytest.raises(StaircaseError):
        count_fixed(p, (1, 2))
    bad_starts = PathProblem(starts=((0, 0), (1, 1)), candidate_ends=((2, 2), (3, 1)))
    with pytest.raises(StaircaseError):
        count_fixed(bad_starts, (1, 2))


def test_count_fixed_selection_validation():
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES)
    with pytest.raises(ShapeError):
        count_fixed(p, (1,))
    with pytest.raises(ShapeError):
        count_fixed(p, IndexSet(5, (1, 2)))


def test_brute_force_guard():
    # C(24, 12) = 2704156 paths exceed the guard, C(18, 9) = 48620 do not
    p = PathProblem(starts=((0, 0),), candidate_ends=((12, 12),))
    assert brute_on_selection(p, (1,)) is None
    assert count_free_routes(p) == {"okada": 2704156, "byun": 2704156}
    p = PathProblem(starts=((0, 0),), candidate_ends=((9, 9),))
    assert brute_on_selection(p, (1,)) == 48620


# -- free endpoints ---------------------------------------------------------------


def test_count_free_agrees_with_oracle():
    p = PathProblem(starts=STARTS, candidate_ends=((1, 2), (2, 1), (3, 0), (3, -1)))
    got = count_free(p)
    assert got == count_free_families(p.starts, p.candidate_ends)


def test_count_free_single_start():
    p = PathProblem(starts=((0, 0),), candidate_ends=((1, 1), (2, 0)))
    assert count_free(p) == count_paths((0, 0), (1, 1)) + count_paths((0, 0), (2, 0))


def test_count_free_unreachable_is_zero():
    p = PathProblem(starts=((5, 5),), candidate_ends=((0, 0),))
    assert count_free(p) == 0


def test_count_free_shape_and_staircase_errors():
    with pytest.raises(ShapeError):
        count_free(PathProblem(starts=STARTS, candidate_ends=((1, 1),)))
    with pytest.raises(StaircaseError):
        count_free(
            PathProblem(starts=((0, 0), (1, 1)), candidate_ends=((2, 2), (3, 1)))
        )


# three starts on a diagonal, eight ends on the next: the largest endpoint
# selection has 788889024 path tuples, far beyond the enumeration guard
BEYOND_GUARD = PathProblem(
    starts=((0, 0), (1, -1), (2, -2)),
    candidate_ends=tuple((6 + k, 6 - k) for k in range(8)),
)


def test_count_free_beyond_the_enumeration_guard():
    expect = sum(count_fixed(BEYOND_GUARD, c) for c in combinations(range(1, 9), 3))
    assert expect == 546514904
    assert count_free(BEYOND_GUARD) == expect
    assert count_free_routes(BEYOND_GUARD) == {"okada": expect, "byun": expect}
    # within the guard the brute-force route still runs
    small = PathProblem(starts=STARTS, candidate_ends=((1, 2), (2, 1), (3, 0), (3, -1)))
    assert set(count_free_routes(small)) == {"brute", "okada", "byun"}


def test_count_free_routes_at_scale():
    # ten starts, sixty candidate ends: Okada's Pfaffian is only 10 x 10
    p = PathProblem(
        starts=tuple((i, -i) for i in range(10)),
        candidate_ends=tuple((30 + k, 30 - k) for k in range(60)),
    )
    routes = count_free_routes(p)
    assert set(routes) == {"okada", "byun"}
    assert routes["okada"] == routes["byun"] > 0


def test_count_free_routes_disagreeing_without_brute(monkeypatch):
    import minorsum.paths

    monkeypatch.setattr(minorsum.paths, "okada_pfaffian", lambda A: 1)
    with pytest.raises(RouteMismatchError) as info:
        count_free(BEYOND_GUARD)
    assert info.value.routes == {"okada": 1, "byun": 546514904}


@pytest.mark.parametrize(
    "steps,highest_end,most_starts",
    [(NE_STEPS, 5, 4), (DELANNOY, 4, 4), (((1, 0), (0, 1), (2, 1)), 4, 1)],
    ids=["ne", "delannoy", "two-one"],
)
def test_brute_route_is_the_sum_over_selections(steps, highest_end, most_starts):
    # ends may lie below or left of starts, so some pairs have no path;
    # m = 1 makes the last start the only one, with no column before it.
    # A (2, 1) step can jump over a (0, 1) step of another path, so two
    # such paths may cross without sharing a vertex: that step set is
    # outside the Gessel-Viennot setting for m > 1 and runs with m = 1 only
    rng = random.Random(7)
    ms = set()
    for _ in range(20):
        m = rng.randint(1, most_starts)
        ms.add(m)
        n = rng.randint(m, 7)
        p = staircase_instance(
            rng, m, n, lowest_end=0, highest_end=highest_end, steps=steps
        )
        routes = count_free_routes(p)
        per_selection = sum(
            brute_on_selection(p, c) for c in combinations(range(1, n + 1), m)
        )
        assert routes["brute"] == per_selection
        assert per_selection == count_free_families(p.starts, p.candidate_ends, steps)
    assert ms == set(range(1, most_starts + 1))


def test_brute_route_lists_no_path_that_no_selection_uses():
    # the first start reaches no end, so every selection has no family; the
    # second start has C(58, 19) paths to the second end, which neither route
    # may list
    p = PathProblem(starts=((0, 30), (1, 0)), candidate_ends=((0, 20), (40, 19)))
    assert count_paths(p.starts[1], p.candidate_ends[1]) > 10**14
    assert count_free_routes(p) == {"okada": 0, "byun": 0, "brute": 0}
    assert brute_on_selection(p, (1, 2)) == 0


def test_count_free_random_staircases_three_routes():
    # count_free raises RouteMismatchError unless all three routes agree,
    # so each passing call certifies the agreement; spot-check the value
    # against the independent oracle as well
    rng = random.Random(42)
    for k in range(12):
        m = rng.randint(1, 3)
        n = rng.randint(m, 4)
        p = staircase_instance(rng, m, n)
        got = count_free(p)
        if k % 3 == 0:
            assert got == count_free_families(p.starts, p.candidate_ends)


# a step that lowers y: every pair of these steps spans a parallelogram of
# area 1, so the step set takes many starts
DOWN_STEP = ((1, 0), (0, 1), (1, -1))


def test_oracle_follows_a_walk_above_its_end():
    # (3, 3) lies above the row of (6, 1), which only the (1, -1) step comes
    # down to; an oracle that cut every walk above its end's row counted 0
    p = PathProblem(starts=((3, 3),), candidate_ends=((1, 4), (4, 1), (6, 1)),
                    steps=DOWN_STEP)
    assert count_free_families(p.starts, p.candidate_ends, p.steps) == 7
    assert count_free_routes(p) == {"okada": 7, "byun": 7, "brute": 7}


def test_two_start_staircases_with_a_down_step_against_the_oracle():
    # every path count is the oracle's.  The oracle counts the disjoint
    # families of every assignment of starts to ends, the exhaustive route
    # those in staircase order: where the routes agree they give the
    # oracle's count, and where they disagree a down step has let two
    # disjoint paths reach their ends out of order, so the oracle counts more
    rng = random.Random(32)
    agreed = 0
    for _ in range(12):
        p = staircase_instance(rng, 2, rng.randint(2, 5), lowest_end=0, highest_end=4,
                               steps=DOWN_STEP)
        assert lindstrom_matrix(p)._rows == tuple(
            tuple(len(lattice_paths(s, e, DOWN_STEP)) for e in p.candidate_ends)
            for s in p.starts
        )
        oracle = count_free_families(p.starts, p.candidate_ends, DOWN_STEP)
        try:
            routes = count_free_routes(p)
        except RouteMismatchError as exc:
            assert exc.routes["brute"] < oracle
        else:
            assert set(routes.values()) == {oracle}
            agreed += 1
    assert agreed


# -- what the exhaustive route lists, and what it leaves behind -------------------


def seeded_staircases(seed, steps, highest_end):
    """Three seeded staircase problems for each m in 1..4 whose ends may lie
    below or left of the starts, so some (start, end) pairs have no path."""
    rng = random.Random(seed)
    return [
        staircase_instance(rng, m, rng.randint(m, 7), lowest_end=0,
                           highest_end=highest_end, steps=steps)
        for m in (1, 2, 3, 4)
        for _ in range(3)
    ]


def pinned_staircases():
    """The seeded staircases the exhaustive route's pins run on, north-east
    and Delannoy."""
    return [p for steps, seed, highest_end in ((NE_STEPS, 14, 5), (DELANNOY, 15, 4))
            for p in seeded_staircases(seed, steps, highest_end)]


def listing_passes(monkeypatch, p):
    """The (start, ends) of each region pass the exhaustive route makes, in
    order (the last start's for its path index, then each other start's
    listing), and the routes count_free_routes returns."""
    import minorsum.paths

    passes, inside = [], []
    walk_region, families = minorsum.paths._walk_region, minorsum.paths._disjoint_families

    def record(start, ends, *rest):
        if inside:
            passes.append((start, tuple(ends)))
        return walk_region(start, ends, *rest)

    def exhaustive(*args):
        # the Lindstrom matrix walks regions too, outside the route
        inside.append(True)
        try:
            return families(*args)
        finally:
            inside.pop()

    with monkeypatch.context() as patch:
        patch.setattr(minorsum.paths, "_walk_region", record)
        patch.setattr(minorsum.paths, "_disjoint_families", exhaustive)
        routes = count_free_routes(p)
    return passes, routes


def selection_pairs(p):
    """The (start, end) pairs on some endpoint selection whose entries of
    the Lindstrom matrix are all nonzero."""
    rows = lindstrom_matrix(p)._rows
    pairs = set()
    for sel in combinations(range(len(p.candidate_ends)), len(p.starts)):
        if all(rows[k][c] for k, c in enumerate(sel)):
            pairs.update((p.starts[k], p.candidate_ends[c]) for k, c in enumerate(sel))
    return pairs


def test_brute_route_lists_the_pinned_pairs(monkeypatch):
    # the exhaustive route walks the region of each start in at most one
    # pass (the last start's to build its index, each other's to list its
    # paths), over exactly the ends it meets on a selection whose path
    # counts are all nonzero; a start the walk never reaches is not walked,
    # and when some family exists the walk reaches every start
    trimmed = unreached = 0
    for p in pinned_staircases():
        passes, routes = listing_passes(monkeypatch, p)
        starts = [start for start, _ in passes]
        assert len(starts) == len(set(starts))
        pairs = selection_pairs(p)
        for start, ends in passes:
            assert ends == tuple(e for e in p.candidate_ends if (start, e) in pairs)
        if routes["brute"]:
            assert sorted(starts) == sorted(p.starts)
        elif not pairs:
            assert passes == []
        unreached += len(starts) < len(p.starts)
        nonzero = sum(1 for s in p.starts for e in p.candidate_ends
                      if count_paths(s, e, p.steps))
        trimmed += nonzero > len(pairs)
    # some instances have nonzero pairs on no such selection, and some
    # starts the walk never reaches
    assert trimmed > 0 and unreached > 0
    p = PathProblem(starts=((0, 30), (1, 0)), candidate_ends=((0, 20), (40, 19)))
    assert listing_passes(monkeypatch, p)[0] == []


@pytest.mark.parametrize(
    "starts,ends,big",
    [
        # the middle start reaches no end; the last has C(57, 19) paths to
        # the second end
        (((0, 100), (1, 50), (2, 0)), ((0, 120), (40, 19), (41, 18)), (2, 1)),
        # the last start reaches no end; the first has C(70, 30) paths to
        # the first end
        (((0, 0), (50, -1)), ((30, 40), (40, 19)), (0, 0)),
    ],
    ids=["middle", "last"],
)
def test_brute_route_lists_no_path_when_a_later_start_reaches_no_end(
    monkeypatch, starts, ends, big
):
    p = PathProblem(starts=starts, candidate_ends=ends)
    assert count_paths(starts[big[0]], ends[big[1]]) > 10**14
    assert listing_passes(monkeypatch, p) == ([], {"okada": 0, "byun": 0, "brute": 0})
    assert brute_on_selection(p, range(1, len(starts) + 1)) == 0


def listed_in_start_masks_order(start, end, steps, bit):
    """The vertex bitmasks of the paths start -> end, the paths to end - s
    over the steps s in order, each of those in this order again: by the
    step numbers read from the end back."""
    def key(path):
        return [steps.index((b[0] - a[0], b[1] - a[1])) for a, b in zip(path, path[1:])][::-1]

    return [sum(map(bit, path)) for path in sorted(lattice_paths(start, end, steps), key=key)]


def test_path_index_from_counts_matches_the_listed_index():
    # the index counts the last start's paths; the reference lists them and
    # sets one bit per (path, vertex), and both must number them alike
    problems = pinned_staircases() + collinear_problems(NE_STEPS, (2, 3, 4)) \
        + collinear_problems(DELANNOY, (2, 3, 4))
    compared = set()
    for p in problems:
        live = _live_columns(lindstrom_matrix(p)._rows)
        if len(p.starts) < 2 or live is None:
            continue
        numbering = {}

        def bit(u):
            return 1 << numbering.setdefault(u, len(numbering))

        index = _PathIndex(p, live[-1], _step_bounds(p.steps), bit)
        listed = [listed_in_start_masks_order(p.starts[-1], p.candidate_ends[c], p.steps, bit)
                  for c in live[-1]]
        expect = ListedPathIndex(live[-1], listed)
        assert index.tail == expect.tail
        assert index.through == expect.through
        assert sum(index.through) == expect.touched
        compared.add((p.steps, len(live[-1]) > 1, expect.tail[0] > len(live[-1])))
    # both step sets, with several columns and with more paths than columns
    assert {(NE_STEPS, True, True), (DELANNOY, True, True)} <= compared


def union_through(b, through):
    """The union of through[v] over the vertex bits v of the mask b."""
    union = 0
    while b:
        union |= through.get(b & -b, 0)
        b &= b - 1
    return union


def test_start_masks_lists_the_paths_in_index_order():
    # the index numbers the paths of a column as _start_masks lists them,
    # and each listed path carries the union of through over its vertices
    rng = random.Random(8)
    through = {1 << v: rng.getrandbits(12) for v in range(0, 60, 2)}
    for p in pinned_staircases() + collinear_problems(DELANNOY, (1, 4)):
        numbering = {}

        def bit(u):
            return 1 << numbering.setdefault(u, len(numbering))

        start, ends = p.starts[-1], p.candidate_ends
        walk = _start_masks(start, ends, p.steps, _step_bounds(p.steps), bit, through)
        for end, (masks, bls) in zip(ends, walk):
            assert masks == listed_in_start_masks_order(start, end, p.steps, bit)
            assert bls == [union_through(b, through) for b in masks]


def test_exhaustive_route_counts_its_own_paths(monkeypatch):
    # the last start's path counts come from the index's own pass, not from
    # the Lindstrom matrix that the okada and byun routes read
    import minorsum.paths

    problems = pinned_staircases() + collinear_problems(DELANNOY, (1, 2, 3, 4))
    rows = [lindstrom_matrix(p)._rows for p in problems]
    expect = [count_free_families(p.starts, p.candidate_ends, p.steps) for p in problems]

    def refuse(*args):
        raise AssertionError("the exhaustive route read a path count")

    with monkeypatch.context() as patch:
        for name in ("_count_paths", "count_paths", "lindstrom_matrix"):
            patch.setattr(minorsum.paths, name, refuse)
        got = [_disjoint_families(p, r) for p, r in zip(problems, rows)]
    assert got == expect
    assert sum(1 for p, n in zip(problems, got) if n and len(p.starts) > 1) > 10


def test_brute_route_is_prompt_when_the_last_start_has_many_paths():
    # C(21, 8) = 203,490 paths of the last start, each on a family with each
    # of the first start's two paths; indexing them one bit per (path,
    # vertex) takes over a second
    p = PathProblem(starts=((0, 10), (1, 0)), candidate_ends=((1, 11), (14, 8)))
    assert count_paths(p.starts[1], p.candidate_ends[1]) == 203490
    t0 = time.process_time()
    routes = count_free_routes(p)
    elapsed = time.process_time() - t0
    assert routes == {"okada": 406980, "byun": 406980, "brute": 406980}
    assert elapsed < 0.25


def test_live_columns_are_the_columns_of_nonzero_selections():
    rng = random.Random(23)
    for _ in range(400):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        counts = [[rng.choice((0, 0, 1, 2)) for _ in range(n)] for _ in range(m)]
        live = [set() for _ in range(m)]
        for sel in combinations(range(n), m):
            if all(counts[k][c] for k, c in enumerate(sel)):
                for k, c in enumerate(sel):
                    live[k].add(c)
        got = _live_columns(counts)
        if live[0]:
            assert got == [sorted(cols) for cols in live]
        else:
            assert got is None


# -- edge cases of the exhaustive route --------------------------------------------


@pytest.mark.parametrize(
    "starts,ends",
    [
        # the first and last paths can meet while the middle one avoids both
        (((0, 0), (10, 10), (0, 1)), ((2, 2), (12, 12), (2, 3))),
        # the first and third paths can meet, the second and fourth cannot
        (((0, 0), (10, 10), (0, 1), (20, 20)), ((2, 2), (12, 12), (2, 3), (22, 22))),
    ],
    ids=["first-last", "first-third"],
)
def test_exhaustive_walk_tests_every_pair_of_paths(starts, ends):
    # on a staircase, paths that avoid their neighbours avoid each other;
    # off it they need not, and the exhaustive walk, the reference for the
    # staircase routes, must not rely on that
    p = PathProblem(starts=starts, candidate_ends=ends)
    options = [[frozenset(q) for q in lattice_paths(s, e)] for s, e in zip(starts, ends)]
    expect = sum(
        1 for family in product(*options)
        if all(not a & b for a, b in combinations(family, 2))
    )
    assert 0 < expect < math.prod(map(len, options))
    assert _disjoint_families(p, lindstrom_matrix(p)._rows) == expect



TWO_ONE = ((1, 0), (0, 1), (2, 1))
ONE_TWO = ((1, 0), (0, 1), (1, 2))
# ends in a row and then a column, so that paths to one end pass through
# others, and ends some of which are starts too
COLLINEAR_STARTS = ((0, 3), (1, 2), (2, 1), (3, 0))
COLLINEAR_ENDS = ((2, 4), (3, 4), (4, 4), (4, 3), (4, 2))
ON_ENDS = ((1, 4), (1, 2), (2, 1), (3, 1), (4, 1), (4, 0))


def collinear_problems(steps, ms):
    return [
        PathProblem(starts=COLLINEAR_STARTS[:m], candidate_ends=ends, steps=steps)
        for m in ms
        for ends in (COLLINEAR_ENDS, COLLINEAR_ENDS[:m + 1], ON_ENDS)
    ]


@pytest.mark.parametrize("steps", [NE_STEPS, DELANNOY, TWO_ONE, ONE_TWO],
                         ids=["ne", "delannoy", "two-one", "one-two"])
def test_brute_route_on_collinear_ends_and_a_start_on_an_end(steps):
    # the (2, 1) and (1, 2) steps let paths cross between lattice points,
    # so they run with one start only
    ms = (1, 2, 3, 4) if steps in (NE_STEPS, DELANNOY) else (1,)
    counted = set()
    for p in collinear_problems(steps, ms):
        brute = count_free_routes(p)["brute"]
        assert brute == count_free_families(p.starts, p.candidate_ends, steps)
        if brute:
            counted.add(len(p.starts))
    assert counted == set(ms)


def test_brute_route_with_columns_dead_on_one_side_only():
    # a column of a middle start can have a nonzero count and still lie on
    # no nonzero selection because no earlier start ends left of it, or
    # because no later start ends right of it; both kinds are left out of
    # the walk, which must still count every family
    rng = random.Random(31)
    kinds = set()
    for _ in range(60):
        m = rng.randint(3, 4)
        p = staircase_instance(rng, m, rng.randint(m + 1, 7), lowest_end=0,
                               highest_end=4, steps=rng.choice((NE_STEPS, DELANNOY)))
        rows = lindstrom_matrix(p)._rows
        n = len(p.candidate_ends)
        for k in range(1, m - 1):
            for c in range(n):
                if not rows[k][c]:
                    continue
                left = any(all(rows[i][s[i]] for i in range(k))
                           for s in combinations(range(c), k))
                right = any(all(rows[k + 1 + i][s[i]] for i in range(m - k - 1))
                            for s in combinations(range(c + 1, n), m - k - 1))
                if left != right:
                    kinds.add("right" if left else "left")
        routes = count_free_routes(p)
        assert routes["brute"] == count_free_families(p.starts, p.candidate_ends, p.steps)
    assert kinds == {"left", "right"}


def test_count_free_routes_leaves_no_cyclic_garbage():
    # reference cycles would keep every listed path alive after the call
    # until the collector next runs; none may be made
    p = staircase_instance(random.Random(3), 3, 6, lowest_end=0, highest_end=4,
                           steps=DELANNOY)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert "brute" in count_free_routes(p)
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
