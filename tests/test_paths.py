import math
import random
from itertools import combinations

import pytest

from oracles import count_disjoint_families, count_free_families, lattice_paths
from minorsum import (
    EnumerationGuardError,
    IndexSet,
    PathProblem,
    RouteMismatchError,
    ShapeError,
    StaircaseError,
    brute_force_nonintersecting,
    count_fixed,
    count_free,
    count_paths,
    lindstrom_matrix,
)
from minorsum.paths import NE_STEPS, count_free_routes

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


# -- the path-count matrix ------------------------------------------------------


def test_lindstrom_matrix_frozen_example():
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES)
    M = lindstrom_matrix(p)
    assert [list(r) for r in M._rows] == [[2, 1, 6], [1, 2, 4]]


def test_lindstrom_matrix_against_enumeration():
    p = PathProblem(starts=STARTS, candidate_ends=CANDIDATES)
    M = lindstrom_matrix(p)
    for i, s in enumerate(p.starts, start=1):
        for j, e in enumerate(p.candidate_ends, start=1):
            assert M.entry(i, j) == len(lattice_paths(s, e))


# -- fixed endpoints -------------------------------------------------------------


def test_count_fixed_matches_brute_force():
    p = PathProblem(starts=STARTS, candidate_ends=((1, 2), (2, 1), (3, 0)))
    for sel in ((1, 2), (1, 3), (2, 3)):
        det = count_fixed(p, sel)
        brute = brute_force_nonintersecting(p, sel)
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
    p = PathProblem(starts=((0, 0),), candidate_ends=((12, 12),))
    with pytest.raises(EnumerationGuardError):
        brute_force_nonintersecting(p, (1,))


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

    monkeypatch.setattr(minorsum.paths, "pfaffian_bareiss", lambda Y: 1)
    with pytest.raises(RouteMismatchError) as info:
        count_free(BEYOND_GUARD)
    assert info.value.routes == {"okada": 1, "byun": 546514904}


@pytest.mark.parametrize(
    "steps,highest_end", [(NE_STEPS, 5), (DELANNOY, 4)], ids=["ne", "delannoy"]
)
def test_brute_route_is_the_sum_over_selections(steps, highest_end):
    # ends may lie below or left of starts, so some pairs have no path
    rng = random.Random(7)
    for _ in range(20):
        m = rng.randint(1, 4)
        n = rng.randint(m, 7)
        p = staircase_instance(
            rng, m, n, lowest_end=0, highest_end=highest_end, steps=steps
        )
        routes = count_free_routes(p)
        per_selection = sum(
            brute_force_nonintersecting(p, c) for c in combinations(range(1, n + 1), m)
        )
        assert routes["brute"] == per_selection
        assert per_selection == count_free_families(p.starts, p.candidate_ends, steps)


def test_brute_route_lists_no_path_that_no_selection_uses():
    # the first start reaches no end, so every selection has no family; the
    # second start has C(58, 19) paths to the second end, which neither route
    # may list
    p = PathProblem(starts=((0, 30), (1, 0)), candidate_ends=((0, 20), (40, 19)))
    assert count_paths(p.starts[1], p.candidate_ends[1]) > 10**14
    assert count_free_routes(p) == {"okada": 0, "byun": 0, "brute": 0}
    assert brute_force_nonintersecting(p, (1, 2)) == 0


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
