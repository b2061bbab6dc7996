"""Acceptance gate: one test per release criterion.

Each test appends a PASS/FAIL line to RESULTS (echoed in the terminal
summary by conftest) and then asserts, so a red criterion is visible both
as a failed test and as a FAIL line.
"""

import random
import time
from itertools import combinations

from oracles import count_free_families, expansion_pfaffian
from test_paths import brute_on_selection
from test_symfun import box_partitions, sub_partitions
from oracles import tableau_schur

from minorsum import (
    ZZ,
    IDENTITY_IDS,
    Matrix,
    PathProblem,
    PolynomialRing,
    VerifyConfig,
    check_ab,
    check_ab2,
    check_byun,
    check_cauchy,
    check_closed_forms,
    check_det_pf_square,
    check_lemma_aux,
    check_lemma_iswa,
    check_main1,
    check_main2,
    check_okada,
    check_rank1,
    count_fixed,
    count_free,
    count_paths,
    det_bareiss,
    pfaffian_bareiss,
    run_verify,
    skew_schur,
    xy_ring,
)

RESULTS = []


def record(ok, label):
    RESULTS.append((bool(ok), label))
    print(("PASS" if ok else "FAIL"), label)
    assert ok, label


def generic_matrices(shapes):
    names = []
    for label, (m, n) in shapes.items():
        names.extend(f"{label}{i}_{j}" for i in range(1, m + 1) for j in range(1, n + 1))
    ring = PolynomialRing(names)
    return ring, {
        label: Matrix(
            ring,
            [[ring.gen(f"{label}{i}_{j}") for j in range(1, n + 1)] for i in range(1, m + 1)],
        )
        for label, (m, n) in shapes.items()
    }


def generic_skew(n, extra=()):
    names = [f"y{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names += [f"{p}{i}" for p in extra for i in range(1, n + 1)]
    ring = PolynomialRing(names)
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = ring.gen(f"y{i}_{j}")
            rows[i - 1][j - 1] = g
            rows[j - 1][i - 1] = -g
    vectors = {p: [ring.gen(f"{p}{i}") for i in range(1, n + 1)] for p in extra}
    return ring, Matrix(ring, rows), vectors


def rand_skew(rng, n, bound=5):
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = rng.randint(-bound, bound)
            rows[i][j] = v
            rows[j][i] = -v
    return Matrix(ZZ, rows)


def test_criterion_1_golden_numeric_case():
    t0 = time.perf_counter()
    A = Matrix(ZZ, [[1, 1, 1], [1, 2, 3]])
    okada = check_okada(A)
    byun = check_byun(A)
    elapsed = time.perf_counter() - t0
    ok = (
        okada.passed
        and okada.lhs == "4"
        and okada.rhs == "4"
        and byun.passed
        and byun.lhs == "16"
        and byun.rhs == "16"
        and byun.details["minor_sum"] == "4"
        and elapsed < 1.0
    )
    record(ok, f"1. golden 2x3 case: minor sum 4, pfaffian 4, square 16 ({elapsed:.2f}s)")


def test_criterion_2_randomized_identity_suite():
    t0 = time.perf_counter()
    cfg = VerifyConfig(
        identities=IDENTITY_IDS,
        ms=tuple(range(1, 7)),
        ns=tuple(range(1, 9)),
        trials=200,
        seed=2026,
        bound=5,
    )
    rep = run_verify(cfg)
    elapsed = time.perf_counter() - t0
    per_id = rep.summary["per_identity"]
    covered = all(per_id.get(i, {}).get("trials", 0) > 0 for i in IDENTITY_IDS)
    ok = rep.summary["failures"] == 0 and covered and elapsed < 300.0
    record(
        ok,
        f"2. randomized suite: {rep.summary['total_trials']} integer trials, "
        f"{rep.summary['failures']} failures, every identity covered ({elapsed:.0f}s)",
    )


def symbolic_suite():
    """Criterion 3's 18 generic-entry reports, in a fixed order."""
    reports = []
    for m, n in ((1, 2), (2, 2), (3, 3)):
        ring, mats = generic_matrices({"a": (m, n), "b": (m, n), "x": (n, n)})
        reports.append(check_main1(mats["a"], mats["b"], mats["x"]))
    ring, mats = generic_matrices({"a": (2, 3), "b": (2, 3), "x": (3, 3)})
    reports.append(check_main2(mats["a"], mats["b"], mats["x"]))
    for m in (2, 3, 4):
        ring, Y, vecs = generic_skew(m, extra=("a", "b"))
        reports.append(check_rank1(Y, vecs["a"], vecs["b"]))
        reports.append(check_rank1(Y, vecs["a"], vecs["a"]))
    for m, n in ((1, 2), (3, 3)):
        ring, mats = generic_matrices({"a": (m, n), "b": (m, n), "x": (n, n)})
        reports.append(check_lemma_aux(mats["a"], mats["b"], mats["x"]))
    ring, Y6, _ = generic_skew(6)
    for window in ((2, 5), (1, 3, 4, 6), (3, 4, 5, 6)):
        reports.append(check_lemma_iswa(Y6, window))
    for m, n in ((1, 2), (2, 2)):
        ring, mats = generic_matrices({"a": (m, n), "b": (m, n)})
        reports.append(check_ab(mats["a"], mats["b"]))
    ring, mats = generic_matrices({"a": (2, 2), "b": (2, 2)})
    reports.append(check_ab2(mats["a"], mats["b"]))
    return reports


CAUCHY_SHAPES = ((2, 2, 1, 1), (2, 4, 3, 3), (4, 4, 2, 2))


def test_criterion_3_fully_symbolic_suite():
    t0 = time.perf_counter()
    reports = symbolic_suite()
    elapsed = time.perf_counter() - t0
    failed = [r.identity_id for r in reports if not r.passed]
    record(
        not failed,
        f"3. symbolic suite: {len(reports)} generic-entry checks, "
        f"failures {failed or 'none'} ({elapsed:.1f}s)",
    )


def test_criterion_4_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for n in range(1, 5):
        ring = PolynomialRing(tuple(f"d{i}" for i in range(1, n + 1)))
        ok = ok and check_closed_forms(ring, ring.gens()).passed
    rng = random.Random(77)
    for trial in range(100):
        n = trial % 6 + 1
        diag = [rng.randint(-5, 5) for _ in range(n)]
        ok = ok and check_closed_forms(ZZ, diag).passed
    elapsed = time.perf_counter() - t0
    record(
        ok,
        f"4. closed forms match cofactor determinants, symbolic n<=4 and "
        f"100 integer trials n<=6 ({elapsed:.1f}s)",
    )


def test_criterion_5_pfaffian_kernel():
    t0 = time.perf_counter()
    rng = random.Random(55)
    ok = True
    for n, trials in ((2, 40), (4, 25), (6, 12), (8, 6)):
        for _ in range(trials):
            Y = rand_skew(rng, n, bound=9)
            pf = pfaffian_bareiss(Y)
            ok = ok and pf * pf == det_bareiss(Y)
    ring, Y4, _ = generic_skew(4)
    ok = ok and check_det_pf_square(Y4).passed
    for n, trials in ((0, 1), (2, 40), (4, 25), (6, 12), (8, 8), (10, 4)):
        for _ in range(trials):
            Y = rand_skew(rng, n, bound=9)
            ok = ok and expansion_pfaffian(Y._rows) == pfaffian_bareiss(Y)
    elapsed = time.perf_counter() - t0
    record(
        ok,
        f"5. pfaffian kernel: Pf^2 = det up to 8x8 (plus symbolic 4x4), "
        f"both algorithms agree up to 10x10 ({elapsed:.1f}s)",
    )


def test_criterion_6_coupled_cauchy_identity():
    t0 = time.perf_counter()
    shapes = CAUCHY_SHAPES
    reports = [check_cauchy(*s) for s in shapes]
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports) and elapsed < 120.0
    record(
        ok,
        f"6. coupled Cauchy check passes at {shapes} ({elapsed:.1f}s)",
    )


def test_criterion_7_skew_schur_vs_tableaux():
    t0 = time.perf_counter()
    ring, xs, _ = xy_ring(3, 0)
    pairs = 0
    ok = True
    for lam in box_partitions(3, 3):
        for mu in sub_partitions(lam):
            ok = ok and skew_schur(ring, lam, mu, xs) == tableau_schur(ring, lam, mu, xs)
            pairs += 1
    elapsed = time.perf_counter() - t0
    record(
        ok and pairs >= 100,
        f"7. Jacobi-Trudi matches tableau enumeration on {pairs} shapes in "
        f"the 3x3 box ({elapsed:.1f}s)",
    )


def _staircase_instance(rng, m, n):
    while True:
        sx = sorted(rng.randint(0, 2) for _ in range(m))
        sy = sorted((rng.randint(0, 2) for _ in range(m)), reverse=True)
        starts = tuple(zip(sx, sy))
        if len(set(starts)) != m:
            continue
        x, y = rng.randint(2, 3), rng.randint(2, 3)
        ends = [(x, y)]
        for _ in range(n - 1):
            dx = rng.randint(0, 1)
            dy = 1 if dx == 0 else rng.randint(0, 1)
            x, y = x + dx, y - dy
            ends.append((x, y))
        bound = 1
        for s in starts:
            bound *= max(count_paths(s, e) for e in ends)
        if bound <= 300_000:
            return PathProblem(starts=starts, candidate_ends=tuple(ends))


def test_criterion_8_path_routes_agree():
    t0 = time.perf_counter()
    rng = random.Random(88)
    ok = True
    fixed_checks = 0
    for k in range(50):
        m = rng.randint(1, 3)
        n = rng.randint(m, 6)
        p = _staircase_instance(rng, m, n)
        # count_free itself raises unless brute, okada and byun agree
        free = count_free(p)
        if k % 5 == 0:
            ok = ok and free == count_free_families(p.starts, p.candidate_ends)
        if k % 7 == 0:
            for sel in combinations(range(1, n + 1), m):
                brute = brute_on_selection(p, sel)
                if brute is None:
                    continue
                ok = ok and count_fixed(p, sel) == brute
                fixed_checks += 1
    elapsed = time.perf_counter() - t0
    record(
        ok and fixed_checks > 0,
        f"8. free-endpoint counts: three routes agree on 50 staircase "
        f"instances, {fixed_checks} fixed selections re-checked ({elapsed:.1f}s)",
    )


def test_criterion_9_deterministic_reports():
    base = dict(
        identities=IDENTITY_IDS,
        ms=(1, 2, 3),
        ns=(1, 2, 3, 4),
        trials=2,
        seed=7,
    )
    r1 = run_verify(VerifyConfig(**base)).to_json_lines()
    r2 = run_verify(VerifyConfig(**base)).to_json_lines()
    poly = dict(identities=IDENTITY_IDS, ms=(2,), ns=(3,), trials=1, seed=3, ring="poly")
    p1 = run_verify(VerifyConfig(**poly)).to_json_lines()
    p2 = run_verify(VerifyConfig(**poly)).to_json_lines()
    ok = r1 == r2 and p1 == p2
    record(
        ok,
        "9. reports byte-identical across repeat runs "
        "(integer and polynomial modes)",
    )
