"""Pinned bytes of passed reports and of the canonical text of polynomials.

`run_verify` keeps only failed reports, so a change to how values are
formatted, or to the per-route values a passed report carries in its
details, would not show in a passing run.  These tests hash the full
JSON form (`oracles.report_json`) of passed symbolic and integer reports,
the failure lines `verify` writes when every trial is made to fail, the
canonical text of skew Schur polynomials, and the `paths` command's output
with the route values behind it, against digests taken from a known-good
tree.
"""

import hashlib
import json
import random

import pytest
from click.testing import CliRunner
from oracles import report_json
from test_acceptance import CAUCHY_SHAPES, symbolic_suite
from test_paths import DELANNOY, seeded_staircases
from test_symfun import box_partitions, sub_partitions

from minorsum import (
    ZZ,
    Matrix,
    PolynomialRing,
    check_ab,
    check_ab2,
    check_byun,
    check_cauchy,
    check_closed_forms,
    check_cor7,
    check_lemma_aux,
    check_main1,
    check_main2,
    check_okada,
    skew_schur,
    xy_ring,
)
from minorsum.cli import _REGISTRY, _RegistryEntry, VerifyConfig, main, run_verify
from minorsum.identities import input_digest
from minorsum.paths import NE_STEPS, PathProblem, count_free_routes
from minorsum.ring import format_poly


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_lines(reports):
    return [json.dumps(report_json(r), sort_keys=True, separators=(",", ":"))
            for r in reports]


def test_symbolic_suite_reports_are_pinned():
    reports = symbolic_suite()
    assert len(reports) == 18 and all(r.passed for r in reports)
    assert digest(report_lines(reports)) == (
        "27358708361db4fd3eda05dcd1d90d2114619f8e0976f8ba3abe2bf610d279fe"
    )


def test_cauchy_reports_are_pinned():
    reports = [check_cauchy(*shape) for shape in CAUCHY_SHAPES]
    assert all(r.passed for r in reports)
    assert digest(report_lines(reports)) == (
        "493f9a24dca9ab2eb1dd3096a6253f33db472817609c4873bdbbd962ea1359f0"
    )


def test_skew_schur_text_over_the_3x3_box_is_pinned():
    ring, xs, _ = xy_ring(3, 0)
    lines = [
        f"{lam}/{mu}: {format_poly(skew_schur(ring, lam, mu, xs))}"
        for lam in box_partitions(3, 3)
        for mu in sub_partitions(lam)
    ]
    assert len(lines) == 175
    assert digest(lines) == (
        "bdf9fe76a417cf12dc595d8e68c3e8078a94313d29e1372908f37ad25967efeb"
    )


def integer_reports():
    """Every matrix check on one seeded integer input per (m, n), m in 1..6
    and n in m..8; the even- and odd-only checks run at their parity."""
    reports = []
    for m in range(1, 7):
        for n in range(m, 9):
            rng = random.Random(100 * m + n)

            def rand(rows, cols):
                return Matrix(ZZ, [[rng.randint(-5, 5) for _ in range(cols)]
                                   for _ in range(rows)])

            A, B, X = rand(m, n), rand(m, n), rand(n, n)
            reports += [check_okada(A), check_byun(A), check_main1(A, B, X),
                        check_ab(A, B)]
            if m % 2 == 0:
                reports += [check_main2(A, B, X), check_cor7(A, X), check_ab2(A, B)]
            else:
                reports.append(check_lemma_aux(A, B, X))
    return reports


def test_integer_reports_are_pinned():
    reports = integer_reports()
    assert len(reports) == 195 and all(r.passed for r in reports)
    assert digest(report_lines(reports)) == (
        "05e8d9cfad26a60bd46ae07802dd86207823fa440a3acf12c3b26e948cd794c5"
    )


def closed_forms_reports():
    """Criterion 4's closed-forms reports: symbolic diagonals n = 1..4,
    then 100 seeded integer diagonals of length trial % 6 + 1."""
    reports = []
    for n in range(1, 5):
        ring = PolynomialRing(tuple(f"d{i}" for i in range(1, n + 1)))
        reports.append(check_closed_forms(ring, ring.gens()))
    rng = random.Random(77)
    for trial in range(100):
        diag = [rng.randint(-5, 5) for _ in range(trial % 6 + 1)]
        reports.append(check_closed_forms(ZZ, diag))
    return reports


def test_closed_forms_reports_are_pinned():
    reports = closed_forms_reports()
    assert len(reports) == 104 and all(r.passed for r in reports)
    assert digest(report_lines(reports)) == (
        "991b137f130960ce46d419db37829e73a2705bfc6e2a91ac4e47bb2afe755ed8"
    )


def paths_problems():
    """The README example, the instance beyond the enumeration guard, and
    seeded NE and Delannoy staircases with m = 1..4 starts."""
    problems = [
        {"starts": [[0, 0], [1, -1]], "ends": [[1, 2], [2, 1], [3, 0], [3, -1]], "choose": 2},
        {"starts": [[0, 0], [1, -1], [2, -2]], "ends": [[6 + k, 6 - k] for k in range(8)]},
    ]
    for steps, seed, highest_end in ((NE_STEPS, 16, 5), (DELANNOY, 17, 4)):
        for p in seeded_staircases(seed, steps, highest_end) + seeded_staircases(
            seed + 100, steps, highest_end
        )[:2]:
            problem = {"starts": [list(s) for s in p.starts],
                       "ends": [list(e) for e in p.candidate_ends]}
            if steps != NE_STEPS:
                problem["steps"] = [list(s) for s in steps]
            problems.append(problem)
    return problems


def test_paths_output_and_routes_are_pinned(tmp_path):
    problems = paths_problems()
    assert len(problems) == 30
    lines = []
    for k, problem in enumerate(problems):
        path = tmp_path / f"problem{k}.json"
        path.write_text(json.dumps(problem))
        result = CliRunner().invoke(main, ["paths", str(path)])
        assert result.exit_code == 0, result.output
        assert set(json.loads(result.output)) == {"count", "routes"}
        routes = count_free_routes(PathProblem(
            starts=problem["starts"], candidate_ends=problem["ends"],
            steps=problem.get("steps", NE_STEPS),
        ))
        lines += [result.output, json.dumps(routes, sort_keys=True)]
    assert digest(lines) == (
        "a1a70e1a428f891d9434587a6d929661e52db6080543b026a587f9ec28864d93"
    )


@pytest.mark.parametrize(
    "ring,ms,ns,trials,seed,failures,expected",
    [
        ("int", range(1, 5), range(1, 6), 2, 2026, 246,
         "5f732a8b1fff4d9d62057898d600143ad53e5f047561ab0c06c4fcfdd85f29a7"),
        ("poly", range(1, 4), range(1, 4), 1, 7, 53,
         "6ecb9de8c5574e2da2553f78e66dadcd840e51f4711039bfb05686f8992b0840"),
    ],
)
def test_forced_failure_lines_are_pinned(monkeypatch, ring, ms, ns, trials, seed,
                                         failures, expected):
    """Every identity's trials made to fail: the bytes of each failure line,
    its input digest, formatted sides, details and embedded inputs."""

    def failing(run):
        def wrapped(*args):
            report = run(*args)
            report.passed = False
            return report
        return wrapped

    for ident, entry in list(_REGISTRY.items()):
        monkeypatch.setitem(_REGISTRY, ident, _RegistryEntry(
            run=failing(entry.run), applicable=entry.applicable))
    report = run_verify(VerifyConfig(identities=tuple(_REGISTRY), ms=ms, ns=ns,
                                     trials=trials, seed=seed, ring=ring))
    assert report.summary["failures"] == report.summary["total_trials"] == failures
    text = report.to_json_lines()
    assert hashlib.sha256(text.encode()).hexdigest() == expected
    # each line's digest is the sha256 prefix of exactly its embedded inputs
    for line in text.splitlines()[:-1]:
        failure = json.loads(line)
        assert failure["input_digest"] == input_digest(failure["inputs"])
