"""Pinned bytes of the canonical text of polynomial results.

`run_verify` keeps only failed reports, so a change to how polynomials are
formatted would not show in a passing run.  These tests hash the full
`to_json_dict()` of passed symbolic reports, and the canonical text of
skew Schur polynomials, against digests taken from a known-good tree.
"""

import hashlib
import json

from test_acceptance import CAUCHY_SHAPES, symbolic_suite
from test_symfun import box_partitions, sub_partitions

from minorsum import check_cauchy, skew_schur, xy_ring
from minorsum.ring import format_poly


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def report_lines(reports):
    return [json.dumps(r.to_json_dict(), sort_keys=True, separators=(",", ":"))
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
