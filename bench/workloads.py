"""The benchmark's workloads: fixed, seeded lists of operations on minorsum.

Each workload function returns a list of `Op`.  `run` is the timed call into the
program and returns its raw output; `view` turns that output into a plain
comparable value outside the timed region; `check` compares the view with
a reference computed by `oracle` (never by minorsum) and raises
`CheckError` on a wrong answer.

Every workload function takes the `minorsum` package as an argument and reads its
functions off it when the ops are built, so that a tracer installed
beforehand sees the calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
from dataclasses import dataclass
from itertools import combinations
from typing import Any, Callable

import oracle

ENTRY_BOUND = 5  # verify's default: integer entries lie in [-5, 5]
POINT_BOUND = 10_000  # Schwartz-Zippel evaluation points lie in [-10^4, 10^4]
GUARD = 10**6  # count_free's brute-force limit on path tuples per selection


class CheckError(Exception):
    """An output of the program disagrees with the reference computation."""


@dataclass
class Op:
    kind: str
    label: str
    run: Callable[[], Any]
    view: Callable[[Any], Any]
    check: Callable[[Any], None]


def expect(label: str, got, want):
    if got != want:
        raise CheckError(f"{label}: got {got!r}, reference {want!r}")


# ---------------------------------------------------------------------------
# input make-up shared by the workloads


def int_matrix(rng, rows, cols):
    return [[rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(cols)] for _ in range(rows)]


def int_skew(rng, size, bound=ENTRY_BOUND):
    y = [[0] * size for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            v = rng.randint(-bound, bound)
            y[i][j], y[j][i] = v, -v
    return y


def report_view(report):
    return (
        report.lhs,
        report.rhs,
        report.passed,
        json.dumps(report.details, sort_keys=True),
    )


def report_check(label, reference):
    """Check a report view: it passed, and both printed sides equal
    reference()["side"], and each other key of reference() names a detail
    that must equal that value.  reference() runs once, on first use."""
    memo = {}

    def check(view):
        if not memo:
            memo.update(reference())
        lhs, rhs, passed, details_json = view
        expect(f"{label} passed", passed, True)
        expect(f"{label} lhs", lhs, str(memo["side"]))
        expect(f"{label} rhs", rhs, str(memo["side"]))
        details = json.loads(details_json)
        for key, value in memo.items():
            if key != "side":
                expect(f"{label} {key}", details.get(key), str(value))

    return check


# ---------------------------------------------------------------------------
# int-sweep: verify's release-gate grid, one integer input per cell


def _fits(m, n):
    return m <= n


# applicability of each identity over the gate grid (m 1..6, n 1..8), as
# `verify` decides it for the integer ring
GATE_MS = range(1, 7)
INPUTS_PER_CELL = 2  # two seeded inputs per cell halve the seed's effect on the tail
GATE_NS = range(1, 9)
APPLICABLE = {
    "okada": lambda m, n: True,
    "byun": lambda m, n: True,
    "main1": _fits,
    "main2": lambda m, n: m % 2 == 0 and m <= n,
    "rank1": lambda m, n: n == min(GATE_NS),
    "lemma-aux": lambda m, n: m % 2 == 1 and m <= n,
    "iswa": lambda m, n: m % 2 == 0 and m <= n,
    "lemma-iswa": lambda m, n: m % 2 == 0 and m <= n,
    "ab": _fits,
    "ab2": lambda m, n: m % 2 == 0 and m <= n,
    "cor7": lambda m, n: m % 2 == 0 and m <= n,
    "closed-forms": lambda m, n: m == min(GATE_MS) and n <= 6,
    "det-pf-square": lambda m, n: m % 2 == 0 and n == min(GATE_NS),
    "cauchy-binet-pf": lambda m, n: m % 2 == 0 and m <= n,
}


def _int_case(ms, ident, m, n, rng):
    """(run, reference) for one seeded integer input of identity `ident` at
    (m, n): run calls the checker, reference() computes the oracle's value
    of the report's sides, and of some details, from the same integers."""
    M, ZZ = ms.Matrix, ms.ZZ

    if ident in ("okada", "byun"):
        a = int_matrix(rng, m, n)
        A = M(ZZ, a)
        fn = ms.check_okada if ident == "okada" else ms.check_byun

        def reference():
            s = oracle.maximal_minor_sum(a)
            if ident == "okada":
                return {"side": s}
            return {"side": s * s, "minor_sum": s}

        return (lambda: fn(A)), reference

    if ident in ("main1", "main2", "lemma-aux"):
        a, b, x = int_matrix(rng, m, n), int_matrix(rng, m, n), int_matrix(rng, n, n)
        A, B, X = M(ZZ, a), M(ZZ, b), M(ZZ, x)
        fn = {"main1": ms.check_main1, "main2": ms.check_main2, "lemma-aux": ms.check_lemma_aux}[ident]

        def reference():
            axb = oracle.matmul(oracle.matmul(a, x), oracle.transpose(b))
            bxa = oracle.matmul(oracle.matmul(b, oracle.transpose(x)), oracle.transpose(a))
            if ident == "main1":
                jx = oracle.sub(oracle.ones(n), oracle.transpose(x))
                bja = oracle.matmul(oracle.matmul(b, jx), oracle.transpose(a))
                side = oracle.det(oracle.add(axb, bja))
                return {"side": side, "alt_rhs": side} if m % 2 else {"side": side}
            y = oracle.sub(axb, bxa)
            if ident == "main2":
                return {"side": oracle.pfaffian(y)}
            side = 0
            for i in range(m):
                keep = [r for r in range(m) if r != i]
                term = sum(a[i]) * oracle.pfaffian(oracle.submatrix(y, keep, keep))
                side += -term if i % 2 else term
            return {"side": side}

        return (lambda: fn(A, B, X)), reference

    if ident == "rank1":
        y = int_skew(rng, m)
        av = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(m)]
        # m = 4 exercises the equal-vector specialisation
        bv = list(av) if m == 4 else [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(m)]
        Y = M(ZZ, y)

        def reference():
            pert = [[y[i][j] + av[i] * bv[j] for j in range(m)] for i in range(m)]
            return {"side": oracle.det(pert)}

        return (lambda: ms.check_rank1(Y, av, bv)), reference

    if ident in ("iswa", "lemma-iswa"):
        y = int_skew(rng, n)
        Y = M(ZZ, y)
        if ident == "iswa":
            a = int_matrix(rng, m, n)
            A = M(ZZ, a)

            def reference():
                aya = oracle.matmul(oracle.matmul(a, y), oracle.transpose(a))
                return {"side": oracle.pfaffian(aya)}

            return (lambda: ms.check_iswa(A, Y)), reference
        window = sorted(rng.sample(range(1, n + 1), m))
        I = ms.IndexSet(n, window)

        def reference():
            pos = [i - 1 for i in window]
            return {"side": oracle.pfaffian(oracle.submatrix(y, pos, pos))}

        return (lambda: ms.check_lemma_iswa(Y, I)), reference

    if ident in ("ab", "ab2", "cauchy-binet-pf"):
        a, b = int_matrix(rng, m, n), int_matrix(rng, m, n)
        A, B = M(ZZ, a), M(ZZ, b)
        at, bt = oracle.transpose(a), oracle.transpose(b)
        u, ut = oracle.upper(n), oracle.transpose(oracle.upper(n))

        if ident == "ab":

            def reference():
                aub = oracle.matmul(oracle.matmul(a, u), bt)
                bua = oracle.matmul(oracle.matmul(b, u), at)
                return {"side": oracle.det(oracle.add(oracle.add(aub, bua), oracle.matmul(a, bt)))}

            return (lambda: ms.check_ab(A, B)), reference
        if ident == "ab2":

            def reference():
                ui, uti = oracle.add(u, oracle.ident(n)), oracle.add(ut, oracle.ident(n))
                strict = oracle.sub(oracle.matmul(oracle.matmul(a, u), bt), oracle.matmul(oracle.matmul(b, ut), at))
                weak = oracle.sub(oracle.matmul(oracle.matmul(a, ui), bt), oracle.matmul(oracle.matmul(b, uti), at))
                return {"side": oracle.pfaffian(strict), "weak_chain_pf": oracle.pfaffian(weak)}

            return (lambda: ms.check_ab2(A, B)), reference

        def reference():
            return {"side": oracle.pfaffian(oracle.sub(oracle.matmul(a, bt), oracle.matmul(b, at)))}

        return (lambda: ms.check_cauchy_binet_pf(A, B)), reference

    if ident == "cor7":
        a, x = int_matrix(rng, m, n), int_matrix(rng, n, n)
        A, X = M(ZZ, a), M(ZZ, x)

        def reference():
            at, xt = oracle.transpose(a), oracle.transpose(x)
            full = oracle.sub(oracle.add(x, oracle.ones(n)), xt)
            skew = oracle.sub(x, xt)
            return {
                "side": oracle.det(oracle.matmul(oracle.matmul(a, full), at)),
                "det_skew_part": oracle.det(oracle.matmul(oracle.matmul(a, skew), at)),
            }

        return (lambda: ms.check_cor7(A, X)), reference

    if ident == "det-pf-square":
        y = int_skew(rng, m)
        Y = M(ZZ, y)

        def reference():
            return {"side": oracle.det(y), "pfaffian": oracle.pfaffian(y)}

        return (lambda: ms.check_det_pf_square(Y)), reference

    if ident == "closed-forms":
        diag = [rng.randint(-ENTRY_BOUND, ENTRY_BOUND) for _ in range(n)]
        return (lambda: ms.check_closed_forms(ZZ, diag)), None

    raise ValueError(f"unknown identity {ident!r}")


def _closed_forms_check(label, n):
    # every (I, J) pair the checker scans: |I| = |J| and |I| = |J| + 1
    pairs = sum(math.comb(n, k) ** 2 for k in range(n + 1)) + sum(
        math.comb(n, k + 1) * math.comb(n, k) for k in range(n)
    )

    def check(view):
        lhs, rhs, passed, details_json = view
        expect(f"{label} passed", passed, True)
        expect(f"{label} lhs", lhs, f"{pairs} closed-form values")
        expect(f"{label} rhs", rhs, f"{pairs} matching cofactor determinants")
        details = json.loads(details_json)
        expect(f"{label} mismatches", details.get("mismatches"), [])

    return check


def int_sweep(ms, seed: int, workdir: str) -> list:
    """Public check_<id> calls over every (identity, m, n) cell of the gate
    grid, on seeded integer entries in [-5, 5]."""
    ops = []
    for ident in ms.IDENTITY_IDS:
        for m in GATE_MS:
            for n in GATE_NS:
                if not APPLICABLE[ident](m, n):
                    continue
                for trial in range(INPUTS_PER_CELL):
                    rng = random.Random(f"int-sweep:{seed}:{ident}:{m}:{n}:{trial}")
                    run, reference = _int_case(ms, ident, m, n, rng)
                    label = f"{ident}({m},{n})#{trial}"
                    if ident == "closed-forms":
                        check = _closed_forms_check(label, n)
                    else:
                        check = report_check(label, reference)
                    ops.append(Op(ident, label, run, report_view, check))
    return ops


# ---------------------------------------------------------------------------
# poly-symbolic: generic-entry checks, the coupled Cauchy identity, and
# skew Schur polynomials over the 3x3 box


def _generic(ms, shapes):
    """Matrices of fresh variables named <label><i>_<j>, sharing one ring."""
    names = [
        f"{label}{i}_{j}"
        for label, (m, n) in shapes.items()
        for i in range(1, m + 1)
        for j in range(1, n + 1)
    ]
    ring = ms.PolynomialRing(names)
    mats = {
        label: ms.Matrix(
            ring,
            [[ring.gen(f"{label}{i}_{j}") for j in range(1, n + 1)] for i in range(1, m + 1)],
        )
        for label, (m, n) in shapes.items()
    }
    return names, mats


def _generic_skew(ms, n, extra=()):
    names = [f"y{i}_{j}" for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    names += [f"{p}{i}" for p in extra for i in range(1, n + 1)]
    ring = ms.PolynomialRing(names)
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g = ring.gen(f"y{i}_{j}")
            rows[i - 1][j - 1], rows[j - 1][i - 1] = g, -g
    vectors = {p: [ring.gen(f"{p}{i}") for i in range(1, n + 1)] for p in extra}
    return names, ms.Matrix(ring, rows), vectors


def _at(point, label, m, n):
    return [[point[f"{label}{i}_{j}"] for j in range(1, n + 1)] for i in range(1, m + 1)]


def _skew_at(point, n):
    y = [[0] * n for _ in range(n)]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            v = point[f"y{i}_{j}"]
            y[i - 1][j - 1], y[j - 1][i - 1] = v, -v
    return y


def symbolic_check(label, point, reference, detail_refs=None):
    """The report passed, its two printed sides are the same polynomial, and
    that polynomial specialised at `point` equals the reference value of
    the same side computed in the integers."""
    memo = {}

    def check(view):
        lhs, rhs, passed, details_json = view
        expect(f"{label} passed", passed, True)
        expect(f"{label} lhs == rhs", lhs, rhs)
        if "side" not in memo:
            memo["side"] = reference()
        expect(f"{label} value at point", oracle.eval_poly_text(lhs, point), memo["side"])
        details = json.loads(details_json)
        for key, ref in (detail_refs or {}).items():
            expect(f"{label} {key} at point", oracle.eval_poly_text(details[key], point), ref())

    return check


def _point(rng, names):
    return {name: rng.randint(-POINT_BOUND, POINT_BOUND) for name in names}


def box_partitions(rows, cols):
    """All partitions fitting in a rows x cols box, the empty one included."""
    out = []

    def rec(prefix, remaining, cap):
        out.append(tuple(prefix))
        if remaining:
            for part in range(cap, 0, -1):
                rec(prefix + [part], remaining - 1, part)

    rec([], rows, cols)
    return out


def sub_partitions(lam):
    """All partitions contained in lam."""
    out = [()]
    for k in range(1, len(lam) + 1):
        def rec(prefix):
            if len(prefix) == k:
                out.append(tuple(prefix))
                return
            cap = prefix[-1] if prefix else lam[0]
            for part in range(min(cap, lam[len(prefix)]), 0, -1):
                rec(prefix + [part])

        rec([])
    return out


CAUCHY_SHAPES = ((2, 2, 1, 1), (2, 4, 3, 3), (4, 4, 2, 2), (4, 5, 2, 2))


def poly_symbolic(ms, seed: int, workdir: str) -> list:
    """The symbolic release-gate checks (criterion 3), check_cauchy at four
    shapes, and skew_schur for every pair of shapes in the 3x3 box, in a
    seeded order, each checked at a seeded integer point."""
    rng = random.Random(f"poly-symbolic:{seed}")
    ops = []

    def add_op(kind, label, run, check, view=report_view):
        ops.append(Op(kind, label, run, view, check))

    def abx_op(kind, m, n, with_x=True):
        shapes = {"a": (m, n), "b": (m, n)}
        if with_x:
            shapes["x"] = (n, n)
        names, mats = _generic(ms, shapes)
        pt = _point(rng, names)
        a, b = _at(pt, "a", m, n), _at(pt, "b", m, n)
        at, bt = oracle.transpose(a), oracle.transpose(b)
        label = f"{kind}({m},{n})"
        A, B = mats["a"], mats["b"]
        if kind in ("main1", "main2", "lemma-aux"):
            X = mats["x"]
            x = _at(pt, "x", n, n)
            axb = oracle.matmul(oracle.matmul(a, x), bt)
            bxa = oracle.matmul(oracle.matmul(b, oracle.transpose(x)), at)
            y = oracle.sub(axb, bxa)
        if kind == "main1":
            def reference():
                jx = oracle.sub(oracle.ones(n), oracle.transpose(x))
                return oracle.det(oracle.add(axb, oracle.matmul(oracle.matmul(b, jx), at)))

            detail = {"alt_rhs": reference} if m % 2 else {}
            add_op(kind, label, lambda: ms.check_main1(A, B, X), symbolic_check(label, pt, reference, detail))
        elif kind == "main2":
            add_op(kind, label, lambda: ms.check_main2(A, B, X),
                   symbolic_check(label, pt, lambda: oracle.pfaffian(y)))
        elif kind == "lemma-aux":
            def reference():
                side = 0
                for i in range(m):
                    keep = [r for r in range(m) if r != i]
                    term = sum(a[i]) * oracle.pfaffian(oracle.submatrix(y, keep, keep))
                    side += -term if i % 2 else term
                return side

            add_op(kind, label, lambda: ms.check_lemma_aux(A, B, X), symbolic_check(label, pt, reference))
        elif kind == "ab":
            def reference():
                u = oracle.upper(n)
                aub = oracle.matmul(oracle.matmul(a, u), bt)
                bua = oracle.matmul(oracle.matmul(b, u), at)
                return oracle.det(oracle.add(oracle.add(aub, bua), oracle.matmul(a, bt)))

            add_op(kind, label, lambda: ms.check_ab(A, B), symbolic_check(label, pt, reference))
        else:  # ab2
            def reference():
                u = oracle.upper(n)
                return oracle.pfaffian(oracle.sub(
                    oracle.matmul(oracle.matmul(a, u), bt),
                    oracle.matmul(oracle.matmul(b, oracle.transpose(u)), at)))

            add_op(kind, label, lambda: ms.check_ab2(A, B), symbolic_check(label, pt, reference))

    for m, n in ((1, 2), (2, 2), (3, 3)):
        abx_op("main1", m, n)
    abx_op("main2", 2, 3)
    for m in (2, 3, 4):
        names, Y, vecs = _generic_skew(ms, m, extra=("a", "b"))
        pt = _point(rng, names)
        y = _skew_at(pt, m)
        for second in ("b", "a"):
            av = [pt[f"a{i}"] for i in range(1, m + 1)]
            bv = [pt[f"{second}{i}"] for i in range(1, m + 1)]
            label = f"rank1({m},{'ab' if second == 'b' else 'aa'})"

            def reference(y=y, av=av, bv=bv):
                return oracle.det([[y[i][j] + av[i] * bv[j] for j in range(len(y))] for i in range(len(y))])

            run = (lambda Y=Y, a=vecs["a"], b=vecs[second]: ms.check_rank1(Y, a, b))
            add_op("rank1", label, run, symbolic_check(label, pt, reference))
    for m, n in ((1, 2), (3, 3)):
        abx_op("lemma-aux", m, n)
    names, Y6, _ = _generic_skew(ms, 6)
    pt6 = _point(rng, names)
    y6 = _skew_at(pt6, 6)
    for window in ((2, 5), (1, 3, 4, 6), (3, 4, 5, 6)):
        label = f"lemma-iswa{window}"
        pos = [i - 1 for i in window]
        add_op("lemma-iswa", label, lambda w=window: ms.check_lemma_iswa(Y6, w),
               symbolic_check(label, pt6, lambda pos=pos: oracle.pfaffian(oracle.submatrix(y6, pos, pos))))
    for m, n in ((1, 2), (2, 2)):
        abx_op("ab", m, n, with_x=False)
    abx_op("ab2", 2, 2, with_x=False)

    for shape in CAUCHY_SHAPES:
        m, n, kx, ky = shape
        names = [f"x{i}" for i in range(1, kx + 1)] + [f"y{i}" for i in range(1, ky + 1)]
        pt = _point(rng, names)
        xs = [pt[f"x{i}"] for i in range(1, kx + 1)]
        ys = [pt[f"y{i}"] for i in range(1, ky + 1)]
        label = f"cauchy{shape}"

        def reference(m=m, n=n, xs=xs, ys=ys):
            hx = lambda d: oracle.complete_h(d, xs)
            hy = lambda d: oracle.complete_h(d, ys)
            coupled = [
                [
                    sum(
                        hx(k - i) * hy(l - j) - hy(l - i) * hx(k - j)
                        for k in range(1, n + 1)
                        for l in range(k, n + 1)
                    )
                    for j in range(1, m + 1)
                ]
                for i in range(1, m + 1)
            ]
            return oracle.pfaffian(coupled)

        add_op("cauchy", label, lambda s=shape: ms.check_cauchy(*s), symbolic_check(label, pt, reference))

    ring, xs, _ = ms.xy_ring(3, 0)
    pt = _point(rng, ["x1", "x2", "x3"])
    values = [pt["x1"], pt["x2"], pt["x3"]]
    for lam in box_partitions(3, 3):
        for mu in sub_partitions(lam):
            label = f"skew_schur({lam},{mu})"

            def check(view, lam=lam, mu=mu, label=label):
                expect(label, oracle.eval_poly_text(view, pt), oracle.tableau_schur_value(lam, mu, values))

            ops.append(Op("skew_schur", label, lambda lam=lam, mu=mu: ms.skew_schur(ring, lam, mu, xs), str, check))

    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# paths-eval: count_free, and the `eval` and `paths` commands on JSON files


def _staircase(rng, m, n):
    starts, (x, y) = [], (0, 0)
    for _ in range(m):
        starts.append((x, y))
        dx, dy = rng.choice(((1, -1), (1, 0), (0, -1), (2, -1), (1, -2)))
        x, y = x + dx, y + dy
    x, y = rng.randint(m, m + 3), rng.randint(1, 4)
    ends = []
    for _ in range(n):
        ends.append((x, y))
        dx, dy = rng.choice(((1, -1), (1, 0), (0, -1)))
        x, y = x + dx, y + dy
    return starts, ends


def brute_force_work(starts, ends):
    """Predicted time, in microseconds, of count_free's exhaustive route on
    an instance, or None when an endpoint selection exceeds its guard.

    For each endpoint selection the route lists every single path (c_k
    paths of L_k vertices for start k), then extends each vertex-disjoint
    prefix of the first k paths (N_k of them, an LGV determinant) by each
    path of start k, testing and joining sets of about L_1 + ... + L_k
    vertices.  The weights are a least-squares fit of measured times."""
    m = len(starts)
    counts = [[oracle.path_count(s, e) for e in ends] for s in starts]
    lengths = [[e[0] - s[0] + e[1] - s[1] + 1 for e in ends] for s in starts]
    prefixes = {(): 1}
    work = 0.0
    for sel in combinations(range(len(ends)), m):
        c = [counts[k][sel[k]] for k in range(m)]
        if math.prod(c) > GUARD:
            return None
        for k in range(1, m + 1):
            key = sel[:k]
            if key not in prefixes:
                prefixes[key] = oracle.det([[counts[i][j] for j in key] for i in range(k)])
        joined = 0
        for k in range(m):
            length = lengths[k][sel[k]]
            joined += length
            work += (0.0135 * prefixes[sel[:k]] * c[k] * joined + 1.05 * c[k] * length
                     + 0.0425 * prefixes[sel[:k + 1]] * joined)
    return work


def free_instance(rng, m, n, target, candidates=12):
    """Of `candidates` staircase instances drawn from `rng`, the one inside
    the guard whose brute-force work is nearest `target` and that has at
    least one family; a fresh batch when none qualifies."""
    while True:
        scored = []
        for _ in range(candidates):
            starts, ends = _staircase(rng, m, n)
            work = brute_force_work(starts, ends)
            if work:
                scored.append((abs(math.log(work / target)), starts, ends))
        scored.sort()
        for _, starts, ends in scored:
            if oracle.free_endpoint_count(starts, ends) > 0:
                return starts, ends


def shifted(points, offset):
    return [(x + offset[0], y + offset[1]) for x, y in points]


# The staircase shapes come from this fixed stream, not from the seed: the
# brute-force cost of instances with the same predicted work still differs
# up to tenfold, which a seeded draw would turn into run-to-run spread.
# The seed moves each instance by its own offset, which changes every
# coordinate and none of the counts or costs.
SHAPES_STREAM = "paths-eval:shapes"
OFFSET_BOUND = 50

# (starts m, candidate ends n, target time in microseconds) per count_free
# op; the instances drawn predict 0.6 to 91 ms.
COUNT_FREE_SLOTS = tuple(
    (m, n, target)
    for m in (2, 3, 4)
    for n in (5, 6, 7, 8)
    for target in (1.2e4, 3e4)
)
# (starts, ends, target work) per `paths` command
PATHS_SLOTS = ((2, 5, 5e3), (3, 6, 1e4), (4, 6, 1e4), (3, 7, 1e4))
# twenty Pfaffians at n = 20, the slowest operations but one, so that the
# 90th percentile falls inside a block of operations of the same cost,
# three operations clear of its edge
PF_SIZES = (10, 12, 14, 16, 18) + (20,) * 20
DET_SIZES = tuple(n for n in range(4, 15) for _ in range(3))
SINGULAR_DET_SIZES = (8, 9, 10)
MINORSUM_SHAPES = ((2, 6), (3, 7), (3, 8), (4, 8))
F_SHAPES = ((2, 5), (2, 6), (4, 6), (4, 7))
G_SHAPES = ((1, 4), (3, 6), (3, 7), (5, 7))
SYMBOLIC_SIZES = (("det", 3), ("det", 4), ("pf", 4), ("pf", 6))
SYMBOLIC_VARS = ("p", "q", "r", "s")
# seeded inputs per `eval minorsum`, `f` and `g` shape; these operations
# lie about the median, whose place among operations of unlike cost is
# steadier the more of them there are
EVAL_INPUTS = 6


def _write_json(path, obj):
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _symplectic(n):
    j = [[0] * n for _ in range(n)]
    for k in range(0, n, 2):
        j[k][k + 1], j[k + 1][k] = 1, -1
    return j


def _sym_entry(rng):
    """Polynomial text in the benchmark's own sum-of-products form."""
    terms = []
    for _ in range(2):
        var = rng.choice(SYMBOLIC_VARS)
        power = "^2" if rng.random() < 0.5 else ""
        terms.append(f"{rng.randint(1, 3)}*{var}{power}")
    const = rng.randint(-3, 3)
    return f"{terms[0]} - {terms[1]} {'-' if const < 0 else '+'} {abs(const)}"


def paths_eval(ms, seed: int, workdir: str) -> list:
    """count_free on seeded staircase instances, and the CLI `eval` and
    `paths` commands called in-process on JSON files written here."""
    rng = random.Random(f"paths-eval:{seed}")
    main = ms.cli.main
    ops = []

    file_ids = itertools.count()

    def write(obj):
        return _write_json(os.path.join(workdir, f"input{next(file_ids)}.json"), obj)

    def write_int(rows):
        return write({"ring": "int", "rows": len(rows), "cols": len(rows[0]), "entries": rows})

    def cli_op(kind, label, args, check):
        def run():
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                main.main(args=list(args), prog_name="minorsum", standalone_mode=False)
            return out.getvalue()

        ops.append(Op(kind, label, run, str.strip, check))

    def value_check(label, reference):
        memo = []

        def check(view):
            if not memo:
                memo.append(str(reference()))
            expect(label, view, memo[0])

        return check

    shapes = random.Random(SHAPES_STREAM)

    def instance(m, n, target):
        starts, ends = free_instance(shapes, m, n, target)
        offset = (rng.randint(-OFFSET_BOUND, OFFSET_BOUND), rng.randint(-OFFSET_BOUND, OFFSET_BOUND))
        return shifted(starts, offset), shifted(ends, offset)

    for m, n, target in COUNT_FREE_SLOTS:
        starts, ends = instance(m, n, target)
        problem = ms.PathProblem(starts=tuple(starts), candidate_ends=tuple(ends))
        label = f"count_free(m={m},n={n},~{target / 1000:g}ms)"
        ops.append(Op("count_free", label, lambda p=problem: ms.count_free(p), str,
                      value_check(label, lambda s=starts, e=ends: oracle.free_endpoint_count(s, e))))

    for m, n, target in PATHS_SLOTS:
        starts, ends = instance(m, n, target)
        path = write({"starts": starts, "ends": ends, "choose": m})
        label = f"paths(m={m},n={n})"

        def check(view, label=label, starts=starts, ends=ends):
            count = oracle.free_endpoint_count(starts, ends)
            routes = {"brute": count, "byun": count, "okada": count}
            expect(label, json.loads(view), {"count": count, "routes": routes})

        cli_op("cli-paths", label, ("paths", path), check)

    for n in PF_SIZES:
        # Y = M J M^t with J the standard symplectic form, so Pf(Y) = det(M)
        mm = int_matrix(rng, n, n)
        y = oracle.matmul(oracle.matmul(mm, _symplectic(n)), oracle.transpose(mm))
        label = f"eval pf n={n}"
        cli_op("eval-pf", label, ("eval", "pf", write_int(y)), value_check(label, lambda mm=mm: oracle.det(mm)))

    for n in DET_SIZES:
        d = int_matrix(rng, n, n)
        label = f"eval det n={n}"
        cli_op("eval-det", label, ("eval", "det", write_int(d)), value_check(label, lambda d=d: oracle.det(d)))
    for n in SINGULAR_DET_SIZES:
        # a zero first column sends det_bareiss to its cofactor fallback;
        # the other entries are nonzero, so that the expansion prunes no
        # branch and its cost does not depend on the seed
        d = [[0] + [rng.choice((-1, 1)) * rng.randint(1, ENTRY_BOUND) for _ in range(n - 1)] for _ in range(n)]
        label = f"eval det n={n} zero-column"
        cli_op("eval-det-singular", label, ("eval", "det", write_int(d)), value_check(label, lambda d=d: oracle.det(d)))

    for (m, n), trial in itertools.product(MINORSUM_SHAPES, range(EVAL_INPUTS)):
        a = int_matrix(rng, m, n)
        label = f"eval minorsum {m}x{n}#{trial}"
        cli_op("eval-minorsum", label, ("eval", "minorsum", write_int(a)),
               value_check(label, lambda a=a: oracle.maximal_minor_sum(a)))

    for op_name, shapes in (("f", F_SHAPES), ("g", G_SHAPES)):
        for (m, n), trial in itertools.product(shapes, range(EVAL_INPUTS)):
            a, b, x = int_matrix(rng, m, n), int_matrix(rng, m, n), int_matrix(rng, n, n)
            files = [write_int(v) for v in (a, b, x)]
            label = f"eval {op_name} {m}x{n}#{trial}"
            cli_op(f"eval-{op_name}", label, ("eval", op_name, *files),
                   value_check(label, lambda a=a, b=b, x=x, g=op_name == "g": oracle.double_minor_sum(a, b, x, g)))

    # small symbolic files: the program parses the entry text, and the
    # oracle specialises its printed result at a seeded point
    pt = _point(rng, SYMBOLIC_VARS)
    for kind, n in SYMBOLIC_SIZES:
        if kind == "det":
            entries = [[_sym_entry(rng) for _ in range(n)] for _ in range(n)]
            values = [[oracle.eval_poly_text(e, pt) for e in row] for row in entries]
            reference = (lambda v=values: oracle.det(v))
        else:
            entries = [["0"] * n for _ in range(n)]
            values = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    e = _sym_entry(rng)
                    entries[i][j], entries[j][i] = e, f"-({e})"
                    values[i][j] = oracle.eval_poly_text(e, pt)
                    values[j][i] = -values[i][j]
            reference = (lambda v=values: oracle.pfaffian(v))
        path = write({"ring": {"poly": list(SYMBOLIC_VARS)}, "rows": n, "cols": n, "entries": entries})
        label = f"eval {kind} symbolic n={n}"

        def check(view, label=label, reference=reference):
            expect(label, oracle.eval_poly_text(view, pt), reference())

        cli_op(f"eval-{kind}-symbolic", label, ("eval", kind, path), check)

    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "int-sweep": int_sweep,
    "poly-symbolic": poly_symbolic,
    "paths-eval": paths_eval,
}
