"""Tests of the benchmark's reference computations and output checks.

    python3 -m unittest discover -s bench -p 'test_*.py'

The reference routines are compared with definitions written out here
(Leibniz determinants, Pfaffians over perfect matchings, path enumeration),
and every kind of operation in every workload is run once to show that its
check accepts the program's output and rejects a perturbed copy of it.
"""

import json
import os
import random
import shutil
import sys
import tempfile
import unittest
from fractions import Fraction
from itertools import combinations, permutations

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402


def leibniz(a):
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(1 for i, j in combinations(range(n), 2) if perm[i] > perm[j])
        prod = 1
        for i in range(n):
            prod *= a[i][perm[i]]
        total += -prod if inversions % 2 else prod
    return total


def matchings_pfaffian(a):
    """Signed sum over perfect matchings, sign from the crossing count."""
    def rec(rest):
        if not rest:
            yield []
            return
        first = rest[0]
        for t in range(1, len(rest)):
            for tail in rec(rest[1:t] + rest[t + 1:]):
                yield [(first, rest[t])] + tail

    total = 0
    for pairs in rec(list(range(len(a)))):
        crossings = sum(1 for (p, q), (r, s) in combinations(pairs, 2) if p < r < q < s or r < p < s < q)
        prod = 1
        for p, q in pairs:
            prod *= a[p][q]
        total += -prod if crossings % 2 else prod
    return total


def enumerate_families(starts, ends):
    """Vertex-disjoint north-east path families onto any len(starts) ends."""
    def paths(s, e):
        if s == e:
            return [frozenset([s])]
        out = []
        for step in ((1, 0), (0, 1)):
            nxt = (s[0] + step[0], s[1] + step[1])
            if nxt[0] <= e[0] and nxt[1] <= e[1]:
                out += [p | {s} for p in paths(nxt, e)]
        return out

    total = 0
    for sel in combinations(ends, len(starts)):
        options = [paths(s, e) for s, e in zip(starts, sel)]

        def count(i, used):
            if i == len(options):
                return 1
            return sum(count(i + 1, used | p) for p in options[i] if not used & p)

        total += count(0, frozenset())
    return total


def bump(text):
    """A wrong copy of a printed value."""
    try:
        return str(int(text) + 1)
    except ValueError:
        pass
    if text.startswith("{"):
        doc = json.loads(text)
        doc["count"] += 1
        return json.dumps(doc, separators=(",", ":"))
    return text + " + 1"


class OracleTest(unittest.TestCase):
    def test_det_matches_leibniz(self):
        rng = random.Random(1)
        for n in range(0, 6):
            for _ in range(10):
                a = workloads.int_matrix(rng, n, n)
                self.assertEqual(oracle.det(a), leibniz(a))

    def test_pfaffian_matches_matchings_and_sign(self):
        rng = random.Random(2)
        for n in (0, 2, 4, 6, 8):
            for _ in range(8):
                y = workloads.int_skew(rng, n)
                self.assertEqual(oracle.pfaffian(y), matchings_pfaffian(y))
        j = workloads._symplectic(8)
        for _ in range(8):
            m = workloads.int_matrix(rng, 8, 8)
            y = oracle.matmul(oracle.matmul(m, j), oracle.transpose(m))
            self.assertEqual(oracle.pfaffian(y), oracle.det(m))
        self.assertEqual(oracle.pfaffian(workloads.int_skew(rng, 5)), 0)
        with self.assertRaises(ValueError):
            oracle.pfaffian([[0, 1], [1, 0]])

    def test_free_endpoint_count_matches_enumeration(self):
        rng = random.Random(3)
        for m, n in ((1, 3), (2, 4), (3, 5), (2, 5)):
            starts, ends = workloads._staircase(rng, m, n)
            self.assertEqual(oracle.free_endpoint_count(starts, ends), enumerate_families(starts, ends))

    def test_tableau_schur_value(self):
        v = [3, -2, 5]
        self.assertEqual(oracle.tableau_schur_value((2,), (), v), oracle.complete_h(2, v))
        self.assertEqual(oracle.tableau_schur_value((1, 1), (), v), 3 * -2 + 3 * 5 + -2 * 5)
        self.assertEqual(oracle.tableau_schur_value((2, 1), (1,), v), sum(v) ** 2)
        self.assertEqual(oracle.tableau_schur_value((1,), (2,), v), 0)

    def test_eval_poly_text(self):
        point = {"x": 2, "y1_2": -3}
        self.assertEqual(oracle.eval_poly_text("2*x^3*y1_2 - x + 7", point), -48 - 2 + 7)
        self.assertEqual(oracle.eval_poly_text("-x^2 - 1", point), -5)
        self.assertEqual(oracle.eval_poly_text("0", point), 0)
        for bad in ("x +", "2**x", "(x + 1)", "z"):
            with self.assertRaises((ValueError, KeyError)):
                oracle.eval_poly_text(bad, point)

    def test_det_is_exact(self):
        self.assertEqual(oracle.det([[Fraction(1, 2), 1], [1, 2]]), 0)
        with self.assertRaises(ValueError):
            oracle.det([[Fraction(1, 2), 0], [0, 1]])


class CheckTest(unittest.TestCase):
    """Each workload's checks accept the program's output and reject a
    perturbed copy of it, for one operation of every kind."""

    @classmethod
    def setUpClass(cls):
        import minorsum

        cls.ms = minorsum
        os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
        cls.workdir = tempfile.mkdtemp(prefix="test-", dir=os.path.join(HERE, "work"))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.workdir, ignore_errors=True)

    def one_of_each_kind(self, build):
        ops = build(self.ms, 7, self.workdir)
        first = {}
        for op in sorted(ops, key=lambda o: o.label):
            first.setdefault(op.kind, op)
        return first

    def assert_check_rejects(self, op):
        view = op.view(op.run())
        op.check(view)
        if isinstance(view, tuple):
            lhs, rhs, passed, details = view
            wrong = [(bump(lhs), bump(rhs), passed, details), (lhs, rhs, False, details)]
        else:
            wrong = [bump(view)]
        for bad in wrong:
            with self.assertRaises(workloads.CheckError, msg=f"{op.label} accepted {bad!r}"):
                op.check(bad)

    def test_int_sweep_checks(self):
        kinds = self.one_of_each_kind(workloads.int_sweep)
        self.assertEqual(set(kinds), set(self.ms.IDENTITY_IDS))
        for op in kinds.values():
            with self.subTest(op=op.label):
                self.assert_check_rejects(op)

    def test_int_sweep_covers_the_gate_grid(self):
        ops = workloads.int_sweep(self.ms, 7, self.workdir)
        self.assertEqual(len(ops), 285 * workloads.INPUTS_PER_CELL)

    def test_poly_symbolic_checks(self):
        for op in self.one_of_each_kind(workloads.poly_symbolic).values():
            with self.subTest(op=op.label):
                self.assert_check_rejects(op)

    def test_paths_eval_checks(self):
        kinds = self.one_of_each_kind(workloads.paths_eval)
        self.assertIn("eval-det-singular", kinds)
        for op in kinds.values():
            with self.subTest(op=op.label):
                self.assert_check_rejects(op)

    def test_same_seed_same_inputs(self):
        def build(seed):
            workdir = tempfile.mkdtemp(dir=self.workdir)
            ops = workloads.WORKLOADS["paths-eval"](self.ms, seed, workdir)
            files = {}
            for name in sorted(os.listdir(workdir)):
                with open(os.path.join(workdir, name)) as fh:
                    files[name] = fh.read()
            return [op.label for op in ops], files

        self.assertEqual(build(11), build(11))
        self.assertNotEqual(build(11)[1], build(12)[1])


if __name__ == "__main__":
    unittest.main()
