"""The benchmark runs on this checkout: each workload's first round, checked
against its oracle, exits 0 with every output correct.  The bench reads the
package's public names (`Matrix`, `IndexSet`, `count_free`, the ring's
generators, the command line), so a deletion that breaks it fails here."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", ["int-sweep", "poly-symbolic", "paths-eval"])
def test_bench_round_is_correct(workload):
    run = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["correct"] is True and result["failed"] == 0, result
