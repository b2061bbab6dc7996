import json
import time
import weakref

import click
import pytest
from click.testing import CliRunner

from oracles import count_free_families
from minorsum import (
    ConfigError,
    IDENTITY_IDS,
    IdentityReport,
    RunReport,
    UnknownIdentityError,
    VerifyConfig,
    run_verify,
)
from minorsum.cli import _REGISTRY, _RegistryEntry, _parse_range, _trial_rng, main


def write_matrix(path, entries, ring="int"):
    rows = len(entries)
    cols = len(entries[0]) if rows else 0
    path.write_text(
        json.dumps(
            {"ring": ring, "rows": rows, "cols": cols, "entries": entries}
        )
    )
    return str(path)


# -- configuration ---------------------------------------------------------


def test_verify_config_validation():
    ok = VerifyConfig(identities=("okada",), ms=(1, 2), ns=(2, 3))
    assert ok.trials == 20 and ok.ring == "int"
    with pytest.raises(UnknownIdentityError):
        VerifyConfig(identities=("nope",), ms=(1,), ns=(1,))
    with pytest.raises(ConfigError):
        VerifyConfig(identities=(), ms=(1,), ns=(1,))
    with pytest.raises(ConfigError):
        VerifyConfig(identities=("okada",), ms=(), ns=(1,))
    with pytest.raises(ConfigError):
        VerifyConfig(identities=("okada",), ms=(0,), ns=(1,))
    with pytest.raises(ConfigError):
        VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), trials=0)
    with pytest.raises(ConfigError):
        VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), ring="real")
    with pytest.raises(ConfigError):
        VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), workers=0)


def test_config_echo_omits_workers():
    cfg = VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), workers=7)
    echo = cfg.echo()
    assert "workers" not in echo
    assert echo["identities"] == ["okada"]


def test_parse_range_forms():
    assert _parse_range("3", "--m") == (3,)
    assert _parse_range("1..4", "--m") == (1, 2, 3, 4)
    assert _parse_range("2,4", "--m") == (2, 4)
    assert _parse_range("1..2,5", "--m") == (1, 2, 5)
    with pytest.raises(click.BadParameter):
        _parse_range("x", "--m")
    with pytest.raises(click.BadParameter):
        _parse_range("1..y", "--m")


def test_trial_rng_is_reproducible_and_keyed():
    a = _trial_rng(0, "okada", 2, 3, 0).random()
    b = _trial_rng(0, "okada", 2, 3, 0).random()
    c = _trial_rng(0, "okada", 2, 3, 1).random()
    d = _trial_rng(1, "okada", 2, 3, 0).random()
    assert a == b
    assert a != c and a != d


# -- run_verify -------------------------------------------------------------


def test_run_verify_small_grid_passes():
    cfg = VerifyConfig(identities=("okada", "byun"), ms=(1, 2), ns=(1, 2, 3), trials=3)
    rep = run_verify(cfg)
    assert rep.summary["failures"] == 0
    assert rep.failures == []
    assert rep.summary["per_identity"]["byun"]["trials"] == 18
    # okada skips nothing either: applicable at every listed (m, n)
    assert rep.summary["per_identity"]["okada"]["trials"] == 18
    assert rep.wall_time >= 0.0


def test_run_verify_respects_applicability():
    cfg = VerifyConfig(identities=("main2",), ms=(1, 2, 3), ns=(1, 2, 3), trials=1)
    rep = run_verify(cfg)
    # even m and m <= n only: (2,2) and (2,3)
    assert rep.summary["per_identity"]["main2"]["trials"] == 2


def test_run_verify_poly_mode_small():
    cfg = VerifyConfig(
        identities=("okada", "rank1"), ms=(2,), ns=(2, 3), trials=1, ring="poly"
    )
    rep = run_verify(cfg)
    assert rep.summary["failures"] == 0
    assert rep.summary["total_trials"] > 0


def test_symbolic_cliff_shapes_within_bound():
    # with Bareiss elimination on polynomial entries these two took about
    # 265 s and 28 s; the division-free kernel takes seconds
    t0 = time.perf_counter()
    for ident, m, n in (("ab", 4, 4), ("main1", 3, 4)):
        cfg = VerifyConfig(identities=(ident,), ms=(m,), ns=(n,), trials=1, ring="poly")
        assert run_verify(cfg).summary["failures"] == 0
    assert time.perf_counter() - t0 < 60.0


def test_run_verify_formats_and_keeps_only_failures(monkeypatch):
    class Value:
        pass

    class CountingRing:
        calls = 0

        def format(self, x):
            CountingRing.calls += 1
            return "v"

    ring = CountingRing()
    refs = []
    most_alive = 0

    def run(mode, rng, m, n, bound, trial):
        nonlocal most_alive
        most_alive = max(most_alive, sum(r() is not None for r in refs))
        lhs, rhs = Value(), Value()
        refs.extend((weakref.ref(lhs), weakref.ref(rhs)))
        report = IdentityReport(
            "okada", "0" * 16, lhs, rhs, passed=trial != 3, elapsed=0.0,
            ring=ring, values={"x": Value()},
        )
        return report, {}

    saved = _REGISTRY["okada"]
    monkeypatch.setitem(_REGISTRY, "okada", _RegistryEntry(run=run, applicable=saved.applicable))
    rep = run_verify(VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), trials=8))
    assert rep.summary["failures"] == 1
    # only the failure's lhs, rhs and one value were formatted
    assert CountingRing.calls == 3
    # while a trial runs, at most the previous trial's report is alive
    assert most_alive <= 2
    line = json.loads(rep.to_json_lines().splitlines()[0])
    assert (line["lhs"], line["rhs"], line["details"]) == ("v", "v", {"x": "v"})


def test_report_json_lines_shape():
    cfg = VerifyConfig(identities=("okada",), ms=(1,), ns=(2,), trials=2, seed=5)
    rep = run_verify(cfg)
    lines = rep.to_json_lines().splitlines()
    assert len(lines) == 1
    tail = json.loads(lines[-1])
    assert tail["config"]["seed"] == 5
    assert tail["summary"]["total_trials"] == 2


def test_failure_lines_carry_inputs(monkeypatch):
    saved = _REGISTRY["okada"]

    def failing_run(ring, rng, m, n, bound, trial):
        report = IdentityReport(
            identity_id="okada",
            input_digest="deadbeefdeadbeef",
            lhs="1",
            rhs="2",
            passed=False,
            elapsed=0.0,
            details={},
        )
        return report, {"A": {"stub": True}}

    monkeypatch.setitem(
        _REGISTRY, "okada", _RegistryEntry(run=failing_run, applicable=saved.applicable)
    )
    cfg = VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), trials=2)
    rep = run_verify(cfg)
    assert rep.summary["failures"] == 2
    line = json.loads(rep.to_json_lines().splitlines()[0])
    assert line["identity"] == "okada"
    assert line["inputs"] == {"A": {"stub": True}}
    assert line["lhs"] == "1" and line["rhs"] == "2"


# -- verify command ----------------------------------------------------------


def test_verify_command_stdout():
    runner = CliRunner()
    result = runner.invoke(
        main, ["verify", "--identity", "okada", "--m", "1..2", "--n", "1..3", "--trials", "2"]
    )
    assert result.exit_code == 0, result.output
    tail = json.loads(result.output.strip().splitlines()[-1])
    assert tail["summary"]["failures"] == 0


def test_verify_command_unknown_identity():
    runner = CliRunner()
    result = runner.invoke(main, ["verify", "--identity", "bogus"])
    assert result.exit_code == 1
    assert "unknown identity id 'bogus'" in result.output
    assert "okada" in result.output


def test_verify_command_bad_and_empty_ranges():
    runner = CliRunner()
    assert runner.invoke(main, ["verify", "--m", "x"]).exit_code == 2
    result = runner.invoke(main, ["verify", "--m", "4..1"])
    assert result.exit_code == 1
    assert "non-empty" in result.output


def test_verify_command_exit_1_on_failures(monkeypatch):
    saved = _REGISTRY["okada"]

    def failing_run(ring, rng, m, n, bound, trial):
        report = IdentityReport(
            identity_id="okada",
            input_digest="0" * 16,
            lhs="1",
            rhs="2",
            passed=False,
            elapsed=0.0,
            details={},
        )
        return report, {}

    monkeypatch.setitem(
        _REGISTRY, "okada", _RegistryEntry(run=failing_run, applicable=saved.applicable)
    )
    runner = CliRunner()
    result = runner.invoke(
        main, ["verify", "--identity", "okada", "--m", "1", "--n", "1", "--trials", "1"]
    )
    assert result.exit_code == 1
    first = json.loads(result.output.strip().splitlines()[0])
    assert first["identity"] == "okada"


def test_verify_out_file_byte_identical_across_runs_and_workers(tmp_path):
    runner = CliRunner()
    args = ["verify", "--identity", "okada,byun,rank1", "--m", "1..3", "--n", "1..3",
            "--trials", "2", "--seed", "9"]
    payloads = []
    for name, extra in (("a", []), ("b", []), ("c", ["--workers", "3"])):
        out = tmp_path / f"{name}.jsonl"
        result = runner.invoke(main, args + extra + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "failures" in result.output
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1] == payloads[2]


# -- eval command --------------------------------------------------------------


def test_eval_pf_det_minorsum(tmp_path):
    runner = CliRunner()
    skew = write_matrix(tmp_path / "skew.json", [[0, 1], [-1, 0]])
    assert runner.invoke(main, ["eval", "pf", skew]).output.strip() == "1"
    ident = write_matrix(tmp_path / "id3.json", [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert runner.invoke(main, ["eval", "det", ident]).output.strip() == "1"
    golden = write_matrix(tmp_path / "g.json", [[1, 1, 1], [1, 2, 3]])
    assert runner.invoke(main, ["eval", "minorsum", golden]).output.strip() == "4"


def test_eval_symbolic_pfaffian(tmp_path):
    runner = CliRunner()
    mat = tmp_path / "sym.json"
    mat.write_text(
        json.dumps(
            {
                "ring": {"poly": ["a"]},
                "rows": 2,
                "cols": 2,
                "entries": [["0", "a"], ["-a", "0"]],
            }
        )
    )
    result = runner.invoke(main, ["eval", "pf", str(mat)])
    assert result.exit_code == 0
    assert result.output.strip() == "a"


def test_eval_f_operation(tmp_path):
    runner = CliRunner()
    a = write_matrix(tmp_path / "a.json", [[1, 0], [0, 1]])
    b = write_matrix(tmp_path / "b.json", [[1, 0], [0, 1]])
    x = write_matrix(tmp_path / "x.json", [[0, 1], [0, 0]])
    result = runner.invoke(main, ["eval", "f", a, b, x])
    assert result.exit_code == 0
    assert result.output.strip() == "1"


def test_eval_arity_and_file_errors(tmp_path):
    runner = CliRunner()
    a = write_matrix(tmp_path / "a.json", [[1]])
    assert runner.invoke(main, ["eval", "f", a]).exit_code == 2
    assert runner.invoke(main, ["eval", "pf", str(tmp_path / "missing.json")]).exit_code == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    result = runner.invoke(main, ["eval", "pf", str(bad)])
    assert result.exit_code == 1
    assert "bad.json:1:" in result.output
    # pf of a non-skew matrix is a domain error, reported cleanly
    notskew = write_matrix(tmp_path / "ns.json", [[1, 2], [3, 4]])
    result = runner.invoke(main, ["eval", "pf", notskew])
    assert result.exit_code == 1
    assert "skew" in result.output


# -- paths command ---------------------------------------------------------------


def test_paths_command(tmp_path):
    starts = [[0, 0], [1, -1]]
    ends = [[1, 2], [2, 1], [3, 0], [3, -1]]
    problem = tmp_path / "problem.json"
    problem.write_text(json.dumps({"starts": starts, "ends": ends, "choose": 2}))
    runner = CliRunner()
    result = runner.invoke(main, ["paths", str(problem)])
    assert result.exit_code == 0, result.output
    payload = json.loads(result.output)
    expect = count_free_families(
        [tuple(s) for s in starts], [tuple(e) for e in ends]
    )
    assert payload["count"] == expect
    assert payload["routes"] == {"brute": expect, "okada": expect, "byun": expect}


def test_paths_command_prints_the_routes_that_ran(tmp_path):
    runner = CliRunner()
    readme = tmp_path / "readme.json"
    readme.write_text(
        json.dumps(
            {"starts": [[0, 0], [1, -1]], "ends": [[1, 2], [2, 1], [3, 0], [3, -1]], "choose": 2}
        )
    )
    result = runner.invoke(main, ["paths", str(readme)])
    assert result.exit_code == 0, result.output
    assert result.output == '{"count":27,"routes":{"brute":27,"byun":27,"okada":27}}\n'
    # beyond the enumeration guard the brute-force route is skipped, not fatal
    wide = tmp_path / "wide.json"
    wide.write_text(
        json.dumps(
            {"starts": [[0, 0], [1, -1], [2, -2]], "ends": [[6 + k, 6 - k] for k in range(8)]}
        )
    )
    result = runner.invoke(main, ["paths", str(wide)])
    assert result.exit_code == 0, result.output
    assert result.output == '{"count":546514904,"routes":{"byun":546514904,"okada":546514904}}\n'


def test_paths_command_rejects_non_staircase(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"starts": [[0, 0], [1, 1]], "ends": [[2, 2], [3, 1]]})
    )
    runner = CliRunner()
    result = runner.invoke(main, ["paths", str(problem)])
    assert result.exit_code == 1
    assert "staircase" in result.output.lower()


def test_paths_command_malformed_json(tmp_path):
    problem = tmp_path / "problem.json"
    problem.write_text("[1,")
    runner = CliRunner()
    result = runner.invoke(main, ["paths", str(problem)])
    assert result.exit_code == 1
    assert "problem.json:1:" in result.output


# -- schur command ----------------------------------------------------------------


def test_schur_command():
    runner = CliRunner()
    result = runner.invoke(main, ["schur", "--lam", "2,1", "--nvars", "2"])
    assert result.exit_code == 0
    assert result.output.strip() == "x1^2*x2 + x1*x2^2"
    result = runner.invoke(main, ["schur", "--lam", "1", "--mu", "1"])
    assert result.output.strip() == "1"
    # mu outside lam gives the zero polynomial
    result = runner.invoke(main, ["schur", "--lam", "1", "--mu", "2"])
    assert result.output.strip() == "0"


def test_schur_command_errors():
    runner = CliRunner()
    assert runner.invoke(main, ["schur", "--lam", "1,2"]).exit_code == 1
    assert runner.invoke(main, ["schur", "--lam", "2,x"]).exit_code == 2
    assert runner.invoke(main, ["schur", "--lam", "2", "--nvars", "0"]).exit_code == 2


def test_registry_covers_every_identity():
    assert tuple(_REGISTRY) == IDENTITY_IDS
