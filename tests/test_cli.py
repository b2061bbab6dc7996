import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import weakref

import click
import pytest
from click.testing import CliRunner

import minorsum
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
from minorsum.identities import input_digest


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
    # a value of the wrong type is named, not a bare TypeError or a run
    for field, value in (("trials", 2.5), ("ms", (1.5,)), ("seed", "x"), ("ms", (True,)),
                         ("ns", (2, "3")), ("bound", True), ("trials", None)):
        fields = {"identities": ("okada",), "ms": (1,), "ns": (1,), field: value}
        with pytest.raises(ConfigError, match="must be an integer"):
            VerifyConfig(**fields)


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
        return IdentityReport(
            "okada", {}, lhs, rhs, passed=trial != 3,
            ring=ring, values={"x": Value()},
        )

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
        return IdentityReport(
            identity_id="okada",
            inputs={"A": {"stub": True}},
            lhs="1",
            rhs="2",
            passed=False,
            details={},
        )

    monkeypatch.setitem(
        _REGISTRY, "okada", _RegistryEntry(run=failing_run, applicable=saved.applicable)
    )
    cfg = VerifyConfig(identities=("okada",), ms=(1,), ns=(1,), trials=2)
    rep = run_verify(cfg)
    assert rep.summary["failures"] == 2
    line = json.loads(rep.to_json_lines().splitlines()[0])
    assert line["identity"] == "okada"
    assert line["inputs"] == {"A": {"stub": True}}
    # the digest is the sha256 prefix of exactly the embedded inputs
    assert line["input_digest"] == input_digest(line["inputs"])
    assert line["lhs"] == "1" and line["rhs"] == "2"


# -- generated inputs ----------------------------------------------------------

# sha256 of json.dumps([[inputs, input_digest, report], ...], sort_keys=True)
# over every applicable (m, n) of m in 1..3, n in 2..4 at seed 3 (trials 0..4
# on integers, so rank1's equal-vector trial is included; one generic trial).
# Formatting and input digests depend on the variable order, so a change to
# the input builders that reorders variables breaks these.
GOLDEN_INPUTS = {
    ("int", "okada"): "3b02be6f9eeb6c51cf4745e281b384b5de28bd1ba1f9869b99cc9b658c11a694",
    ("int", "byun"): "05e1ec93601da95c7cbca334dd868e5e2678cd8ed9983bc23ec1aa7e0925499a",
    ("int", "main1"): "02bfb3f3e37eac3a35ff0726394772a86545028f6fb20587049b15acf245f76d",
    ("int", "main2"): "65d45ef468fd430229abd4f03b8e1c91dc316dd15ea1816193508c8989c1530b",
    ("int", "rank1"): "a95ae35b654c83733a2a0f4c0bd2228c8a5535cb2289cbd8bb527615f5b2a8e1",
    ("int", "lemma-aux"): "0f533e351fd0ea55927095fb2083133f81cf2a84e8141b2be17e8161429a893c",
    ("int", "iswa"): "e17b081655b29d8e4b90968ead3764ad85fc10f2f08ceba2fc07e167e87adb3f",
    ("int", "lemma-iswa"): "b1d3b714cedfd9a49db357cdbdcb7757af11e05349880ea90945095b3112089a",
    ("int", "ab"): "f33f23ffba435c04c1e2bb1c5c9490b1310f4bf8df83a50b38c182513df74cb8",
    ("int", "ab2"): "74101bc7ef1042204cb022aea5b61f633f11bda8b9be230b9d8f5f858daf58dc",
    ("int", "cor7"): "22b7c54bbd9468d1fa738bc160ae197da919b5bb87d13e8af2ca21331984ffd8",
    ("int", "closed-forms"): "ba1630eb3e8c1d6d95aec718917f58e5a004942ccf4a331726ebc72aa5372a00",
    ("int", "det-pf-square"): "b5a7fa4667f1b288af857b72f6c37d4d4498fa981193e70cec816cf0f7ecd171",
    ("int", "cauchy-binet-pf"): "c6abc5e114c4fc02ec1beea0c1bafe1e3bc6d6a2962d06a695295ae496ff8a00",
    ("poly", "okada"): "44b8e0930711630d3ed905fa7bfb9d471dec8c5a23cc2ab97a5597342ac354a7",
    ("poly", "byun"): "dc310ab5b1be22f6cb8220ae47cdff180d4eeb7082767e5b1bfe2f2dcb8102c3",
    ("poly", "main1"): "be94e88c68acf622991e124e00cb21e94a8ae46752f9122d4f19f832bab03349",
    ("poly", "main2"): "d08235658f9a0d7cf5769492f3b51a2442890635fe5bc76f6e6f4f108d4b6403",
    ("poly", "rank1"): "5e0ed383a221a54a11fdef252423b18adb7adedfca065be91ac2af5e123a3a7b",
    ("poly", "lemma-aux"): "7733ba9377bbe337c495a60d928633c299bbf6bdb7a7aa0651ba12e93a1071f3",
    ("poly", "iswa"): "45503f82ae41ef07174acd541692a73cbcbbea417c6646dd705bc9d7889c482d",
    ("poly", "lemma-iswa"): "30b2eaf9f2fd25d160e4edcb1f1b39d2713130226e6e8d93ff785dfad6ca01cd",
    ("poly", "ab"): "238faeca721c30aa205bc364fdb44e1e105e5cdd1a4076b850166fca74e8d877",
    ("poly", "ab2"): "70aa99f04c9f6cedacce80d12ec676115ceea6f5ce44a94b0f72db9247c89416",
    ("poly", "cor7"): "ee9f31d28d1b3d8246b2cbeeaa5e5cb1d33d0280d61bb1694bebe9be7f6815a4",
    ("poly", "closed-forms"): "9da39c4ed03110592d55839081c3c3790bd2bc3603d6619a33d9d0355a4787a0",
    ("poly", "det-pf-square"): "ad9c282d5f550ddc1af1f3d024b08a1d3ec6984a3af1797f202f47b2c1336e28",
    ("poly", "cauchy-binet-pf"): "39ccadef4f60ce663c38eedb48ae8c9c6c3c408229182fba8d1c3bffcc5b3b6e",
}


@pytest.mark.parametrize("ring,ident", sorted(GOLDEN_INPUTS))
def test_generated_inputs_match_golden(ring, ident):
    cfg = VerifyConfig(identities=(ident,), ms=(1, 2, 3), ns=(2, 3, 4), ring=ring)
    entry = _REGISTRY[ident]
    cases = []
    for m in cfg.ms:
        for n in cfg.ns:
            if not entry.applicable(m, n, cfg):
                continue
            for trial in range(5 if ring == "int" else 1):
                rng = _trial_rng(3, ident, m, n, trial)
                report = entry.run(ring, rng, m, n, cfg.bound, trial)
                cases.append([report.inputs, report.input_digest, report.to_json_dict()])
    blob = json.dumps(cases, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_INPUTS[ring, ident]


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
    # a repeated identity or grid value would rerun the same seeded trials
    for args, message in (
        (["--identity", "byun", "--m", "1,1", "--n", "2"], "m 1 is given more than once"),
        (["--identity", "byun", "--m", "1", "--n", "2..3,3"], "n 3 is given more than once"),
        (["--identity", "okada,okada"], "identity 'okada' is given more than once"),
        (["--identity", "all", "--m", "1..2,2..3"], "m 2 is given more than once"),
    ):
        result = runner.invoke(main, ["verify", *args, "--trials", "3"])
        assert result.exit_code == 1
        assert message in result.output


def test_verify_command_exit_1_on_failures(monkeypatch):
    saved = _REGISTRY["okada"]

    def failing_run(ring, rng, m, n, bound, trial):
        return IdentityReport(
            identity_id="okada",
            inputs={},
            lhs="1",
            rhs="2",
            passed=False,
            details={},
        )

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


def test_verify_out_file_byte_identical_across_runs(tmp_path):
    runner = CliRunner()
    args = ["verify", "--identity", "okada,byun,rank1", "--m", "1..3", "--n", "1..3",
            "--trials", "2", "--seed", "9"]
    payloads = []
    for name in ("a", "b"):
        out = tmp_path / f"{name}.jsonl"
        result = runner.invoke(main, args + ["--out", str(out)])
        assert result.exit_code == 0, result.output
        assert "failures" in result.output
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


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


def test_eval_rejects_a_huge_exponent_on_a_constant(tmp_path):
    mat = tmp_path / "big.json"
    mat.write_text(
        json.dumps(
            {"ring": {"poly": ["a"]}, "rows": 1, "cols": 1, "entries": [["2^4000000000"]]}
        )
    )
    result = CliRunner().invoke(main, ["eval", "det", str(mat)])
    assert result.exit_code == 1
    assert "exponent 4000000000 exceeds the limit" in result.output
    assert "Traceback" not in result.output


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


@pytest.mark.parametrize("command", [["eval", "det"], ["paths"]], ids=["eval", "paths"])
def test_unreadable_json_files_fail_cleanly(tmp_path, command):
    # text that is not UTF-8 (here a UTF-16 byte-order mark) and text that
    # is not JSON both name the file and exit 1, with no traceback
    runner = CliRunner()
    utf16 = tmp_path / "utf16.json"
    utf16.write_bytes(b"\xff\xfe" + '{"ring": "int"}'.encode("utf-16-le"))
    result = runner.invoke(main, [*command, str(utf16)])
    assert result.exit_code == 1
    assert f"{utf16}: not UTF-8 text at byte 0" in result.output
    assert "Traceback" not in result.output
    bad = tmp_path / "bad.json"
    bad.write_text('{"rows": 1,\n  oops}')
    result = runner.invoke(main, [*command, str(bad)])
    assert result.exit_code == 1
    assert f"{bad}:2:3: " in result.output


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


def test_paths_command_steps_with_no_monotone_coordinate(tmp_path):
    # neither coordinate is monotone along walks of (1,0) and (-2,1), yet
    # (1,3) . step = 1 for both steps, so every walk ends: three (1,0)
    # steps and one (-2,1) step reach (1,1) in four orders
    problem = tmp_path / "problem.json"
    problem.write_text(
        json.dumps({"starts": [[0, 0]], "ends": [[1, 1]], "steps": [[1, 0], [-2, 1]]})
    )
    result = CliRunner().invoke(main, ["paths", str(problem)])
    assert result.exit_code == 0, result.output
    assert json.loads(result.output) == {
        "count": 4, "routes": {"brute": 4, "byun": 4, "okada": 4}
    }


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


@pytest.mark.parametrize(
    "command,text,message",
    [
        pytest.param("paths", "[[0, 0]]", "expected a JSON object", id="paths-array"),
        pytest.param("paths", '{"starts": [5], "ends": [[1, 1]]}',
                     "not a lattice point: 5", id="paths-point-not-a-pair"),
        pytest.param("paths", '{"starts": 5, "ends": [[1, 1]]}',
                     "not a list of lattice points", id="paths-starts-not-a-list"),
        pytest.param("paths", '{"starts": [[0, 0]], "ends": [[1, 1]], "steps": [[1, 0], [-1, 0]]}',
                     "steps must all lie in one open half-plane", id="paths-steps-never-end"),
        pytest.param("paths", '{"starts": [[0, 0], [1, -1]], "ends": [[2, 2], [3, 1]], '
                     '"steps": [[1, 0], [0, 1], [2, 1]]}',
                     "can cross between lattice points", id="paths-steps-cross"),
        pytest.param("paths", '{"starts": [[0, 0]], "ends": [[1, 1]], "choose": true}',
                     "choose must be an integer, got True", id="paths-choose-bool"),
        pytest.param("paths", '{"starts": [[0, 0]], "ends": [[1, 1]], "choose": 1.0}',
                     "choose must be an integer, got 1.0", id="paths-choose-float"),
        pytest.param("eval", '{"ring": "int", "rows": 1, "cols": 1, "entries": 5}',
                     "bad matrix JSON", id="eval-entries-not-a-list"),
        pytest.param("eval", '{"ring": "int", "rows": 1, "cols": 1, "entries": [5]}',
                     "bad matrix JSON", id="eval-row-not-a-list"),
        pytest.param("eval", '{"ring": {"poly": ["a", "a"]}, "rows": 1, "cols": 1, '
                     '"entries": [["a"]]}', "duplicate variable names", id="eval-ring-tag"),
        pytest.param("eval", '{"ring": {"poly": ["x"]}, "rows": 1, "cols": 1, "entries": [["'
                     + "(" * 400 + "x" + ")" * 400 + '"]]}', "nested too deeply",
                     id="eval-nested-too-deeply"),
    ],
)
def test_malformed_but_valid_json_fails_cleanly(tmp_path, command, text, message):
    path = tmp_path / "input.json"
    path.write_text(text)
    args = ["paths", str(path)] if command == "paths" else ["eval", "det", str(path)]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # a clean exit, not a traceback
    assert message in result.output


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


def test_module_run_without_runtime_warning():
    # the package must not import minorsum.cli before `-m` runs it
    src = os.path.dirname(os.path.dirname(minorsum.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    result = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "minorsum.cli",
         "schur", "--lam", "2,1", "--nvars", "2"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "x1^2*x2 + x1*x2^2"


def test_in_process_run_keeps_no_redirected_stdout():
    out = io.StringIO()
    alive = weakref.ref(out)
    with contextlib.redirect_stdout(out):
        main.main(args=["schur", "--lam", "2,1", "--nvars", "2"],
                  prog_name="minorsum", standalone_mode=False)
    assert out.getvalue() == "x1^2*x2 + x1*x2^2\n"
    del out
    gc.collect()
    assert alive() is None


def test_schur_command_errors():
    runner = CliRunner()
    assert runner.invoke(main, ["schur", "--lam", "1,2"]).exit_code == 1
    assert runner.invoke(main, ["schur", "--lam", "2,x"]).exit_code == 2
    assert runner.invoke(main, ["schur", "--lam", "2", "--nvars", "0"]).exit_code == 2


def test_registry_covers_every_identity():
    assert tuple(_REGISTRY) == IDENTITY_IDS


@pytest.mark.parametrize("ident,m,n", [("det-pf-square", 12, 12), ("okada", 16, 18)])
def test_large_pfaffian_sides_take_no_factorial_kernel(ident, m, n):
    # through the matching sum and the cofactor determinant these single
    # trials took 17 s (okada) and over 100 s (det-pf-square)
    start = time.perf_counter()
    report = run_verify(VerifyConfig(identities=(ident,), ms=(m,), ns=(n,), trials=1))
    assert report.summary == {
        "total_trials": 1, "failures": 0,
        "per_identity": {ident: {"trials": 1, "failed": 0}},
    }
    assert time.perf_counter() - start < 10


def test_a_passing_verify_run_computes_no_digest(monkeypatch):
    import minorsum.identities as identities
    from minorsum.ring import IntegerRing, PolynomialRing

    calls = []
    real = identities.input_digest

    def counted(payload):
        calls.append(payload)
        return real(payload)

    monkeypatch.setattr(identities, "input_digest", counted)
    formatted = []
    for cls in (IntegerRing, PolynomialRing):
        def counted_format(self, x, real=cls.format):
            formatted.append(x)
            return real(self, x)

        monkeypatch.setattr(cls, "format", counted_format)
    for ring, ms in (("int", (1, 2, 3, 4)), ("poly", (1, 2, 3))):
        report = run_verify(VerifyConfig(identities=IDENTITY_IDS, ms=ms, ns=(2, 3, 4),
                                         trials=2, ring=ring))
        assert report.summary["failures"] == 0
        assert set(report.summary["per_identity"]) == set(IDENTITY_IDS)
    assert minorsum.check_cauchy(2, 2, 1, 1).passed
    # nor does it build its inputs' JSON or format a value
    assert calls == [] and formatted == []
    # a report hashes its inputs once, when its digest is first read
    rep = minorsum.check_okada(minorsum.Matrix(minorsum.ZZ, [[1, 1, 1], [1, 2, 3]]))
    digest = rep.input_digest
    assert rep.input_digest == digest and len(calls) == 1
