"""End-to-end checks of the command line: exit codes, CSV/manifest contract,
byte-for-byte reproducibility."""
import json

import pytest

from roughsew import __version__
from roughsew import cli
from roughsew.cli import SUITES, main
from roughsew.scenarios import ROW_FIELDS, SCENARIOS, SCHEMA_VERSION


def _write_config(tmp_path, name="cfg.json", **body):
    path = tmp_path / name
    path.write_text(json.dumps(body), encoding="utf-8")
    return str(path)


def _cheap_config(tmp_path, **extra):
    body = {"scenario": "chen_check", "n": 64, "ensemble": 8, "seed": 5}
    body.update(extra)
    return _write_config(tmp_path, **body)


def test_run_writes_csv_and_manifest(tmp_path, capsys):
    cfg = _cheap_config(tmp_path)
    out = tmp_path / "results"
    assert main(["run", cfg, "--out", str(out)]) == 0
    assert "chen_check" in capsys.readouterr().out

    lines = (out / "chen_check.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(ROW_FIELDS)
    assert len(lines) >= 2

    manifest = json.loads((out / "chen_check_manifest.json").read_text(encoding="utf-8"))
    assert manifest["schema_version"] == SCHEMA_VERSION
    assert manifest["library_version"] == __version__
    assert manifest["rows_written"] == len(lines) - 1
    assert manifest["output"] == "chen_check.csv"
    assert manifest["config"]["scenario"] == "chen_check"
    assert manifest["config"]["n"] == 64
    assert manifest["config"]["ensemble"] == 8
    assert manifest["config"]["seed"] == 5
    # the timestamp is the only thing allowed to differ between reruns
    assert "created_utc" in manifest


def test_run_csv_is_byte_deterministic_and_lf_only(tmp_path):
    cfg = _cheap_config(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b")])
    raw_a = (tmp_path / "a" / "chen_check.csv").read_bytes()
    raw_b = (tmp_path / "b" / "chen_check.csv").read_bytes()
    assert raw_a == raw_b
    assert b"\r" not in raw_a

    man_a = json.loads((tmp_path / "a" / "chen_check_manifest.json").read_text())
    man_b = json.loads((tmp_path / "b" / "chen_check_manifest.json").read_text())
    man_a.pop("created_utc")
    man_b.pop("created_utc")
    assert man_a == man_b


def test_run_seed_override_changes_output(tmp_path):
    cfg = _cheap_config(tmp_path)
    main(["run", cfg, "--out", str(tmp_path / "a")])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--seed", "77"])
    assert (tmp_path / "a" / "chen_check.csv").read_bytes() != (
        tmp_path / "b" / "chen_check.csv"
    ).read_bytes()
    man = json.loads((tmp_path / "b" / "chen_check_manifest.json").read_text())
    assert man["config"]["seed"] == 77


def test_run_threads_do_not_change_bytes(tmp_path):
    cfg = _write_config(
        tmp_path, scenario="ito_bdb", n=16, levels=3, ensemble=32, seed=9
    )
    main(["run", cfg, "--out", str(tmp_path / "a"), "--threads", "1"])
    main(["run", cfg, "--out", str(tmp_path / "b"), "--threads", "3"])
    assert (tmp_path / "a" / "ito_bdb.csv").read_bytes() == (
        tmp_path / "b" / "ito_bdb.csv"
    ).read_bytes()


def test_run_uses_config_out_dir_when_no_flag(tmp_path):
    dest = tmp_path / "fromcfg"
    cfg = _cheap_config(tmp_path, out_dir=str(dest))
    assert main(["run", cfg]) == 0
    assert (dest / "chen_check.csv").exists()


@pytest.mark.parametrize(
    "body",
    [
        {"n": 64},  # no scenario key
        {"scenario": "not_a_scenario"},
        {"scenario": "chen_check", "bogus_key": 1},
        {"scenario": "chen_check", "params": "not-an-object"},
        {"scenario": "chen_check", "n": "64"},
        {"scenario": "chen_check", "n": 64.5},
        {"scenario": "chen_check", "seed": -1},
        {"scenario": "chen_check", "p": 0.5},
        {"scenario": "chen_check", "levels": True},
        {"scenario": "chen_check", "ensemble": True},
        {"scenario": "chen_check", "q": 0.5},
        {"scenario": "chen_check", "q": "x"},
    ],
)
def test_run_rejects_bad_configs(tmp_path, capsys, body):
    cfg = _write_config(tmp_path, **body)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    # one line, no traceback
    assert err.startswith("roughsew run: bad config:") and err.count("\n") == 1


def test_verify_rejects_negative_seed(capsys):
    assert main(["verify", "chen", "--seed", "-1"]) == 1
    err = capsys.readouterr().err
    assert err.strip() == "roughsew verify: bad config: seed must be >= 0, got -1"


def test_run_rejects_malformed_json_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{scenario:", encoding="utf-8")
    assert main(["run", str(bad)]) == 1
    assert main(["run", str(tmp_path / "nope.json")]) == 1
    err = capsys.readouterr().err
    assert err.count("roughsew run: bad config:") == 2


def test_verify_suite_passes_and_prints_checks(capsys):
    assert main(["verify", "chen"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] chen:" in out
    assert out.strip().endswith("chen: all checks passed")


def test_verify_failure_exits_2(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "chen", ("chen_check", lambda rows: [("forced", False, "x")])
    )
    monkeypatch.setattr(cli, "run_scenario", lambda cfg, threads=1: [])
    assert main(["verify", "chen"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] chen: forced" in out
    assert "chen: FAILED" in out


def test_list_names_every_scenario_and_suite(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    for name in SUITES:
        assert name in out


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["verify", "unknown_suite"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"roughsew {__version__}"
