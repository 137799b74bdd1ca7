"""End-to-end checks of the command line: exit codes, CSV/manifest contract,
byte-for-byte reproducibility."""
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

import roughsew
from roughsew import __version__
from roughsew import cli
from roughsew.cli import SUITES, main
from roughsew.scenarios import ROW_FIELDS, SCENARIOS, SCHEMA_VERSION, ExperimentConfig


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
    assert set(manifest["config"]) == {f.name for f in fields(ExperimentConfig)} - {"out_dir"}
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
        {"scenario": ["chen_check"]},
        {"scenario": {"name": "chen_check"}},
        # read only without --out, which the run below leaves off for it
        {"scenario": "chen_check", "out_dir": 5},
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
        # passes validation, but its finest grid alone would need 256 TiB
        {"scenario": "brownian_milstein", "n": 64, "levels": 40, "ensemble": 4},
        # scenario params that count something: integers >= 1
        {"scenario": "sewing_rate", "params": {"depth": "x"}},
        {"scenario": "sewing_rate", "params": {"depth": 0}},
        {"scenario": "sewing_rate", "params": {"depth": 2.5}},
        {"scenario": "sewing_rate", "params": {"partitions": -3}},
        {"scenario": "sewing_rate", "params": {"partitions": True}},
        {"scenario": "chen_check", "params": {"triples": 0}},
        {"scenario": "chen_check", "params": {"triples": "10"}},
        # stability_base's perturbation sizes: a non-empty list of finite numbers > 0
        {"scenario": "stability_base", "params": {"eps": 0.1}},
        {"scenario": "stability_base", "params": {"eps": "x"}},
        {"scenario": "stability_base", "params": {"eps": []}},
        {"scenario": "stability_base", "params": {"eps": [0.0]}},
        {"scenario": "stability_base", "params": {"eps": [float("nan")]}},
        # both build tables over all n + 1 grid points, which stop at MAX_TABLE_POINTS
        {"scenario": "sewing_rate", "n": 5000},
        {"scenario": "stability_base", "n": 2100},
        # a params key the scenario does not read: a typo, and a real key elsewhere
        {"scenario": "sewing_rate", "params": {"dpeth": 8}},
        {"scenario": "em_reduction", "params": {"depth": 8}},
        # sizes whose arrays numpy cannot describe, refused before any draw
        {"scenario": "ito_bdb", "n": 64, "levels": 70, "ensemble": 4},
        {"scenario": "ito_bdb", "ensemble": 2**62},
        {"scenario": "em_reduction", "n": 2**62},
        {"scenario": "jump_mix", "ensemble": 2**62},
        {"scenario": "chen_check", "params": {"triples": 2**62}},
    ],
)
def test_run_rejects_bad_configs(tmp_path, monkeypatch, capsys, body):
    cfg = _write_config(tmp_path, **body)
    monkeypatch.chdir(tmp_path)  # where a run without --out would write
    out = [] if "out_dir" in body else ["--out", str(tmp_path / "out")]
    assert main(["run", cfg, *out]) == 1
    err = capsys.readouterr().err
    # one line, no traceback
    assert err.startswith("roughsew run: bad config:") and err.count("\n") == 1
    assert not list(tmp_path.rglob("*.csv"))


def test_size_guard_counts_only_the_members_and_levels_a_scenario_reads():
    # chen_check draws at most 64 members and em_reduction does not refine
    assert ExperimentConfig(scenario="chen_check", ensemble=2**62).ensemble == 2**62
    assert ExperimentConfig(scenario="em_reduction", levels=200).levels == 200
    with pytest.raises(ValueError, match="^ito_bdb at n=64, levels=200, ensemble=4 needs arrays"):
        ExperimentConfig(scenario="ito_bdb", n=64, levels=200, ensemble=4)


def test_table_scenarios_accept_the_largest_table_grid():
    assert ExperimentConfig(scenario="sewing_rate", n=2047).n == 2047
    assert ExperimentConfig(scenario="stability_base", n=2047).n == 2047


@pytest.mark.parametrize("pq", [{"p": 1.5}, {"q": 1.5}, {"p": 1.0, "q": 1.0}])
def test_run_refuses_stability_base_below_p_and_q_of_two(tmp_path, capsys, pq):
    # its bracket and second level are V^(p/2) L^(q/2) seminorms
    cfg = _write_config(tmp_path, scenario="stability_base", n=16, ensemble=4, **pq)
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert err.startswith("roughsew run: bad config: stability_base measures V^(p/2) L^(q/2)")
    assert "p/2 and q/2 must be >= 1" in err
    assert not list(tmp_path.rglob("*.csv"))


def test_run_refuses_a_negative_partition_count(tmp_path, capsys):
    # no partitions would write partition_spread[rough] = 0, a pass that tests nothing
    cfg = _write_config(tmp_path, scenario="sewing_rate", n=16, ensemble=4,
                        params={"partitions": -3})
    assert main(["run", cfg, "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err == "roughsew run: bad config: params.partitions must be >= 1, got -3\n"
    assert not list(tmp_path.rglob("*.csv"))


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
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: [])
    assert main(["verify", "chen"]) == 2
    out = capsys.readouterr().out
    assert "[FAIL] chen: forced" in out
    assert "chen: FAILED" in out


# one passing set of gated rows per suite, (metric, value[, std_error])
_PASSING_ROWS = {
    "chen": [("chen_max_residual", 0.0)],
    "jump_structure": [("jump_residual", 0.0)],
    "ito_formula": [
        ("slope[brownian_square]", -0.5), ("slope[smooth_tanh]", -1.0),
        ("max_residual[pure_jump]", 0.0),
    ],
    "sewing_rate": [
        ("refine_slope[ito]", -0.5), ("refine_slope[qv]", -0.5),
        ("additive_max_distance", 0.0), ("partition_spread[rough]", 0.0),
    ],
    "stability": [
        row for key in ("y0", "martingale", "lift")
        for row in ((f"stability_ratio[{key}]", 1.2), (f"stability_ratio[{key}]", 1.5),
                    (f"ratio_spread[{key}]", 1.25))
    ] + [("solve_picard_gap", 1e-9)],
    "brackets": [
        ("bracket_gap[brownian]", 0.01, 0.02), ("rough_bracket_max[linear]", 0.0),
        ("rough_bracket_max[sine_cosine]", 0.0), ("pure_jump_bracket_residual", 0.0),
        ("mixed_bracket_slope", -0.5),
    ],
    "jumps": [
        ("flow_restart_gap", 0.0), ("solution_jump_residual", 0.0), ("solve_picard_gap", 1e-9),
    ],
}


def _rows(spec):
    return [
        {"metric": r[0], "value": r[1], "std_error": r[2] if len(r) > 2 else 0.0} for r in spec
    ]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_a_nan_in_any_gated_row_fails_its_suite(suite, monkeypatch, capsys):
    assert sorted(_PASSING_ROWS) == sorted(SUITES)
    checker = SUITES[suite][1]
    spec = _PASSING_ROWS[suite]
    assert all(ok for _, ok, _ in checker(_rows(spec)))
    # every gated value in turn, and the standard error the bracket gap is
    # measured in
    nan_cases = [(k, "value") for k in range(len(spec))]
    nan_cases += [(k, "std_error") for k, r in enumerate(spec) if len(r) > 2]
    assert len(nan_cases) == len(spec) + (suite == "brackets")
    for k, field in nan_cases:
        rows = _rows(spec)
        rows[k][field] = float("nan")
        assert not all(ok for _, ok, _ in checker(rows)), (rows[k]["metric"], field)
        monkeypatch.setattr(cli, "run_scenario", lambda cfg, rows=rows: rows)
        assert main(["verify", suite]) == 2
        assert f"{suite}: FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("gap", [2e-6, float("nan")])
def test_stability_suite_gates_the_solve_picard_gap(gap):
    rows = _rows(_PASSING_ROWS["stability"])
    rows[-1]["value"] = gap
    failed = [label for label, ok, _ in cli._check_stability(rows) if not ok]
    assert failed == ["solve vs Picard gap <= 1e-6"]


def test_list_names_every_scenario_and_suite(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in SCENARIOS:
        assert name in out
    for name in SUITES:
        assert name in out


def _run_module(*args):
    """`python -m roughsew.cli *args` in a fresh interpreter, whose stderr
    holds all the process writes there, warnings included."""
    src = str(Path(roughsew.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "roughsew.cli", *args],
        capture_output=True, text=True, env=env, timeout=120,
    )


def test_module_invocation_runs_main():
    # `python -m roughsew.cli` must reach main(), not import and exit 0
    done = _run_module("list")
    assert done.returncode == 0
    assert "sewing_rate" in done.stdout


def test_module_stderr_holds_only_the_refusal(tmp_path):
    # pytest records warnings that an in-process run would print, so only a
    # fresh process shows a line written before the refusal
    bad = _write_config(
        tmp_path, "bad.json", scenario="brownian_milstein", n=64, levels=40, ensemble=4
    )
    done = _run_module("run", bad, "--out", str(tmp_path / "bad"))
    assert done.returncode == 1
    assert done.stderr.startswith("roughsew run: bad config:") and done.stderr.count("\n") == 1
    good = _write_config(tmp_path, "good.json", scenario="smooth_exponential")
    done = _run_module("run", good, "--out", str(tmp_path / "good"))
    assert done.returncode == 0 and done.stderr == ""


def test_usage_errors_exit_1(capsys):
    assert main([]) == 1
    assert main(["run"]) == 1
    assert main(["verify", "unknown_suite"]) == 1
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert capsys.readouterr().out.strip() == f"roughsew {__version__}"
