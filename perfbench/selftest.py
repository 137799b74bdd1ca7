"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

Checks that the tracer wraps every binding and notices a missed one, that
self time subtracts child spans, that tracing changes no CSV byte and counts
the same solver events as the solver reports, that BENCHMARK.json names the
metrics run.py prints, and that run.py refuses to report from a directory
without the library.  Exits 1 if any check fails.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402


def test_binding_check_sees_a_missed_wrapper():
    # in a child process: installing the tracer rebinds library functions
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]\n"
        "import tracer, roughsew.sewing as sw\n"
        "t = tracer.Tracer('selftest'); t.install()\n"
        "assert t.unwrapped_bindings() == [], t.unwrapped_bindings()\n"
        "sw.lq_table = t.originals[sw.lq_table]\n"
        "missed = t.unwrapped_bindings()\n"
        "assert 'roughsew.sewing.lq_table' in missed, missed\n"
        "assert 'roughsew.sewing.lq_table (required)' in missed, missed\n"
    )
    subprocess.run(
        [sys.executable, "-c", code, str(HERE), str(ROOT / "src")], check=True
    )


def test_self_time_subtracts_children():
    spans = [
        [0, "cli.main", 0, 100, -1, "r"],
        [1, "norms.lq_table", 10, 40, 0, "r"],
        [2, "grids.p_variation", 15, 25, 1, "r"],
        [3, "norms.lq_norm", 50, 60, 0, "r"],
    ]
    got = {k: round(v * 1e9) for k, v in tracer.self_times(spans).items()}
    assert got == {"cli": 60, "norms": 30, "grids": 10}, got


def _traced_checks(workload):
    buf = io.StringIO()
    with redirect_stdout(buf):
        run.main(["--workload", workload, "--seconds", "0", "--trace", "1"])
    record = json.loads(
        (ROOT / ".perfbench_out" / f"{workload}-seed{run.workloads.DEFAULT_SEED}-trace1.json")
        .read_text(encoding="utf-8")
    )
    return dict((name, ok) for name, ok in record["checks"]), json.loads(
        buf.getvalue().splitlines()[-1]
    )


def test_tracing_changes_no_output_and_counts_events():
    for workload in ("jump_rsde", "stability_sweep"):
        checks, result = _traced_checks(workload)
        assert checks["traced CSV bytes == untraced CSV bytes"], workload
        assert checks["tracer rsde.n_events == sum of solve diagnostics n_events"], workload
        assert checks["tracer wrapped every binding"], workload
        assert result["correct"], (workload, result)
        assert result["metrics"]["rsde.n_events"]["value"] > 0, workload


def test_benchmark_json_matches_run_py():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(run.workloads.CONFIGS)


def test_refuses_without_library():
    bare = ROOT / ".perfbench_tmp" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "jump_rsde", "--seconds", "1"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
        assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    tests = [v for k, v in sorted(globals().items()) if k.startswith("test_")]
    failed = 0
    for test in tests:
        try:
            test()
        except Exception as exc:  # report every test, then fail the run
            failed += 1
            print(f"[FAIL] {test.__name__}: {type(exc).__name__}: {exc}")
        else:
            print(f"[PASS] {test.__name__}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
