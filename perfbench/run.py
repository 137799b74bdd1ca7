"""roughsew benchmark: scenario workloads through `roughsew run`, one fresh
worker process per run, one run at a time (a closed loop with one client).

    python3 perfbench/run.py --workload sewing_verify [--seed 7] [--seconds 30] [--trace 0]

--trace 0 times untraced runs for --seconds and reports the end-to-end
metrics as medians over the runs, times scaled to a reference machine speed
(see end_to_end).  --trace 1 adds one traced run and reports
the per-layer metrics.  Every run's CSV is checked.  The last line of stdout
is one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it are a readable table and the environment.  A full record (samples,
checks, environment, trace sidecar) goes to .perfbench_out/ in the checkout.
Run from anywhere; everything is resolved relative to this file's parent.
"""
from __future__ import annotations

import argparse
import compileall
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

RUN_TIMEOUT_S = 150.0      # hard limit for the whole invocation's runs
# reported times are scaled to a machine on which a fresh interpreter starts
# and imports numpy in this many seconds (see end_to_end)
REF_NUMPY_S = 0.1
THREAD_CAP_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("run_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

PER_LAYER = tuple(
    [(f"{layer}.self_s", "s") for layer in tracer.LAYERS]
    + [
        ("norms.calls", "count"), ("norms.table_cells", "count"),
        ("norms.cells_per_s", "1/s"), ("grids.pvar_calls", "count"),
        ("sewing.germ_evals", "count"), ("paths.lift_bytes", "B"),
        ("paths.maxrss_gain_mb", "MB"), ("paths.second_calls", "count"),
        ("paths.grid_steps", "count"), ("paths.grid_steps_N64", "count"),
        ("rsde.n_events", "count"), ("rsde.n_events_N64", "count"),
        ("rsde.member_events_scaling_exp", "1"), ("rsde.schedule_s", "s"),
        ("rsde.solve_s", "s"), ("rsde.member_events_per_s", "1/s"),
        ("rsde.picard_s", "s"), ("rsde.picard_windows", "count"),
        ("rsde.picard_iterations", "count"), ("rsde.controls_per_window", "ratio"),
        ("rsde.diverged", "count"), ("rsde.picard_unconverged", "count"),
        ("trace.overhead_frac", "ratio"),
    ]
)


def _nproc() -> int:
    return len(os.sched_getaffinity(0))


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # numpy < 1.26 has no dict mode
        blas = f"unknown ({type(exc).__name__})"
    return {
        "nproc": _nproc(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_caps": {k: str(_nproc()) for k in THREAD_CAP_VARS},
        "machine": platform.machine(),
    }


class Bench:
    """Spawns workers inside the checkout and collects their results."""

    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.tmp = ROOT / ".perfbench_tmp" / str(os.getpid())
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.env.update({k: str(_nproc()) for k in THREAD_CAP_VARS})
        self.t0 = time.monotonic()
        self.n_spawned = 0
        self.checks: list[tuple[str, bool]] = []
        self.first_csv: dict[str, bytes] = {}

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)

    def _spawn(self, *extra) -> dict | None:
        self.n_spawned += 1
        result = self.tmp / f"result{self.n_spawned}.json"
        budget = RUN_TIMEOUT_S - (time.monotonic() - self.t0)
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), str(result), repr(spawn_t), *extra],
            cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        try:
            _, err = proc.communicate(timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            print(f"worker timed out after {budget:.0f} s", file=sys.stderr)
            return None
        finally:  # also on SIGTERM / Ctrl-C: no worker outlives the benchmark
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0 or not result.exists():
            sys.stderr.write(err.decode("utf-8", "replace")[-2000:])
            return None
        return json.loads(result.read_text(encoding="utf-8"))

    def setup_sample(self) -> dict | None:
        """An import-only worker's result: setup_s, numpy_s, peak_rss_mb."""
        return self._spawn()

    def run(self, cfg: dict, traced: bool = False) -> dict | None:
        """One CLI run of `cfg`; its checks are appended to self.checks."""
        i = self.n_spawned + 1
        cfg_path = self.tmp / f"config{i}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        out = self.tmp / f"out{i}"
        extra = [str(cfg_path), str(out)]
        if traced:
            extra.append(str(self.tmp / f"trace{i}.json"))
        got = self._spawn(*extra)
        csv_path = out / f"{cfg['scenario']}.csv"
        ok = got is not None and got.get("exit_code") == 0 and csv_path.exists()
        self.checks.append(("run exits 0 and writes its CSV", ok))
        if not ok:
            return None
        raw = csv_path.read_bytes()
        self.checks += workloads.check_csv(self.workload, raw)
        key = json.dumps(cfg, sort_keys=True)
        first = self.first_csv.setdefault(key, raw)
        self.checks.append(("same CSV bytes as the first run of this config", raw == first))
        got["csv"] = raw
        if traced:
            got["trace"] = json.loads(Path(extra[2]).read_text(encoding="utf-8"))
        return got


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _untraced_loop(bench: Bench, cfgs: list[dict], seconds: float) -> tuple[list, list]:
    """Runs cycling through `cfgs`, back to back, each after one set-up
    sample, for at most `seconds` (at least one run): a run that would not
    finish in time, judged by the last one, is not started.
    Returns (runs, import-only set-up samples); a failed sample is None."""
    runs, setups = [], []
    start = time.monotonic()
    for i in itertools.count():
        t = time.monotonic()
        setups.append(bench.setup_sample())
        got = bench.run(cfgs[i % len(cfgs)])
        if got is not None:
            runs.append(got)
        now = time.monotonic()
        if (now - start) + (now - t) > seconds or now - bench.t0 + 2 * (now - t) > RUN_TIMEOUT_S:
            return runs, setups


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """Medians over the runs, scaled to a reference machine speed.

    The 2-vCPU baseline machine shares its host, and its speed drifts by up
    to half over tens of minutes; every kind of work drifts together.  So each time is multiplied
    by REF_NUMPY_S / median(numpy_s), numpy_s being the time a fresh worker
    takes to start and import numpy (nothing of the library), measured in
    every worker of the same invocation.  The raw samples are kept."""
    runs, setups = _untraced_loop(bench, workloads.configs(bench.workload, bench.seed), seconds)
    bench.checks.append(("import-only workers succeed", None not in setups))
    workers = [x for x in setups if x is not None] + runs
    samples = {k: [r[k] for r in runs] for k in ("run_s", "cpu_s", "peak_rss_mb")}
    samples["setup_s"] = [w["setup_s"] for w in workers]
    samples["numpy_s"] = [w["numpy_s"] for w in workers]
    scale = REF_NUMPY_S / _median(samples["numpy_s"])
    metrics = {k: _median(samples[k]) * scale for k in ("run_s", "cpu_s", "setup_s")}
    metrics["peak_rss_mb"] = _median(samples["peak_rss_mb"])
    metrics["speed_scale"] = scale
    return metrics, samples


def _trace_checks(bench: Bench, traced: dict):
    side = traced["trace"]
    missed = side["unwrapped_bindings"]
    if missed:
        print("unwrapped bindings: " + ", ".join(missed), file=sys.stderr)
    bench.checks.append(("tracer wrapped every binding", not missed))
    bench.checks.append((
        "tracer rsde.n_events == sum of solve diagnostics n_events",
        side["counters"].get("rsde.n_events", 0.0) == sum(side["n_events_diagnostics"]),
    ))


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    cfg = workloads.config(bench.workload, bench.seed)
    traced = bench.run(cfg, traced=True)
    runs, _ = _untraced_loop(bench, [cfg], max(seconds - (time.monotonic() - bench.t0), 0.0))
    metrics = {name: float("nan") for name, _ in PER_LAYER}
    if traced is None or not runs:
        return metrics, {}
    _trace_checks(bench, traced)
    bench.checks.append((
        "traced CSV bytes == untraced CSV bytes",
        all(r["csv"] == traced["csv"] for r in runs),
    ))
    metrics.update(tracer.layer_metrics(traced["trace"]))
    untraced = _median([r["run_s"] for r in runs])
    metrics["trace.overhead_frac"] = traced["run_s"] / untraced - 1.0
    metrics.update({
        "paths.grid_steps_N64": 0.0, "rsde.n_events_N64": 0.0,
        "rsde.member_events_scaling_exp": 0.0,
    })
    sidecars = {"main": traced["trace"]}
    if bench.workload == "jump_rsde":
        small_cfg = dict(workloads.JUMP_SMALL, seed=bench.seed)
        small = bench.run(small_cfg, traced=True)
        if small is not None:
            _trace_checks(bench, small)
            sc = small["trace"]["counters"]
            ratio = cfg["ensemble"] / small_cfg["ensemble"]
            metrics.update({
                "paths.grid_steps_N64": sc.get("paths.grid_steps", 0.0),
                "rsde.n_events_N64": sc.get("rsde.n_events", 0.0),
                "rsde.member_events_scaling_exp": tracer.scaling_exponent(
                    traced["trace"], small["trace"], ratio
                ),
            })
            sidecars["N64"] = small["trace"]
    return metrics, sidecars


def _print_table(workload, metrics, units, samples):
    print(f"workload {workload}")
    for name, unit in units:
        line = f"  {name:34s} {metrics[name]:14.6g} {unit}"
        xs = samples.get(name)
        if xs:
            line += f"   (raw: median {_median(xs):.6g} of {len(xs)}, min {min(xs):.6g}, max {max(xs):.6g})"
        print(line)
    if "speed_scale" in metrics:
        print(f"  {'speed_scale':34s} {metrics['speed_scale']:14.6g}   (times = raw median x scale;"
              f" {REF_NUMPY_S} s / median numpy import of {len(samples['numpy_s'])} workers)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.CONFIGS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "roughsew" / "__init__.py").is_file():
        print(f"no library source at {SRC}; run from a roughsew checkout", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no run pays for compiling the sources
    if not compileall.compile_dir(str(SRC / "roughsew"), quiet=1):
        print("byte-compiling the library failed", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))  # the CSV checks use roughsew.cli.SUITES

    bench = Bench(args.workload, args.seed)
    try:
        if args.trace:
            metrics, sidecars = per_layer(bench, args.seconds)
            units, samples = PER_LAYER, {}
        else:
            metrics, samples = end_to_end(bench, args.seconds)
            units, sidecars = END_TO_END, {}
    finally:
        bench.close()

    failed = sum(1 for _, ok in bench.checks if not ok)
    attempted = max(len(bench.checks), 1)
    env = _environment()
    _print_table(args.workload, metrics, units, samples)
    print(f"  {'fail_frac':34s} {failed / attempted:14.6g} ratio   ({failed} of {attempted} checks)")
    for name, ok in bench.checks:
        if not ok:
            print(f"  FAILED: {name}")
    print("env " + json.dumps(env, sort_keys=True))

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "configs": workloads.configs(args.workload, args.seed),
        "environment": env, "metrics": metrics, "samples": samples,
        "checks": bench.checks, "sidecars": sidecars,
    }
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"{tag}.json").write_text(json.dumps(record), encoding="utf-8")

    print(json.dumps({
        "correct": failed == 0 and len(bench.checks) > 0,
        "attempted": attempted,
        "failed": failed if bench.checks else 1,
        # a metric that could not be measured (the run failed) reads 0
        "metrics": {
            name: {"value": metrics[name] if math.isfinite(metrics[name]) else 0.0, "unit": unit}
            for name, unit in units
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
