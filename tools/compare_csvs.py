"""Run the pinned scenario configs on two source trees and name every CSV
whose bytes differ.

    python3 tools/compare_csvs.py PARENT_SRC CHILD_SRC

PARENT_SRC and CHILD_SRC are directories holding a `roughsew` package (a
checkout's `src`).  The configs are every default scenario at seeds 7 and 11,
the four benchmark workloads (`perfbench/workloads.CONFIGS`) at seeds 7 and
11, and the `jump_rsde` workload at seeds 7-14.  Each config runs as
`python -m roughsew.cli run` in a fresh process on each tree, two processes
at a time; the manifests, which carry a timestamp, are not compared.  For a
CSV whose bytes differ it prints how many rows differ and the largest
relative change of `value` and of `std_error` over the rows, or that the rows'
keys (every other column) differ.  Exit 0 when every CSV is byte-identical, 1
when one differs or a run fails.
"""
from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (7, 11)
JUMP_SEEDS = range(7, 15)
MEASURES = ("value", "std_error")


def _workload_configs() -> dict:
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.pop(0)
    return workloads.CONFIGS


def _scenarios(src: Path) -> list[str]:
    out = subprocess.run(
        [sys.executable, "-c", "from roughsew.scenarios import SCENARIOS; print(*SCENARIOS)"],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True, check=True,
    )
    return out.stdout.split()


def configs(src: Path) -> dict[str, dict]:
    """Label -> config of every run compared."""
    runs = {
        f"{name}-seed{seed}": {"scenario": name, "seed": seed}
        for name in _scenarios(src)
        for seed in SEEDS
    }
    workloads = _workload_configs()
    for name, cfg in workloads.items():
        for seed in SEEDS:
            runs[f"{name}-seed{seed}"] = dict(cfg, seed=seed)
    for seed in JUMP_SEEDS:
        runs[f"jump_rsde-seed{seed}"] = dict(workloads["jump_rsde"], seed=seed)
    return runs


def _run(src: Path, cfg: dict, out_dir: Path) -> bytes | str:
    """The CSV bytes of one fresh-process run, or its error text."""
    out_dir.mkdir(parents=True)
    cfg_path = out_dir / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "roughsew.cli", "run", str(cfg_path), "--out", str(out_dir)],
        env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return f"exit {proc.returncode}: {proc.stderr.strip()}"
    return (out_dir / f"{cfg['scenario']}.csv").read_bytes()


def _relative_change(a: float, b: float) -> float:
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(b - a) / abs(a)


def _describe_change(parent: bytes, child: bytes) -> str:
    """How the rows of two CSVs of one config differ: the number of rows that
    differ and the largest relative change of each measure, or that the keys
    (the header, and every column but the measures, row by row) differ."""
    tables = [list(csv.reader(io.StringIO(b.decode("utf-8")))) for b in (parent, child)]
    header = tables[0][0] if tables[0] else []
    if any(not t or t[0] != header for t in tables) or not set(MEASURES) <= set(header):
        return "keys differ"
    at = [header.index(name) for name in MEASURES]
    rows = [t[1:] for t in tables]
    keys = [[[v for k, v in enumerate(r) if k not in at] for r in side] for side in rows]
    if keys[0] != keys[1]:
        return "keys differ"
    pairs = list(zip(*rows))
    worst = [
        max((_relative_change(float(a[k]), float(b[k])) for a, b in pairs), default=0.0)
        for k in at
    ]
    changes = ", ".join(f"{name} {w:.2g}" for name, w in zip(MEASURES, worst))
    n_diff = sum(a != b for a, b in pairs)
    return f"{n_diff} of {len(pairs)} rows differ; largest relative change: {changes}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 tools/compare_csvs.py PARENT_SRC CHILD_SRC", file=sys.stderr)
        return 1
    trees = [Path(a).resolve() for a in argv]
    for tree in trees:
        if not (tree / "roughsew" / "__init__.py").is_file():
            print(f"compare_csvs: {tree} holds no roughsew package", file=sys.stderr)
            return 1
    runs = configs(trees[0])
    with tempfile.TemporaryDirectory() as tmp, ThreadPoolExecutor(2) as pool:
        futures = {
            (label, side): pool.submit(_run, tree, cfg, Path(tmp, side, label))
            for label, cfg in runs.items()
            for side, tree in zip(("parent", "child"), trees)
        }
        results = {key: fut.result() for key, fut in futures.items()}
    bad = []
    for label in runs:
        parent, child = results[label, "parent"], results[label, "child"]
        for side, got in (("parent", parent), ("child", child)):
            if isinstance(got, str):
                print(f"{label}: {side} run failed: {got}", file=sys.stderr)
        if parent != child or isinstance(parent, str):
            both_ran = isinstance(parent, bytes) and isinstance(child, bytes)
            how = f": {_describe_change(parent, child)}" if both_ran else ""
            print(f"{label}: CSV bytes differ{how}", file=sys.stderr)
            bad.append(label)
    print(f"{len(runs)} CSVs: " + (f"{len(bad)} differ" if bad else "all byte-identical"))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
