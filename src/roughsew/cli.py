"""Command line: run experiments, verify invariants, list what's available.

    roughsew run config.json --out results
    roughsew verify chen
    roughsew list

Configs are JSON objects (see the README for the documented example); every
random draw derives from the config's master seed through named streams, so
rerunning a config reproduces the CSV byte for byte.  The manifest written
next to the CSV carries the config echo, the library version, and the only
timestamp.

Exit codes: 0 success, 1 usage/config error, 2 verification failure.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

from . import __version__
from .scenarios import (
    DEFAULT_SIZES,
    ROW_FIELDS,
    SCENARIOS,
    SCHEMA_VERSION,
    ExperimentConfig,
    default_config,
    run_scenario,
)

__all__ = ["main", "SUITES"]


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; the contract here reserves 2 for
    verification failures, so usage problems exit 1 instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


# ---------------------------------------------------------------------------
# verification suites: fixed-size scenario runs plus pass/fail gates
# ---------------------------------------------------------------------------


def _one(rows, metric):
    got = [r for r in rows if r["metric"] == metric]
    if len(got) != 1:
        raise KeyError(f"expected exactly one {metric!r} row, found {len(got)}")
    return got[0]


def _check_chen(rows):
    v = _one(rows, "chen_max_residual")["value"]
    return [("Chen residual <= 1e-10 on all lifts", v <= 1e-10, f"max {v:.3e}")]


def _check_jump_structure(rows):
    v = _one(rows, "jump_residual")["value"]
    return [("jump identity residual <= 1e-12", v <= 1e-12, f"max {v:.3e}")]


def _check_ito_formula(rows):
    s_b = _one(rows, "slope[brownian_square]")["value"]
    s_t = _one(rows, "slope[smooth_tanh]")["value"]
    z = _one(rows, "max_residual[pure_jump]")["value"]
    return [
        ("Brownian y^2 slope in [-0.65, -0.35]", -0.65 <= s_b <= -0.35, f"slope {s_b:.3f}"),
        ("smooth tanh slope <= -0.9", s_t <= -0.9, f"slope {s_t:.3f}"),
        ("pure-jump residual exactly zero", z == 0.0, f"max {z:.3e}"),
    ]


def _check_sewing_rate(rows):
    s_ito = _one(rows, "refine_slope[ito]")["value"]
    s_qv = _one(rows, "refine_slope[qv]")["value"]
    add = _one(rows, "additive_max_distance")["value"]
    spread = _one(rows, "partition_spread[rough]")["value"]
    return [
        ("Ito germ refinement slope < -0.2", s_ito < -0.2, f"slope {s_ito:.3f}"),
        ("QV germ refinement slope < -0.2", s_qv < -0.2, f"slope {s_qv:.3f}"),
        ("additive germ distances all zero", add == 0.0, f"max {add:.3e}"),
        ("rough-germ partition spread <= 1e-10", spread <= 1e-10, f"max {spread:.3e}"),
    ]


def _check_stability(rows):
    checks = []
    for key in ("y0", "martingale", "lift"):
        vals = [r["value"] for r in rows if r["metric"] == f"stability_ratio[{key}]"]
        finite = bool(vals) and all(math.isfinite(v) and v > 0 for v in vals)
        spread = _one(rows, f"ratio_spread[{key}]")["value"]
        shown = ", ".join(f"{v:.3g}" for v in vals)
        checks.append((f"{key} perturbation ratios finite", finite, f"ratios [{shown}]"))
        checks.append((f"{key} ratio spread < 5", spread < 5.0, f"spread {spread:.3f}"))
    gap = _one(rows, "solve_picard_gap")["value"]
    checks.append(("solve vs Picard gap <= 1e-6", gap <= 1e-6, f"max {gap:.3e}"))
    return checks


def _check_brackets(rows):
    gap_row = _one(rows, "bracket_gap[brownian]")
    gap, se = gap_row["value"], gap_row["std_error"]
    lin = _one(rows, "rough_bracket_max[linear]")["value"]
    pair = _one(rows, "rough_bracket_max[sine_cosine]")["value"]
    pj = _one(rows, "pure_jump_bracket_residual")["value"]
    sl = _one(rows, "mixed_bracket_slope")["value"]
    return [
        ("[B]_T within 3 SE of T", gap <= 3.0 * se, f"gap {gap:.3e}, 3*SE {3 * se:.3e}"),
        ("geometric bracket (1-d) <= 1e-12", lin <= 1e-12, f"max {lin:.3e}"),
        ("geometric bracket (2-d) <= 1e-12", pair <= 1e-12, f"max {pair:.3e}"),
        ("pure-jump bracket equals jump sum exactly", pj == 0.0, f"max {pj:.3e}"),
        ("[M,Z] identity residual slope < 0", sl < 0.0, f"slope {sl:.3f}"),
    ]


def _check_jumps(rows):
    flow = _one(rows, "flow_restart_gap")["value"]
    jres = _one(rows, "solution_jump_residual")["value"]
    gap = _one(rows, "solve_picard_gap")["value"]
    return [
        ("flow-restart gap exactly zero", flow == 0.0, f"max {flow:.3e}"),
        ("solution jump residual <= 1e-12", jres <= 1e-12, f"max {jres:.3e}"),
        ("solve vs Picard gap <= 1e-6", gap <= 1e-6, f"max {gap:.3e}"),
    ]


SUITES = {
    "chen": ("chen_check", _check_chen),
    "jump_structure": ("jump_structure", _check_jump_structure),
    "ito_formula": ("ito_formula", _check_ito_formula),
    "sewing_rate": ("sewing_rate", _check_sewing_rate),
    "stability": ("stability_base", _check_stability),
    "brackets": ("brackets", _check_brackets),
    "jumps": ("jump_mix", _check_jumps),
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentConfig) if f.name != "scenario")


def _load_config(path: str, args) -> ExperimentConfig:
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(raw, dict) or "scenario" not in raw:
        raise ValueError("config must be a JSON object with a 'scenario' key")
    unknown = set(raw) - set(_CONFIG_KEYS) - {"scenario"}
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kw = {k: raw[k] for k in _CONFIG_KEYS if k in raw}
    if "params" in kw and not isinstance(kw["params"], dict):
        raise ValueError("'params' must be an object")
    for flag in ("seed", "levels", "ensemble"):
        v = getattr(args, flag, None)
        if v is not None:
            kw[flag] = v
    return default_config(raw["scenario"], **kw)


def _write_rows(csv_path: Path, rows) -> None:
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(ROW_FIELDS)
        for r in rows:
            writer.writerow([r[k] for k in ROW_FIELDS])


def _cmd_run(args) -> int:
    try:
        cfg = _load_config(args.config, args)
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"roughsew run: bad config: {exc}", file=sys.stderr)
        return 1
    try:
        rows = run_scenario(cfg)
    except MemoryError as exc:  # sizes that pass validation but cannot be allocated
        print(f"roughsew run: bad config: {exc}", file=sys.stderr)
        return 1

    out_dir = Path(args.out if args.out is not None else (cfg.out_dir or "."))
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        csv_path = out_dir / f"{cfg.scenario}.csv"
        _write_rows(csv_path, rows)
        manifest = {
            "schema_version": SCHEMA_VERSION,
            "library_version": __version__,
            "created_utc": datetime.now(timezone.utc).isoformat(),
            "config": {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "out_dir"},
            "rows_written": len(rows),
            "output": csv_path.name,
        }
        manifest_path = out_dir / f"{cfg.scenario}_manifest.json"
        manifest_path.write_text(
            json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
        )
    except OSError as exc:
        print(f"roughsew run: cannot write output: {exc}", file=sys.stderr)
        return 1
    print(f"{cfg.scenario}: {len(rows)} rows -> {csv_path}")
    return 0


def _cmd_verify(args) -> int:
    scenario_id, checker = SUITES[args.suite]
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        cfg = default_config(scenario_id, **overrides)
    except ValueError as exc:
        print(f"roughsew verify: bad config: {exc}", file=sys.stderr)
        return 1
    rows = run_scenario(cfg)
    checks = checker(rows)
    ok_all = True
    for name, ok, detail in checks:
        print(f"[{'PASS' if ok else 'FAIL'}] {args.suite}: {name} ({detail})")
        ok_all = ok_all and ok
    print(f"{args.suite}: {'all checks passed' if ok_all else 'FAILED'}")
    return 0 if ok_all else 2


def _cmd_list(args) -> int:
    print("scenarios:")
    for name in sorted(SCENARIOS):
        sizes = DEFAULT_SIZES[name]
        print(
            f"  {name:20s} (defaults: n={sizes['n']}, N={sizes['ensemble']}, "
            f"levels={sizes['levels']})"
        )
    print("verify suites:")
    for name in sorted(SUITES):
        print(f"  {name}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="roughsew", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"roughsew {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p_run = sub.add_parser("run", help="run a scenario from a JSON config")
    p_run.add_argument("config", help="path to a JSON config file")
    p_run.add_argument("--out", default=None, help="output directory (default: config's or '.')")
    p_run.add_argument("--seed", type=int, default=None, help="override the master seed")
    p_run.add_argument("--levels", type=int, default=None, help="override refinement levels")
    p_run.add_argument("--ensemble", type=int, default=None, help="override ensemble size")
    p_run.set_defaults(fn=_cmd_run)

    p_ver = sub.add_parser("verify", help="run a verification suite at desk scale")
    p_ver.add_argument("suite", choices=sorted(SUITES))
    p_ver.add_argument("--seed", type=int, default=None)
    p_ver.set_defaults(fn=_cmd_verify)

    p_list = sub.add_parser("list", help="list scenarios and verify suites")
    p_list.set_defaults(fn=_cmd_list)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
