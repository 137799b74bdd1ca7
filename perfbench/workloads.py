"""Workload definitions: one scenario config each, plus the checks its CSV must pass.

A workload is a `roughsew run` config.  The benchmark writes the config file
(with the seed it was given) and the program sees nothing else.  Why each
workload exists is recorded in README.md next to this file.
"""
from __future__ import annotations

import csv
import io
import math

DEFAULT_SEED = 7

# scenario configs without the seed; sizes follow the ROADMAP baseline table
CONFIGS = {
    "sewing_verify": {"scenario": "sewing_rate", "n": 512, "ensemble": 2000,
                      "params": {"depth": 8}},
    "milstein_refine": {"scenario": "brownian_milstein", "n": 64, "levels": 6,
                        "ensemble": 4000},
    "jump_rsde": {"scenario": "jump_mix", "n": 128, "ensemble": 256},
    "stability_sweep": {"scenario": "stability_base", "n": 96, "ensemble": 128},
}

# jump_rsde's work grows with its seeded jump count (the union grid had 594 to
# 702 steps over 25 seeds tried), so its timed runs cycle through this many
# consecutive seeds from --seed and one draw does not set the median; the
# other workloads do the same work at every seed
SEEDS_PER_RUN = {"jump_rsde": 4}

# the traced jump_rsde run also solves this smaller ensemble, so the growth of
# the union jump grid with N shows as an exponent (member-events ~ N^exp)
JUMP_SMALL = {"scenario": "jump_mix", "n": 128, "ensemble": 64}


def config(workload: str, seed: int) -> dict:
    return dict(CONFIGS[workload], seed=int(seed))


def configs(workload: str, seed: int) -> list[dict]:
    """The configs one timed run cycles through: seeds seed, seed+1, ..."""
    return [config(workload, seed + i) for i in range(SEEDS_PER_RUN.get(workload, 1))]


def parse_rows(raw: bytes) -> list[dict]:
    """CSV bytes written by `roughsew run` -> rows with float value/std_error."""
    rows = list(csv.DictReader(io.StringIO(raw.decode("utf-8"))))
    for r in rows:
        r["value"] = float(r["value"])
        r["std_error"] = float(r["std_error"])
    return rows


def _value(rows, metric):
    got = [r["value"] for r in rows if r["metric"] == metric]
    if len(got) != 1:
        return float("nan")
    return got[0]


def _suite(name):
    def check(rows):
        from roughsew.cli import SUITES

        return [(f"{name}: {label}", bool(ok)) for label, ok, _ in SUITES[name][1](rows)]

    return check


def _milstein(rows):
    order = _value(rows, "observed_order")
    gap = _value(rows, "solve_picard_gap")
    return [
        ("observed_order >= 0.9", order >= 0.9),
        ("solve_picard_gap <= 1e-6", gap <= 1e-6),
    ]


def _jump(rows):
    flow = _value(rows, "flow_restart_gap")
    jres = _value(rows, "solution_jump_residual")
    gap = _value(rows, "solve_picard_gap")
    return [
        ("flow_restart_gap == 0", flow == 0.0),
        ("solution_jump_residual <= 1e-12", jres <= 1e-12),
        ("solve_picard_gap <= 1e-6", gap <= 1e-6),
    ]


_CHECKS = {
    "sewing_verify": _suite("sewing_rate"),
    "milstein_refine": _milstein,
    "jump_rsde": _jump,
    "stability_sweep": _suite("stability"),
}


def check_csv(workload: str, raw: bytes) -> list[tuple[str, bool]]:
    """(name, passed) for every check one run's CSV must pass.

    Every comparison is written so that NaN fails it, and a NaN anywhere in
    the CSV is a failure of its own.
    """
    rows = parse_rows(raw)
    no_nan = bool(rows) and not any(
        math.isnan(r["value"]) or math.isnan(r["std_error"]) for r in rows
    )
    return [("csv has rows and no NaN", no_nan)] + _CHECKS[workload](rows)
