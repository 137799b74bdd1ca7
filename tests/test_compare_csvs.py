"""`tools/compare_csvs.py`'s reading of two CSVs, on in-memory bytes: no
scenario runs."""

import importlib.util
import math
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "compare_csvs.py"
_spec = importlib.util.spec_from_file_location("compare_csvs", _PATH)
compare_csvs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare_csvs)

HEADER = "scenario,metric,value,std_error,n\n"


def _csv(*rows):
    return (HEADER + "".join(f"{r}\n" for r in rows)).encode("utf-8")


@pytest.mark.parametrize(
    "a,b,want",
    [
        (1.5, 1.5, 0.0),
        (math.nan, math.nan, 0.0),
        (0.0, 0.0, 0.0),
        (math.inf, math.inf, 0.0),
        (0.0, 1e-300, math.inf),
        (1.0, math.nan, math.inf),
        (math.nan, 1.0, math.inf),
        (1.0, math.inf, math.inf),
        (-math.inf, math.inf, math.inf),
        (2.0, 3.0, 0.5),
        (-4.0, -3.0, 0.25),
    ],
)
def test_relative_change(a, b, want):
    assert compare_csvs._relative_change(a, b) == want


def test_describe_change_counts_rows_and_the_largest_change_per_measure():
    parent = _csv("s,a,1.0,0.1,8", "s,b,2.0,0.2,8", "s,c,nan,0.0,8")
    child = _csv("s,a,1.0,0.1,8", "s,b,2.0000000000000004,0.2,8", "s,c,nan,0.0,8")
    assert compare_csvs._describe_change(parent, child) == (
        "1 of 3 rows differ; largest relative change: value 2.2e-16, std_error 0"
    )
    child = _csv("s,a,1.5,0.1,8", "s,b,2.0,0.3,8", "s,c,nan,0.0,8")
    assert compare_csvs._describe_change(parent, child) == (
        "2 of 3 rows differ; largest relative change: value 0.5, std_error 0.5"
    )


@pytest.mark.parametrize(
    "child",
    [
        _csv("s,a,1.0,0.1,8", "s,z,2.0,0.2,8"),  # a metric renamed
        _csv("s,a,1.0,0.1,8", "s,b,2.0,0.2,16"),  # another key column
        _csv("s,a,1.0,0.1,8"),  # a row fewer
        b"scenario,metric,value,n\ns,a,1.0,8\ns,b,2.0,8\n",  # a measure gone
        b"",  # no header
    ],
)
def test_describe_change_names_keys_that_differ(child):
    parent = _csv("s,a,1.0,0.1,8", "s,b,2.0,0.2,8")
    assert compare_csvs._describe_change(parent, child) == "keys differ"


def test_describe_change_of_header_only_csvs():
    assert compare_csvs._describe_change(_csv(), _csv()) == (
        "0 of 0 rows differ; largest relative change: value 0, std_error 0"
    )
    assert compare_csvs._describe_change(_csv(), _csv("s,a,1.0,0.1,8")) == "keys differ"
