"""Every constant declared speed-only changes no output byte.

A module constant whose comment says "speed only" or "speed constant" sets
how the work is cut up (lanes a task, draw rows a window, DP rows a band,
terms a block, law rows a batch), never a result. This test finds each such
constant by reading the package source, so a new one fails here until it is
listed below; for each listed constant it patches in a small value and
requires the pinned bytes of the golden cases that reach it. The per-constant
reference-bits tests compare against the implementations these constants
replaced; this one compares the code against itself.
"""

import importlib
import re
from pathlib import Path

import pytest

from test_golden import CASES, case_digests

SRC = Path(__file__).resolve().parent.parent / "src" / "lapsewalk"
SPEED = re.compile(r"speed (only|constant)")

# (module, name) -> (small value, golden cases that read the constant)
CONSTANTS = {
    # below the chunk size, so one block a task: the three-block walks run
    # as three tasks instead of one, two-sided and one-sided (q = 0)
    ("ensemble", "LANES_MAX"): (7, ["simulate-csv", "simulate-csv-three-blocks",
                                    "simulate-csv-three-blocks-one-sided"]),
    # superdiffusive, critical and the three-block case walk one-sided
    ("ensemble", "_DRAW_WINDOW"): (3, ["simulate-csv", "lln", "superdiffusive",
                                       "critical",
                                       "simulate-csv-three-blocks-one-sided"]),
    ("exact", "_DP_BAND"): (3, ["exact-distribution-json", "clt"]),
    ("exact", "_MOMENT_BLOCK"): (7, ["regime-scan", "clt"]),
    # sub-blocks that do not divide the direct scan's 2^16-term chunks
    ("analytic", "_SERIES_BLOCK"): (5000, ["predict-text-superdiffusive"]),
    # the n = 40 law has 861 rows: hundreds of batch edges in each format
    ("cli", "_LAW_BATCH"): (3, ["exact-distribution-json", "exact-distribution-csv"]),
}


def declared_speed_constants():
    """(module, name) of every module-level assignment whose own comment, or
    the comment block right above it, says it sets speed only."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        above = []
        for line in path.read_text().splitlines():
            if line.startswith("#"):
                above.append(line)
                continue
            name = re.match(r"([A-Za-z_]\w*) = ", line)
            if name and SPEED.search(" ".join([*above, line.partition("#")[2]])):
                found.add((path.stem, name.group(1)))
            above = []
    return found


def test_every_speed_constant_is_listed():
    assert declared_speed_constants() == set(CONSTANTS)


@pytest.mark.parametrize("module, name", sorted(CONSTANTS),
                         ids=[name for _, name in sorted(CONSTANTS)])
def test_speed_constant_keeps_the_golden_bytes(tmp_path, monkeypatch,
                                               module, name):
    value, cases = CONSTANTS[module, name]
    owner = importlib.import_module(f"lapsewalk.{module}")
    assert value < getattr(owner, name)
    monkeypatch.setattr(owner, name, value)
    for case in cases:
        assert case_digests(tmp_path, case) == CASES[case][2], case
