"""A repair's cost, bounded as a function of its target's region count R and
the fix-thought budget B, on targets drawn from ``perfbench/gen.py``.

Each example runs a fixed-clock ``fix --no-kb`` with the scripted mock and
the counting stub detector, and reads three costs from the run alone: plan
calls are the transcript prompts that hold ``MARKER_PLAN``, spawns are the
counting log's lines, and tokens are the report's
``triplet.overhead_tokens``.

- B >= R: a pass, 1 plan call, 2 spawns and at most 105·R + 150 tokens
  (measured: 338 at R = 2, 1 259 at R = 11, whatever the size).
- Any B: the same, with at most R + 1 spawns. Below R a solution is cut by
  the budget and the next one comes from a follow-up plan page, so this is
  a strict xfail until a cut solution is continued instead (ROADMAP item
  22). R = 8 at B = 5 takes 2 plan calls today.

- One UB per run (the stub's ``--first-ub``, as Miri stops at its first
  UB): a pass with at most R + 2 spawns. Targets with 5 or more regions
  fail today, each repaired region costing solution ids until
  ``--solutions`` runs out, so this is a strict xfail until the session
  grows its solution for a region a detection newly shows (ROADMAP item 7).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import shlex
import tempfile
from pathlib import Path

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from conftest import counting_detector_command, load_perfbench, spawn_log
from ubmend.cli import main
from ubmend.provider import MARKER_PLAN

gen = load_perfbench()

MIN_REGIONS, MAX_REGIONS, MAX_BUDGET = 2, 11, 20


def token_bound(regions: int) -> int:
    return 105 * regions + 150


def repair_costs(
    seed: int, regions: int, size: int, budget: int, *, first_ub: bool = False
) -> tuple[bool, int, int, int]:
    """(passed, plan calls, spawns, tokens) of repairing one generated target,
    under a stub that reports only its first UB when ``first_ub``."""
    source, _ = gen.large_target(random.Random(seed), regions, size)
    with tempfile.TemporaryDirectory(prefix="ubmend-cost-") as tmp:
        root = Path(tmp)
        (root / "main.rs").write_text(source, encoding="utf-8")
        log, transcript = root / "spawns.jsonl", root / "transcript.jsonl"
        *stub, file_arg = counting_detector_command(log)
        command = [*stub, *(["--first-ub"] if first_ub else []), file_arg]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            main([
                "fix", str(root / "main.rs"), "--no-kb", "--fixed-clock", "--report", "json",
                "--transcript", str(transcript), "--max-iterations", str(budget),
                "--detector-cmd", shlex.join(command),
            ])
        report = json.loads(out.getvalue())
        entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        plans = sum(MARKER_PLAN in entry["prompt"]["messages"][0]["content"] for entry in entries)
        passed = report["verdict"] in ("pass", "semantic_pass")
        return passed, plans, len(spawn_log(log)), report["triplet"]["overhead_tokens"]


@st.composite
def targets(draw, budget_at_least_regions: bool) -> tuple[int, int, int, int]:
    """(seed, regions, size, budget); sizes stay small, since tokens follow R."""
    regions = draw(st.integers(MIN_REGIONS, MAX_REGIONS))
    low = regions if budget_at_least_regions else 1
    return draw(st.integers(0, 2**16)), regions, draw(st.integers(0, 3000)), draw(st.integers(low, MAX_BUDGET))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(targets(budget_at_least_regions=True))
def test_a_budget_of_at_least_the_region_count_plans_once_and_spawns_twice(target):
    seed, regions, size, budget = target
    passed, plans, spawns, tokens = repair_costs(seed, regions, size, budget)
    assert (passed, plans, spawns) == (True, 1, 2)
    assert tokens <= token_bound(regions)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 22: below R, a solution the budget cut is planned again on a follow-up page",
)
@settings(max_examples=25, deadline=None, derandomize=True)
@given(targets(budget_at_least_regions=False))
@example((1, 8, 1000, 5))
def test_any_budget_plans_once_and_spawns_at_most_one_more_than_the_regions(target):
    seed, regions, size, budget = target
    passed, plans, spawns, tokens = repair_costs(seed, regions, size, budget)
    assert (passed, plans) == (True, 1)
    assert spawns <= regions + 1
    assert tokens <= token_bound(regions)


@pytest.mark.xfail(
    strict=True,
    reason="ROADMAP item 7: one UB per run, each repaired region costs solution ids until --solutions runs out",
)
@settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.explicit, Phase.generate])
@given(targets(budget_at_least_regions=True))
@example((1, 8, 1000, 20))
def test_one_ub_per_run_passes_with_at_most_two_more_spawns_than_the_regions(target):
    seed, regions, size, budget = target
    passed, _, spawns, _ = repair_costs(seed, regions, size, budget, first_ub=True)
    assert passed
    assert spawns <= regions + 2
