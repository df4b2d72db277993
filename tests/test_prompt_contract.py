"""What every model prompt may say, checked on the prompts real runs ask.

The prompts are those of a bench over the corpus fixtures, read back from
its transcript, and those of a repair whose every fix step abstains, so
that it asks follow-up plan pages. A prompt names the fix agents to try
on a region by the names its grammar lists. A page asked with nothing
tried is in the one-solution grammar, and a follow-up page numbers its
solutions on from the tried ones.
"""

from __future__ import annotations

import json
import re

import pytest

from conftest import CORPUS_DIR, STUB_DETECTOR_ARG, stub_detector_config
from ubmend import cli
from ubmend.detector import CaseMemo, TargetPackage
from ubmend.feedback import FeedbackEngine
from ubmend.provider import MARKER_FIX, MARKER_PLAN, Provider, ProviderConfig, ScriptedMockProvider
from ubmend.slow import SessionConfig

TRIED = "Solutions tried so far"


@pytest.fixture(scope="module")
def bench_prompts(tmp_path_factory) -> list[str]:
    """Every prompt of a fixed-clock bench over the corpus, from its transcript."""
    transcript = tmp_path_factory.mktemp("bench") / "transcript.jsonl"
    args = [
        "bench", str(CORPUS_DIR / "manifest.jsonl"), "--detector-cmd", STUB_DETECTOR_ARG,
        "--fixed-clock", "--report", "json", "--jobs", "1", "--transcript", str(transcript),
    ]
    assert cli.main(args) == 0
    entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
    return [entry["prompt"]["messages"][0]["content"] for entry in entries]


@pytest.fixture
def follow_up_prompts(monkeypatch) -> list[str]:
    """Every prompt of a repair of ``stack_borrow`` whose fix steps all
    abstain: a first page, then follow-up pages until the plans repeat."""
    seen: list[str] = []
    complete = Provider.complete
    monkeypatch.setattr(
        Provider, "complete", lambda self, prompt: seen.append(prompt.text()) or complete(self, prompt)
    )
    provider = ScriptedMockProvider(ProviderConfig(), rules=[(MARKER_FIX, "no fenced block in this answer")])
    settings = SessionConfig(memo=CaseMemo(), detector=stub_detector_config())
    target = TargetPackage.from_path(CORPUS_DIR / "stack_borrow" / "main.rs")
    cli.repair_one(target, provider, FeedbackEngine(), settings)
    return seen


def _flat(prompt: str) -> str:
    return " ".join(prompt.split())


def _plan_pages(prompts: list[str]) -> list[str]:
    return [p for p in prompts if MARKER_PLAN in p]


def _check_names(prompts: list[str]) -> None:
    """Every ``FEATURE`` line's agents are fix agents its plan grammar lists."""
    for page in _plan_pages(prompts):
        listed = re.search(r"<AGENT> is one of (.*?) \(the fix steps\)", _flat(page))
        assert listed is not None
        fix_agents = set(listed.group(1).split(", "))
        features = re.findall(r"^FEATURE \S+ :: (.*)$", page, flags=re.MULTILINE)
        assert features
        for line in features:
            named = re.match(r"agents=(\S+) :: ", line)
            assert named is not None, line
            assert set(named.group(1).split(",")) <= fix_agents, line


def _check_first_page(page: str) -> None:
    assert TRIED not in page
    assert not re.search(r"SOLUTION <i>|SOLUTION \d", page)
    assert "numbered from" not in page and "solutions requested" not in page


def test_the_corpus_prompts_name_agents_and_ask_first_pages_in_the_one_solution_grammar(bench_prompts):
    pages = _plan_pages(bench_prompts)
    # one first page per fixture, each followed by its agent prompts
    assert len(pages) == 12 and len(bench_prompts) > len(pages)
    _check_names(bench_prompts)
    for page in pages:
        _check_first_page(page)


def test_a_follow_up_page_is_numbered_on_from_the_tried_solutions(follow_up_prompts):
    first, *follow_ups = _plan_pages(follow_up_prompts)
    assert follow_ups
    _check_names(follow_up_prompts)
    _check_first_page(first)
    for page in follow_ups:
        tried = [int(n) for n in re.findall(r"^TRIED s(\d+):", page, flags=re.MULTILINE)]
        assert tried and "solutions requested" not in page
        assert f"numbered from {max(tried) + 1}." in _flat(page)
        assert "SOLUTION <i>:" in page
