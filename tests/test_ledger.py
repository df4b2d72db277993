"""A run's tokens, read from its case memo, equal the two accounts they replace.

``repair_one`` takes a run's ``overhead_tokens`` from the tokens its case
memo booked. Before, they were summed from two accounts: what the inner
``Provider.complete`` counted during the run, plus the tokens of every
pooled answer the run took after another bench case fetched it. These tests
keep both accounts from outside, wrapping ``cli.repair_one`` by name as the
benchmark harness does and reading the inner provider's ``tokens_used``
around it, and check the memo's figure against their sum on every run.
"""
from __future__ import annotations

import json
import threading

import pytest

from conftest import CORPUS_DIR, STUB_DETECTOR_ARG, TOOLS_DIR
from ubmend import cli
from ubmend.detector import AnswerPool

SHARED = ["--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]


@pytest.fixture
def audited(monkeypatch):
    """Each run's ``overhead_tokens``, the tokens the inner provider counted
    during it, and the tokens of the pooled answers another case fetched
    that it took, in the order the runs end."""
    runs: list[tuple[int, int, int]] = []
    local = threading.local()  # a case runs on one worker thread
    take, repair_one = AnswerPool.take, cli.repair_one

    def counted_take(self, key, fetch):
        entry, fetched = take(self, key, fetch)
        if not fetched:
            local.pooled += entry.tokens
        return entry, fetched

    def audited_repair_one(target, provider, engine, settings, reference=None):
        local.pooled, before = 0, provider.tokens_used
        outcome, triplet, originals = repair_one(target, provider, engine, settings, reference)
        runs.append((triplet.overhead_tokens, provider.tokens_used - before, local.pooled))
        return outcome, triplet, originals

    monkeypatch.setattr(AnswerPool, "take", counted_take)
    monkeypatch.setattr(cli, "repair_one", audited_repair_one)
    return runs


def _fixtures() -> list[dict]:
    lines = (CORPUS_DIR / "manifest.jsonl").read_text(encoding="utf-8").splitlines()
    return [json.loads(line) for line in lines if line.strip()]


def test_fix_tokens_equal_the_inner_providers_count(tmp_path, audited, perfbench_gen, capsys):
    kb, log = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    gen = perfbench_gen
    gen.build_store(gen.load_templates(CORPUS_DIR), 1, TOOLS_DIR / "fake_miri.py", kb, log)
    for case in _fixtures():
        target = str(CORPUS_DIR / case["path"])
        assert cli.main(["fix", target, "--no-kb", *SHARED]) == 0
        assert cli.main(["fix", target, "--kb", str(kb), "--experience", str(log), *SHARED]) == 0
    capsys.readouterr()
    assert len(audited) == 2 * len(_fixtures())
    assert [memo for memo, _, _ in audited] == [inner + pooled for _, inner, pooled in audited]
    assert any(inner for _, inner, _ in audited)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_bench_tokens_equal_the_two_accounts(tmp_path, audited, perfbench_gen, capsys, jobs):
    gen = perfbench_gen
    cases = gen.corpus_cases(gen.load_templates(CORPUS_DIR), 1, tmp_path / "cases")
    manifest = tmp_path / "manifest.jsonl"
    gen.write_manifest(manifest, cases)
    assert cli.main(["bench", str(manifest), "--jobs", jobs, "--report", "json", *SHARED]) == 0
    rows = json.loads(capsys.readouterr().out)["cases"]
    assert len(audited) == 2 * len(rows)
    assert [memo for memo, _, _ in audited] == [inner + pooled for _, inner, pooled in audited]
    # the copies of one template share its prompts, so both accounts are
    # drawn on: some runs fetch answers, and others take them from the pool
    assert any(inner for _, inner, _ in audited) and any(pooled for _, _, pooled in audited)
