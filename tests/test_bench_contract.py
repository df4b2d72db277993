"""The names and store formats the ``perfbench/`` harness relies on.

``perfbench/launch.py`` and ``perfbench/tracer.py`` wrap package functions
from outside and read their arguments by name or position; ``perfbench/gen.py``
writes the knowledge base and experience log the fix-loop workload starts
from. A rename here breaks the benchmark without failing any other test.
"""
from __future__ import annotations

import ast
import inspect
import json
import os
import shutil
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    CORPUS_DIR,
    STUB_DETECTOR_ARG,
    TOOLS_DIR,
    signature_candidates,
    stub_detector_config,
)
from ubmend import agents, cli
from ubmend.detector import CaseMemo, TargetPackage, UbKind, run_detection
from ubmend.feedback import EvalTriplet, ExperienceRecord, FeedbackEngine, ReferenceBundle
from ubmend.kb import VECTOR_DIMS, FeatureVector, KnowledgeEntry, extract_ast, feature_vector, prune, vectorize
from ubmend.lexutil import estimate_tokens, mask_comments_and_strings
from ubmend.provider import MARKER_FIX, MemoizedProvider, PromptRecord, Provider, ProviderConfig, ScriptedMockProvider
from ubmend.rollback import SnapshotStore
from ubmend.slow import SessionConfig, execute_step, run_session

SOURCE_DIR = Path(__file__).resolve().parent.parent / "src" / "ubmend"


def _params(fn) -> list[str]:
    return list(inspect.signature(fn).parameters)


def test_repair_one_signature_and_settings():
    assert _params(cli.repair_one) == ["target", "provider", "engine", "settings", "reference"]
    assert "kb_enabled" in {f.name for f in SessionConfig.__dataclass_fields__.values()}
    assert SessionConfig(memo=CaseMemo(), kb_enabled=False).kb_enabled is False


@pytest.mark.parametrize(
    ("fn", "leading", "named"),
    [
        (run_session, ["workspace", "solutions"], []),
        (execute_step, [], ["prev_count"]),
        (run_detection, ["target"], ["config"]),
        (ReferenceBundle.check, ["self", "final_source", "entry_file"], []),
        (FeedbackEngine.rank_solutions, ["self", "candidates"], []),
        (SnapshotStore.record, ["self", "index", "files"], []),
        (mask_comments_and_strings, ["source"], []),
    ],
)
def test_traced_parameters(fn, leading, named):
    params = _params(fn)
    assert params[: len(leading)] == leading
    assert set(named) <= set(params)


def test_run_detection_callers_pass_config_by_keyword():
    # perfbench/tracer.py takes ``config`` by keyword, else from a positional
    # index the signature no longer has
    calls = []
    for path in sorted(SOURCE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                if name == "run_detection":
                    calls.append((path.name, node.lineno, node))
    assert calls
    for file, line, call in calls:
        assert len(call.args) <= 1, f"{file}:{line}"
        assert "config" in {kw.arg for kw in call.keywords}, f"{file}:{line}"


def test_agent_table_maps_to_the_three_agent_functions():
    assert set(agents.AGENT_FUNCTIONS.values()) == {
        agents.safe_replace,
        agents.add_assertion,
        agents.modify_semantics,
    }


def test_generated_store_loads_like_launch_setup(tmp_path, perfbench_gen):
    gen = perfbench_gen
    kb_path, exp_path = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    summary = gen.build_store(
        gen.load_templates(CORPUS_DIR), 1, TOOLS_DIR / "fake_miri.py", kb_path, exp_path
    )
    kb = cli.KnowledgeBase(kb_path)
    engine = cli.FeedbackEngine(exp_path, kb=kb)
    assert len(kb.entries) == summary["kb"]
    assert len(engine.records) == summary["experience"]


def _tree_state(*roots: Path) -> dict[str, tuple[int, int]]:
    return {
        str(path): (path.stat().st_size, path.stat().st_mtime_ns)
        for root in roots
        for path in root.rglob("*")
        if path.is_file()
    }


def test_store_with_tool_results_loads_ranks_and_resets_like_before(
    tmp_path, perfbench_gen, private_tmpdir, monkeypatch, capsys
):
    # the fix-loop workload loads its store as ``launch.py --setup`` does and
    # resets it between passes by copying back only the two store files
    gen = perfbench_gen
    templates = gen.load_templates(CORPUS_DIR)
    kb_path, exp_path = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    gen.build_store(templates, 1, TOOLS_DIR / "fake_miri.py", kb_path, exp_path)
    work = tmp_path / "work"
    work.mkdir()
    kb_copy, exp_copy = work / "kb.jsonl", work / "experience.jsonl"
    shutil.copyfile(kb_path, kb_copy)
    shutil.copyfile(exp_path, exp_copy)
    template = templates[0]
    case = work / "case" / template.path.name
    case.parent.mkdir()
    shutil.copyfile(template.path, case)
    args = ["fix", str(case), "--kb", str(kb_copy), "--experience", str(exp_copy),
            "--detector-cmd", STUB_DETECTOR_ARG, "--report", "json"]
    if template.reference is not None and shutil.which("rustc"):
        args += ["--reference", str(template.reference)]
    monkeypatch.chdir(work)
    before = _tree_state(tmp_path, private_tmpdir)
    assert cli.main(args) == 0
    capsys.readouterr()
    after = _tree_state(tmp_path, private_tmpdir)
    assert {p for p in set(before) | set(after) if before.get(p) != after.get(p)} == {
        str(kb_copy), str(exp_copy)
    }

    lines = exp_copy.read_text(encoding="utf-8").splitlines()
    tool_lines = [line for line in lines if "tool_result" in json.loads(line)]
    assert tool_lines
    mixed_path = tmp_path / "mixed.jsonl"
    mixed_path.write_text(exp_path.read_text(encoding="utf-8") + "\n".join(tool_lines) + "\n")
    plain = cli.FeedbackEngine(exp_path, kb=cli.KnowledgeBase(kb_path))
    mixed = cli.FeedbackEngine(mixed_path, kb=cli.KnowledgeBase(kb_path))
    assert mixed.records == plain.records
    assert len(mixed.tool_results) == len(tool_lines)
    queries = [v for v, _ in gen.template_vectors(templates, TOOLS_DIR / "fake_miri.py").values()]
    candidates = signature_candidates(gen._SIGNATURES)

    def outcomes(engine, query):
        ranked = [c.id for c in engine.rank_solutions(candidates, query)]
        hit = engine.best_hit(query)
        hit = None if hit is None else (hit[0], engine.records.index(hit[1]))
        # perfbench/tracer.py's records_scanned: records times candidates
        return ranked, hit, len(engine.records) * len(candidates)

    assert [outcomes(mixed, q) for q in queries] == [outcomes(plain, q) for q in queries]


@pytest.mark.parametrize("dims", [1, 7, 256])
def test_feature_vector_surface_gen_uses(dims):
    # perfbench/gen.py builds vectors from numpy arrays, reads ``values`` as a
    # dense sequence and writes the stores through ``to_dict``, which stores
    # the nonzero buckets; stores it wrote earlier hold dense lists. The
    # stores hold VECTOR_DIMS-bucket vectors only: a reader rejects others
    assert FeatureVector(np.zeros(dims)).is_zero
    values = np.zeros(dims)
    values[dims // 2] += 2
    values[dims - 1] += 1
    v = FeatureVector(values)
    assert len(v.values) == v.dims == dims
    assert list(np.flatnonzero(v.values)) == list(np.flatnonzero(values))
    if dims != VECTOR_DIMS:
        with pytest.raises(ValueError, match=f"vector of {dims} dims, not {VECTOR_DIMS}"):
            FeatureVector.from_dict(v.to_dict())
        return
    triplet = EvalTriplet(True, None, 1.5, 700)
    entry = KnowledgeEntry(v, UbKind.STACK_BORROW, {"steps": []}, triplet)
    record = ExperienceRecord(v, UbKind.STACK_BORROW, "s01", triplet, ())
    entry_line = json.loads(json.dumps(entry.to_dict(), sort_keys=True))
    record_line = json.loads(json.dumps(record.to_dict(), sort_keys=True))
    sparse = {"dims": dims, "nz": [[int(i), float(values[i])] for i in np.flatnonzero(values)]}
    assert entry_line["vector"] == record_line["feature_vector"] == sparse
    assert KnowledgeEntry.from_dict(entry_line).vector == v
    assert ExperienceRecord.from_dict(record_line).feature_vector == v
    assert FeatureVector.from_dict(json.loads(json.dumps(values.tolist()))) == v


def test_the_vector_chain_gen_calls_is_the_stored_vector():
    # perfbench/gen.py vectorizes each fix-loop template through this chain
    # of kb functions, and the store it writes must match what repair_one
    # searches with
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    reports = run_detection(TargetPackage.from_path(path), config=stub_detector_config(), memo=CaseMemo()).reports
    kinds = sorted({r.kind for r in reports}, key=lambda k: k.value)
    text = path.read_text(encoding="utf-8")
    vector = vectorize(prune(extract_ast(text), reports), ub_kinds=kinds)
    assert not vector.is_zero
    assert vector == feature_vector(text, reports)


@pytest.mark.parametrize("record", [False, True])
def test_provider_complete_sees_each_fetched_answer_once(tmp_path, monkeypatch, capsys, record):
    # perfbench/launch.py counts tokens by wrapping Provider.complete, the
    # same way as here: an answer the case memo reuses must not reach it,
    # and one fetched from the model must reach it exactly once, also
    # when the run records a transcript
    manifest = tmp_path / "manifest.jsonl"
    case = CORPUS_DIR / "stack_borrow" / "main.rs"
    manifest.write_text(json.dumps({"id": "c01", "path": str(case), "ub_kind": "stack_borrow"}) + "\n")
    transcript = tmp_path / "t.jsonl"
    seen: list[tuple[str, int, int]] = []
    complete = Provider.complete

    def counted_complete(self, prompt):
        before = self.tokens_used
        response = complete(self, prompt)
        cost = estimate_tokens(prompt.text()) + estimate_tokens(response)
        seen.append((self.hash_of(prompt), self.tokens_used - before, cost))
        return response

    monkeypatch.setattr(Provider, "complete", counted_complete)
    args = ["bench", str(manifest), "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", "--report", "json"]
    if record:
        args += ["--transcript", str(transcript)]
    assert cli.main(args) == 0
    report = json.loads(capsys.readouterr().out)
    hashes = [h for h, _, _ in seen]
    # the knowledge run's plan, whose code answers the fix; the no-knowledge
    # run asks the same prompts and fetches neither
    assert len(hashes) == len(set(hashes)) == 1
    assert all(added == cost for _, added, cost in seen)
    # the bench row's tokens are the knowledge run's: every fetched call
    assert report["cases"][0]["tokens"] == sum(cost for _, _, cost in seen)
    if record:
        # the plan's answer, then the fix's: the code of the mock's own
        # answer to the fix prompt, which the plan wrote
        entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
        assert [e["hash"] for e in entries[:1]] == hashes and len(entries) == 2
        fix = PromptRecord(entries[1]["prompt"]["messages"])
        own = ScriptedMockProvider(ProviderConfig()).complete(fix)
        assert MARKER_FIX in fix.text()
        assert entries[1]["response"] == own[own.index("```"):]


def test_a_store_answered_prompt_never_reaches_provider_complete(tmp_path, monkeypatch, capsys):
    # perfbench/launch.py counts tokens on Provider.complete: a prompt the
    # experience log answers costs nothing there, and nothing in the report
    case = CORPUS_DIR / "stack_borrow" / "main.rs"
    store = tmp_path / "experience.jsonl"
    seen: list[str] = []
    written: list[str] = []
    complete, stand_in = Provider.complete, MemoizedProvider.stand_in

    def counted_complete(self, prompt):
        seen.append(self.hash_of(prompt))
        return complete(self, prompt)

    def counted_stand_in(self, prompt, answer):
        written.append(self.inner.hash_of(prompt))
        return stand_in(self, prompt, answer)

    monkeypatch.setattr(Provider, "complete", counted_complete)
    monkeypatch.setattr(MemoizedProvider, "stand_in", counted_stand_in)
    args = ["fix", str(case), "--experience", str(store), "--detector-cmd", STUB_DETECTOR_ARG,
            "--fixed-clock", "--report", "json"]
    assert cli.main(args) == 0
    first = json.loads(capsys.readouterr().out)
    # the plan, whose code answers the fix; the plan's and the fix's answers are kept
    assert (len(seen), len(written)) == (1, 1)
    lines = [json.loads(line) for line in store.read_text(encoding="utf-8").splitlines()]
    answers = [line["tool_result"]["key"] for line in lines if "answer" in line.get("tool_result", {})]
    assert answers == [f"mock:{seen[0]}", f"mock:{written[-1]}"]
    seen.clear()
    assert cli.main(args) == 0
    second = json.loads(capsys.readouterr().out)
    # the repair, seeded and kept first, passes before any page is asked
    assert seen == []
    assert (second["triplet"]["overhead_tokens"], second["store_hits"]["answers"]) == (0, 1)
    assert second["trace"] == first["trace"]


def test_generated_store_with_answer_lines_loads_and_ranks_like_before(
    tmp_path, perfbench_gen, monkeypatch, capsys
):
    # ``launch.py --setup`` loads the fix-loop store; answer lines appended by
    # the fixes of a run must change neither its records nor its ranking
    gen = perfbench_gen
    templates = gen.load_templates(CORPUS_DIR)
    kb_path, exp_path = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    gen.build_store(templates, 1, TOOLS_DIR / "fake_miri.py", kb_path, exp_path)
    work_kb, work_exp = tmp_path / "work-kb.jsonl", tmp_path / "work-experience.jsonl"
    shutil.copyfile(kb_path, work_kb)
    shutil.copyfile(exp_path, work_exp)
    for template in templates[:3]:
        args = ["fix", str(template.path), "--kb", str(work_kb), "--experience", str(work_exp),
                "--detector-cmd", STUB_DETECTOR_ARG, "--report", "json"]
        assert cli.main(args) == 0
        capsys.readouterr()
    lines = work_exp.read_text(encoding="utf-8").splitlines()
    answer_lines = [line for line in lines if "answer" in json.loads(line).get("tool_result", {})]
    assert answer_lines
    mixed_path = tmp_path / "mixed.jsonl"
    mixed_path.write_text(exp_path.read_text(encoding="utf-8") + "\n".join(answer_lines) + "\n")
    plain = cli.FeedbackEngine(exp_path, kb=cli.KnowledgeBase(kb_path))
    mixed = cli.FeedbackEngine(mixed_path, kb=cli.KnowledgeBase(kb_path))
    assert mixed.records == plain.records
    assert len(mixed.tool_results) == len(plain.tool_results) + len(answer_lines)
    queries = [v for v, _ in gen.template_vectors(templates, TOOLS_DIR / "fake_miri.py").values()]
    candidates = signature_candidates(gen._SIGNATURES)

    def outcomes(engine, query):
        ranked = [c.id for c in engine.rank_solutions(candidates, query)]
        hit = engine.best_hit(query)
        return ranked, None if hit is None else (hit[0], engine.records.index(hit[1]))

    assert [outcomes(mixed, q) for q in queries] == [outcomes(plain, q) for q in queries]
