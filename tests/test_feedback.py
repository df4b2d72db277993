"""Evaluation triplets, reference checks against rustc, and experience ranking."""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import asdict

import pytest

from conftest import counting_rustc, padded, process_gone
from ubmend import cli, feedback
from ubmend.detector import CaseMemo, UbKind
from ubmend.errors import StorageFailure
from ubmend.fast import AgentKind, Provenance, RepairSolution, RepairStep
from ubmend.feedback import (
    BYPASS_SIMILARITY,
    WEIGHT_ACCEPTED,
    WEIGHT_FAILED,
    WEIGHT_REPAIRED,
    EvalTriplet,
    ExperienceRecord,
    FeedbackEngine,
    ReferenceBundle,
    ReferenceExecutionFailure,
    folded,
    signature_of,
)
from ubmend.kb import FeatureVector, KnowledgeBase, cosine

HAS_RUSTC = shutil.which("rustc") is not None
needs_rustc = pytest.mark.skipif(not HAS_RUSTC, reason="rustc not on PATH")


def _triplet(accuracy=True, acceptability=None, secs=1.0, toks=10):
    return EvalTriplet(
        accuracy=accuracy, acceptability=acceptability,
        overhead_seconds=secs, overhead_tokens=toks,
    )


def _vec(*values) -> FeatureVector:
    return FeatureVector(padded(values))


def _solution(instruction="rewrite it", agent=AgentKind.MODIFY_SEMANTICS, sid="s01"):
    return RepairSolution(
        id=sid,
        steps=[RepairStep(agent=agent, target_region="main.rs#0", instruction=instruction)],
    )


def _record(vec, solution, triplet=None, kind=UbKind.STACK_BORROW):
    return ExperienceRecord(
        feature_vector=vec,
        ub_kind=kind,
        solution_id=solution.id,
        triplet=triplet or _triplet(),
        solution_signature=signature_of(solution),
    )


# --- triplet invariants ---


def test_triplet_acceptability_forced_false_without_accuracy():
    t = EvalTriplet(accuracy=False, acceptability=True, overhead_seconds=0, overhead_tokens=0)
    assert t.acceptability is False


def test_triplet_none_acceptability_survives():
    t = _triplet(accuracy=True, acceptability=None)
    assert t.acceptability is None
    again = EvalTriplet.from_dict(asdict(t))
    assert again == t


def test_triplet_round_trip_all_states():
    for acc, acb in [(True, True), (True, False), (True, None), (False, None), (False, False)]:
        t = _triplet(accuracy=acc, acceptability=acb)
        assert EvalTriplet.from_dict(asdict(t)) == t


# --- signatures ---


def test_signature_uses_fix_steps_only():
    sol = RepairSolution(
        id="s01",
        steps=[
            RepairStep(AgentKind.REASON, "main.rs#0", "consult knowledge"),
            RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "Rewrite   It"),
            RepairStep(AgentKind.ROLLBACK, "main.rs#0", "go back"),
        ],
    )
    assert signature_of(sol) == (("ModifySemantics", "Rewrite   It"),)
    assert folded(signature_of(sol)) == (("ModifySemantics", "rewrite it"),)


def test_signature_matches_across_regions():
    a = RepairSolution(id="a", steps=[RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "swap")])
    b = RepairSolution(id="b", steps=[RepairStep(AgentKind.SAFE_REPLACE, "lib.rs#3", "swap")])
    assert signature_of(a) == signature_of(b)


def test_a_record_keeps_the_instruction_it_seeds_with():
    record = _record(_vec(1.0, 0.0), _solution("Swap in the safe API"))
    again = ExperienceRecord.from_dict(record.to_dict())
    seeded = cli._seeded_solution(again, "main.rs#2")
    assert [(s.agent, s.target_region, s.instruction) for s in seeded.steps] == [
        (AgentKind.MODIFY_SEMANTICS, "main.rs#2", "Swap in the safe API")
    ]


def test_a_lowercased_record_of_an_older_log_ranks_and_seeds_as_before():
    # logs written before signatures kept their case hold the instruction
    # lowercased with whitespace runs collapsed
    planned = _solution("Swap  in the safe API", sid="p1")
    other = _solution("rewrite it", sid="p2")
    old = ExperienceRecord.from_dict(
        {**_record(_vec(1.0, 0.0), planned).to_dict(),
         "solution_signature": [["ModifySemantics", "swap in the safe api"]]}
    )
    engine = FeedbackEngine()
    engine.records = [old]
    ranked = engine.rank_solutions([other, planned], _vec(1.0, 0.0))
    assert [s.id for s in ranked] == ["p1", "p2"]
    assert planned.provenance is Provenance.FEEDBACK_RANKED
    assert engine.signature_scores(_vec(1.0, 0.0)) == {
        (("ModifySemantics", "swap in the safe api"),): WEIGHT_REPAIRED
    }
    assert engine.keeps_first(planned, _vec(1.0, 0.0))
    assert not engine.keeps_first(other, _vec(1.0, 0.0))
    seeded = cli._seeded_solution(engine.best_hit(_vec(1.0, 0.0))[1], "main.rs#0")
    assert [s.instruction for s in seeded.steps] == ["swap in the safe api"]


# --- experience log ---


def test_record_round_trip_via_log(tmp_path):
    log = tmp_path / "exp.jsonl"
    engine = FeedbackEngine(log)
    rec = _record(_vec(1.0, 0.0), _solution())
    engine.record_experience(rec)

    reloaded = FeedbackEngine(log)
    assert len(reloaded.records) == 1
    got = reloaded.records[0]
    assert got.solution_signature == rec.solution_signature
    assert got.feature_vector == _vec(1.0, 0.0)
    assert got.ub_kind == UbKind.STACK_BORROW


def test_bad_log_line_raises(tmp_path):
    log = tmp_path / "exp.jsonl"
    log.write_text('{"not": "a record"}\n')
    with pytest.raises(StorageFailure):
        FeedbackEngine(log)


def test_record_experience_feeds_kb_only_on_accuracy(tmp_path):
    kb = KnowledgeBase()
    engine = FeedbackEngine(None, kb=kb)
    sol = _solution()
    engine.record_experience(_record(_vec(1.0), sol, _triplet(accuracy=True)), solution=sol)
    assert len(kb.entries) == 1
    assert kb.entries[0].solution["steps"][0]["target_region"] == "<region>"

    engine.record_experience(_record(_vec(1.0), sol, _triplet(accuracy=False)), solution=sol)
    assert len(kb.entries) == 1
    # zero vectors stay out of the store
    engine.record_experience(_record(_vec(0.0), sol, _triplet(accuracy=True)), solution=sol)
    assert len(kb.entries) == 1
    # without the concrete solution there is nothing to template
    engine.record_experience(_record(_vec(1.0), sol, _triplet(accuracy=True)))
    assert len(kb.entries) == 1


# --- ranking ---


def test_weight_tiers():
    engine = FeedbackEngine()
    assert engine._weight(_triplet(True, True)) == WEIGHT_ACCEPTED == 1.0
    assert engine._weight(_triplet(True, None)) == WEIGHT_REPAIRED == 0.5
    assert engine._weight(_triplet(True, False)) == WEIGHT_REPAIRED
    assert engine._weight(_triplet(False, None)) == WEIGHT_FAILED == -0.25


def test_rank_prefers_accepted_experience():
    engine = FeedbackEngine()
    good = _solution("the known fix", sid="s03")
    other = _solution("untested idea", sid="s01")
    engine.records.append(_record(_vec(1.0, 0.0), good, _triplet(True, True)))

    ranked = engine.rank_solutions([other, good], _vec(1.0, 0.0))
    assert [s.id for s in ranked] == ["s03", "s01"]
    assert ranked[0].provenance == Provenance.FEEDBACK_RANKED
    assert ranked[1].provenance == Provenance.GENERATED


def test_rank_pushes_failures_down():
    engine = FeedbackEngine()
    burnt = _solution("known bad", sid="s01")
    fresh = _solution("untried", sid="s02")
    engine.records.append(_record(_vec(1.0), burnt, _triplet(accuracy=False)))
    ranked = engine.rank_solutions([burnt, fresh], _vec(1.0))
    assert [s.id for s in ranked] == ["s02", "s01"]


def test_rank_scores_by_similarity_times_weight():
    engine = FeedbackEngine()
    accepted_far = _solution("accepted but dissimilar", sid="s01")
    repaired_near = _solution("repaired and identical", sid="s02")
    # cosine 0.6 * 1.0 = 0.6 vs cosine 1.0 * 0.5 = 0.5
    engine.records.append(_record(_vec(3.0, 4.0), accepted_far, _triplet(True, True)))
    engine.records.append(_record(_vec(1.0, 0.0), repaired_near, _triplet(True, None)))
    ranked = engine.rank_solutions([repaired_near, accepted_far], _vec(1.0, 0.0))
    assert [s.id for s in ranked] == ["s01", "s02"]


def test_rank_takes_best_record_per_signature():
    engine = FeedbackEngine()
    sol = _solution("mixed history", sid="s01")
    other = _solution("nothing known", sid="s02")
    engine.records.append(_record(_vec(1.0, 0.0), sol, _triplet(accuracy=False)))
    engine.records.append(_record(_vec(1.0, 0.0), sol, _triplet(True, True)))
    ranked = engine.rank_solutions([other, sol], _vec(1.0, 0.0))
    assert ranked[0].id == "s01"


def test_rank_keeps_order_without_signal():
    engine = FeedbackEngine()
    a, b = _solution("a", sid="s01"), _solution("b", sid="s02")
    assert [s.id for s in engine.rank_solutions([a, b], _vec(1.0))] == ["s01", "s02"]
    engine.records.append(_record(_vec(1.0), _solution("c"), _triplet()))
    assert [s.id for s in engine.rank_solutions([a, b], _vec(0.0))] == ["s01", "s02"]
    # records exist but match neither candidate: stable order
    assert [s.id for s in engine.rank_solutions([a, b], _vec(1.0))] == ["s01", "s02"]
    assert a.provenance == Provenance.GENERATED


def test_best_hit_threshold_and_accuracy_gate():
    engine = FeedbackEngine()
    sol = _solution()
    engine.records.append(_record(_vec(1.0, 0.0), sol, _triplet(accuracy=True)))
    engine.records.append(_record(_vec(0.0, 1.0), sol, _triplet(accuracy=False)))

    hit = engine.best_hit(_vec(1.0, 0.0))
    assert hit is not None
    sim, rec = hit
    assert sim == pytest.approx(1.0)
    assert rec.triplet.accuracy
    # orthogonal query finds nothing: the only aligned record failed
    assert engine.best_hit(_vec(0.0, 1.0)) is None
    assert engine.best_hit(_vec(0.0, 0.0)) is None


def test_best_hit_respects_bypass_similarity_constant():
    engine = FeedbackEngine()
    sol = _solution()
    engine.records.append(_record(_vec(1.0, 0.0), sol))
    just_below = _vec(1.0, 0.35)  # cosine ~0.944
    just_above = _vec(1.0, 0.25)  # cosine ~0.970
    assert cosine(just_below, _vec(1.0, 0.0)) < BYPASS_SIMILARITY < cosine(just_above, _vec(1.0, 0.0))
    assert engine.best_hit(just_below) is None
    assert engine.best_hit(just_above) is not None


# --- reference bundles (real compiler) ---

GOOD_PROGRAM = 'fn main() {\n    println!("total=31");\n}\n'


def _bundle(tmp_path, stdout="total=31\n", exit_code=None, name="ref"):
    d = tmp_path / name
    d.mkdir(exist_ok=True)
    (d / "expected_stdout.txt").write_text(stdout)
    if exit_code is not None:
        (d / "expected_exit.txt").write_text(str(exit_code))
    return ReferenceBundle.from_dir(d)


def test_from_dir_requires_expected_stdout(tmp_path):
    empty = tmp_path / "ref"
    empty.mkdir()
    with pytest.raises(StorageFailure):
        ReferenceBundle.from_dir(empty)


@pytest.mark.parametrize(
    ("name", "content"),
    [
        ("expected_exit.txt", b"zero\n"),
        ("expected_exit.txt", b"\xff\xfe1\n"),
    ],
)
def test_from_dir_names_an_unreadable_file(tmp_path, name, content):
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "expected_stdout.txt").write_text("total=31\n")
    (ref / name).write_bytes(content)
    with pytest.raises(StorageFailure, match=str(ref / name)):
        ReferenceBundle.from_dir(ref)


@pytest.mark.parametrize("content", [b"{prog} > /dev/null\n", b""])
def test_from_dir_refuses_a_bundle_with_tests_cmd(tmp_path, content):
    # its tests are not run, so the bundle cannot be judged as its author asked
    ref = tmp_path / "ref"
    ref.mkdir()
    (ref / "expected_stdout.txt").write_text("total=31\n")
    (ref / "tests.cmd").write_bytes(content)
    with pytest.raises(StorageFailure, match=f"^{ref / 'tests.cmd'}: "):
        ReferenceBundle.from_dir(ref)


@needs_rustc
def test_check_accepts_matching_program(tmp_path):
    bundle = _bundle(tmp_path)
    assert bundle.check({"main.rs": GOOD_PROGRAM}, "main.rs", memo=CaseMemo()) is True


@needs_rustc
def test_check_rejects_wrong_stdout(tmp_path):
    bundle = _bundle(tmp_path, stdout="total=99\n")
    assert bundle.check({"main.rs": GOOD_PROGRAM}, "main.rs", memo=CaseMemo()) is False


@needs_rustc
def test_check_compares_exit_codes(tmp_path):
    exits_2 = "use std::process::exit;\nfn main() {\n    exit(2);\n}\n"
    assert _bundle(tmp_path, stdout="", exit_code=2, name="a").check({"main.rs": exits_2}, "main.rs", memo=CaseMemo())
    assert not _bundle(tmp_path, stdout="", name="b").check({"main.rs": exits_2}, "main.rs", memo=CaseMemo())


@needs_rustc
def test_check_raises_on_compile_failure(tmp_path):
    bundle = _bundle(tmp_path)
    with pytest.raises(ReferenceExecutionFailure):
        bundle.check({"main.rs": "fn main() { undefined_symbol(); }\n"}, "main.rs", memo=CaseMemo())


@needs_rustc
def test_check_missing_entry_file(tmp_path):
    bundle = _bundle(tmp_path)
    with pytest.raises(ReferenceExecutionFailure):
        bundle.check({"lib.rs": GOOD_PROGRAM}, "main.rs", memo=CaseMemo())


@needs_rustc
def test_check_memo_compiles_each_source_once(tmp_path, monkeypatch):
    shim, compiles = counting_rustc(tmp_path / "shims")
    monkeypatch.setenv("PATH", f"{shim.parent}:{os.environ['PATH']}")
    memo = CaseMemo()
    bundle = _bundle(tmp_path)
    for _ in range(2):
        assert bundle.check({"main.rs": GOOD_PROGRAM}, "main.rs", memo=memo) is True
    assert compiles() == 1
    wrong = _bundle(tmp_path, stdout="total=99\n", name="other")
    assert wrong.check({"main.rs": GOOD_PROGRAM}, "main.rs", memo=memo) is False
    changed = {"main.rs": GOOD_PROGRAM.replace("31", "32")}
    assert bundle.check(changed, "main.rs", memo=memo) is False
    assert compiles() == 3
    broken = {"main.rs": "fn main() { undefined_symbol(); }\n"}
    for _ in range(2):
        with pytest.raises(ReferenceExecutionFailure):
            bundle.check(broken, "main.rs", memo=memo)
    assert compiles() == 5


@needs_rustc
def test_check_timeout_kills_the_whole_process_tree(tmp_path, monkeypatch):
    monkeypatch.setattr(feedback, "REFERENCE_RUN_TIMEOUT", 5.0)
    pid_file = tmp_path / "grandchild.pid"
    # the program starts a shell that forks a sleeper, and waits for both
    forks = (
        "use std::process::Command;\nfn main() {\n"
        f"    Command::new(\"sh\").arg(\"-c\").arg(\"sleep 60 & echo $! > {pid_file}; wait\")"
        ".status().unwrap();\n}\n"
    )
    started = time.monotonic()
    with pytest.raises(ReferenceExecutionFailure, match="timed out"):
        _bundle(tmp_path).check({"main.rs": forks}, "main.rs", memo=CaseMemo())
    assert time.monotonic() - started < 30
    assert process_gone(int(pid_file.read_text()))
