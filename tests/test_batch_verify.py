"""Batch verification: how many detector runs a repair spawns.

A solution's consecutive fix steps on regions apart from each other are
patched one after the other and checked by one detection. These tests
count real spawns of the stub detector (``counting_miri.py``): a clean
batch costs one run, a single-region repair costs what it always did, and
a batch that fails costs at most one run more than going step by step.
"""

from __future__ import annotations

import json
import logging
import shlex
import sys

import pytest

from conftest import (
    CORPUS_DIR,
    FIXTURES_DIR,
    STUB_DETECTOR_ARG,
    SpyProvider,
    TOOLS_DIR,
    copy_fixture,
    counting_detector_command,
    run_session_on_copy,
    spawn_log,
    stub_detector_config,
)
from test_session_oracle import reference_run_session
from ubmend import classifier, cli, slow
from ubmend.cli import main, repair_one
from ubmend.detector import CaseMemo, DetectorConfig, TargetPackage
from ubmend.fast import AgentKind, RepairSolution, RepairStep
from ubmend.feedback import FeedbackEngine
from ubmend.provider import MARKER_FIX, MARKER_PLAN, ProviderConfig, ProviderMode, ScriptedMockProvider
from ubmend.slow import SessionConfig, Verdict

# UB messages whose kinds lead with a fix agent the scripted mock always applies
MESSAGES = (
    "trying to retag from <{n}> for Unique permission at alloc{n}[0x0]",
    "memory access failed: alloc{n} has been freed, so this pointer is dangling",
    "accessing memory based on pointer with alignment 1, but alignment 8 is required",
)


def regions_source(count: int) -> str:
    """A target with ``count`` unsafe blocks, one UB marker each, every
    block in a function of its own."""
    fns = []
    for i in range(count):
        fns.append(
            f"fn region_{i}(seed: i64) -> i64 {{\n"
            f"    let cell = seed * 3 + {i};\n"
            f"    let ptr = &cell as *const i64;\n"
            f"    let v = unsafe {{\n"
            f"        //~UB {MESSAGES[i % len(MESSAGES)].format(n=100 + i)}\n"
            f"        *ptr + {i + 1}\n"
            f"    }};\n"
            f"    v\n"
            f"}}\n"
        )
    calls = "".join(f'    println!("{{}}", region_{i}({i}));\n' for i in range(count))
    return "\n".join(fns) + f"\nfn main() {{\n{calls}}}\n"


def fix_args(path, log, *extra: str) -> list[str]:
    return [
        "fix",
        str(path),
        "--no-kb",
        "--fixed-clock",
        "--report",
        "json",
        "--detector-cmd",
        shlex.join(counting_detector_command(log)),
        *extra,
    ]


def test_a_clean_batch_spawns_the_baseline_and_one_detection(tmp_path, capsys):
    target = tmp_path / "main.rs"
    target.write_text(regions_source(6), encoding="utf-8")
    log = tmp_path / "spawns.jsonl"
    assert main(fix_args(target, log, "--max-iterations", "6")) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert payload["trace"]["counts"] == [6, 0, 0, 0, 0, 0, 0]
    assert [t["note"] for t in payload["trace"]["thoughts"]] == ["verified in batch 0-5"] * 6
    # the baseline and the batch; the session ends on the batch's snapshot
    assert len(spawn_log(log)) == 2


def test_a_detection_the_memo_cannot_keep_is_not_run_again_after_the_last_step(tmp_path, capsys):
    # output holding the text {root} is never memoised, so a detection after
    # the last step would spawn the tool again for the bytes it last checked
    wrapper = tmp_path / "root_note_miri.py"
    wrapper.write_text(
        "import runpy, sys\n"
        "print('note: paths below are relative to {root}')\n"
        f"sys.argv = [{str(TOOLS_DIR / 'counting_miri.py')!r}, *sys.argv[1:]]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n",
        encoding="utf-8",
    )
    case = copy_fixture(CORPUS_DIR / "alloc", tmp_path)
    log = tmp_path / "spawns.jsonl"
    command = (sys.executable, str(wrapper), *counting_detector_command(log)[2:])
    args = fix_args(case, log)
    args[args.index("--detector-cmd") + 1] = shlex.join(command)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    # the baseline and the repaired state
    assert len(spawn_log(log)) == 2


def test_a_follow_up_page_detects_no_snapshot_the_memo_cannot_keep(tmp_path, capsys):
    # t01 at the default budget asks follow-up pages; behind a tool whose
    # output holds the text {root}, a detection made to plan one would
    # spawn again for the best snapshot's bytes
    wrapper = tmp_path / "root_note_miri.py"
    wrapper.write_text(
        "import runpy, sys\n"
        "print('note: paths below are relative to {root}')\n"
        f"sys.argv = [{str(TOOLS_DIR / 'counting_miri.py')!r}, *sys.argv[1:]]\n"
        "runpy.run_path(sys.argv[0], run_name='__main__')\n",
        encoding="utf-8",
    )
    case = copy_fixture(FIXTURES_DIR / "large" / "t01", tmp_path)
    plain_log, noted_log = tmp_path / "plain.jsonl", tmp_path / "noted.jsonl"
    main(fix_args(case, plain_log))
    capsys.readouterr()
    args = fix_args(case, noted_log)
    args[args.index("--detector-cmd") + 1] = shlex.join(
        (sys.executable, str(wrapper), *counting_detector_command(noted_log)[2:])
    )
    main(args)
    assert len(spawn_log(plain_log)) == 7
    # one more: the failed batch's replay reaches the batch's bytes again
    assert len(spawn_log(noted_log)) == 8


def test_a_single_region_fixture_spawns_as_before(tmp_path, capsys):
    case = copy_fixture(CORPUS_DIR / "alloc", tmp_path)
    log = tmp_path / "spawns.jsonl"
    assert main(fix_args(case, log)) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "pass"
    assert [t["note"] for t in payload["trace"]["thoughts"]] == [""]
    # the baseline and the repaired state, as when every step was verified alone
    assert len(spawn_log(log)) == 2


def test_regions_are_classified_once_per_baseline_feature(tmp_path, capsys, monkeypatch):
    # the agents read a region's UB kinds only, so a fix step classifies nothing
    classified = []
    original = classifier.classify_ops

    def counted(region):
        classified.append(region.byte_span)
        return original(region)

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("ubmend") and getattr(module, "classify_ops", None) is original:
            monkeypatch.setattr(module, "classify_ops", counted)
    target = tmp_path / "main.rs"
    target.write_text(regions_source(6), encoding="utf-8")
    assert main(fix_args(target, tmp_path / "spawns.jsonl", "--max-iterations", "6")) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "pass"
    assert len(classified) == len(set(classified)) == 6


# each fn reads through ``get_unchecked``; the safe rewrite drops the block's
# ``unsafe`` keyword, which renumbers the regions after it
RENUMBERING_SOURCE = "".join(
    f"fn pick_{i}(v: &[u8]) -> u8 {{\n"
    f"    let x = unsafe {{\n"
    f"        //~UB constructing invalid value at .<enum-tag>: encountered 0x0{i + 2}, but expected a valid enum tag\n"
    f"        *v.get_unchecked({i})\n"
    f"    }};\n"
    f"    x\n"
    f"}}\n\n"
    for i in range(3)
) + (
    "fn main() {\n"
    "    let v = vec![1u8, 2, 3];\n"
    + "".join(f'    println!("{{}}", pick_{i}(&v));\n' for i in range(3))
    + "}\n"
)


def test_a_batch_follows_its_regions_through_earlier_patches(tmp_path):
    path = tmp_path / "main.rs"
    path.write_text(RENUMBERING_SOURCE, encoding="utf-8")
    log = tmp_path / "spawns.jsonl"
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(log), timeout=30.0),
        kb_enabled=False,
        clock=cli.LogicalClock(),
    )
    provider = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK))
    outcome, _, _ = repair_one(TargetPackage.from_path(path), provider, FeedbackEngine(), settings)
    assert outcome.verdict is Verdict.PASS
    assert outcome.solution_id == "s01"
    assert outcome.thought_count == 3
    thoughts = outcome.trace.thoughts
    assert [t.step.agent for t in thoughts] == [AgentKind.SAFE_REPLACE] * 3
    assert [t.step.target_region for t in thoughts] == ["main.rs#0", "main.rs#1", "main.rs#2"]
    final = outcome.final_source["main.rs"]
    assert "unsafe" not in final and "get_unchecked" not in final
    for i in range(3):
        assert f"v[{i}]" in final
    assert len(spawn_log(log)) == 2


def test_steps_outside_a_batch_follow_their_regions_through_earlier_patches(
    tmp_path, monkeypatch, caplog
):
    monkeypatch.setattr(slow, "_form_batch", lambda *args: [])
    path = tmp_path / "main.rs"
    path.write_text(RENUMBERING_SOURCE, encoding="utf-8")
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(tmp_path / "spawns.jsonl"), timeout=30.0),
        kb_enabled=False,
        clock=cli.LogicalClock(),
    )
    provider = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK))
    with caplog.at_level(logging.INFO):
        outcome, _, _ = repair_one(TargetPackage.from_path(path), provider, FeedbackEngine(), settings)
    assert not [r for r in caplog.records if "unresolvable" in r.getMessage()]
    assert outcome.verdict is Verdict.PASS
    assert outcome.solution_id == "s01"
    thoughts = outcome.trace.thoughts
    assert [t.step.target_region for t in thoughts] == ["main.rs#0", "main.rs#1", "main.rs#2"]
    # pick_i reads index i: each patch replaces the body of its own function
    assert all(f"get_unchecked({i})" in t.patch.before_text for i, t in enumerate(thoughts))


# the message of RENUMBERING_SOURCE's first block
_PICK_UB = "//~UB constructing invalid value at .<enum-tag>: encountered 0x02, but expected a valid enum tag"


def _pick_session(tmp_path, steps, rules):
    """The outcome of one solution of ``steps`` on RENUMBERING_SOURCE, with
    fix prompts holding a rule's instruction answered by its rewrite."""
    path = tmp_path / "main.rs"
    path.write_text(RENUMBERING_SOURCE, encoding="utf-8")
    answers = [(instruction, f"rewrite\n\n```rust\n{code}\n```") for instruction, code in rules]
    provider = SpyProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=answers)
    config = SessionConfig(memo=CaseMemo(), detector=stub_detector_config(), kb_enabled=False)
    return run_session_on_copy(
        TargetPackage.from_path(path), [RepairSolution("s01", steps)], provider=provider, config=config
    )


def test_a_failed_batch_replays_each_step_on_its_own_region(tmp_path, caplog):
    # the rewrite of pick_1 keeps its UB, so the batch is not clean; in the
    # replay, pick_0's safe rewrite drops its ``unsafe`` before pick_1 and
    # pick_2 take their turns
    steps = [
        RepairStep(AgentKind.SAFE_REPLACE, "main.rs#0", "<swap 0>"),
        RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#1", "<keep the UB>"),
        RepairStep(AgentKind.SAFE_REPLACE, "main.rs#2", "<swap 2>"),
    ]
    kept = f"unsafe {{\n        {_PICK_UB}\n        *v.get_unchecked(1) + 0\n    }}"
    with caplog.at_level(logging.INFO):
        outcome = _pick_session(tmp_path, steps, [("<keep the UB>", kept)])
    messages = [r.getMessage() for r in caplog.records]
    assert any("not clean; replaying step by step" in m for m in messages)
    assert not [m for m in messages if "unresolvable" in m]
    assert outcome.verdict is Verdict.FAILED
    thoughts = outcome.trace.thoughts
    assert [t.note for t in thoughts] == ["", "", ""]
    assert outcome.trace.counts == [3, 2, 2, 1]
    # pick_i reads index i: each patch replaces the block of its own function
    assert all(f"get_unchecked({i})" in t.patch.before_text for i, t in enumerate(thoughts))
    final = outcome.final_source["main.rs"]
    assert final.count("unsafe") == 1 and "v[0]" in final and "v[2]" in final


@pytest.mark.parametrize(
    ("ub_lines", "rollback_step"),
    [(2, True), (5, False)],
    ids=["rollback-step", "rollback-trigger"],
)
def test_a_step_after_a_restore_finds_its_region_in_the_restored_bytes(tmp_path, ub_lines, rollback_step):
    # pick_0's rewrite drops its ``unsafe`` and raises the count; going back
    # to the baseline, by a Rollback step or by the trigger (above twice the
    # lowest count), drops that patch, and pick_1's step finds its block
    # where the baseline has it
    worse = "{\n" + "".join(f"        {_PICK_UB}\n" for _ in range(ub_lines)) + "        v[0]\n    }"
    fixed = "unsafe {\n        *v.get_unchecked(1)\n    }"
    steps = [RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "<worse>")]
    if rollback_step:
        steps.append(RepairStep(AgentKind.ROLLBACK, "main.rs#0", "restore"))
    steps.append(RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#1", "<fix 1>"))
    outcome = _pick_session(tmp_path, steps, [("<worse>", worse), ("<fix 1>", fixed)])
    assert outcome.stats.rollback_count == 1
    assert outcome.trace.counts == [3, 2 + ub_lines, 2]
    region = classifier.locate_unsafe_regions(RENUMBERING_SOURCE, "main.rs")[1]
    patch = outcome.trace.thoughts[1].patch
    assert (tuple(patch.before_span), patch.before_text) == (region.byte_span, region.snippet)
    assert outcome.final_source["main.rs"] == RENUMBERING_SOURCE.replace(region.snippet, fixed)


def test_a_bench_of_the_three_region_target_replays_byte_for_byte(tmp_path, capsys):
    # the plan's code answers every fix: the transcript holds those answers,
    # and a replay reads them from the plan's recorded answer alike
    (tmp_path / "main.rs").write_text(RENUMBERING_SOURCE, encoding="utf-8")
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "r3", "path": "main.rs", "ub_kind": "validity"}) + "\n")
    transcript = tmp_path / "t.jsonl"
    args = [
        "bench", str(manifest), "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock",
        "--report", "json", "--transcript", str(transcript), "--jobs", "1",
    ]
    assert main(args) == 0
    recorded = capsys.readouterr().out
    entries = [json.loads(line) for line in transcript.read_text(encoding="utf-8").splitlines()]
    assert [MARKER_PLAN in e["prompt"]["messages"][0]["content"] for e in entries] == [True] + [False] * 3
    assert main(args + ["--provider", "replay"]) == 0
    assert capsys.readouterr().out == recorded
    assert json.loads(recorded)["cases"][0]["verdict"] == "pass"


class _NoPlanCode(ScriptedMockProvider):
    """The scripted mock writing no code into its plans: every fix step asks
    its agent, as before plans carried code."""

    def _step_code(self, *args) -> None:
        return None


def test_plan_code_makes_the_patches_asking_each_agent_makes(tmp_path, capsys, monkeypatch):
    def patches(provider_class) -> tuple[dict[str, list], int]:
        monkeypatch.setattr(cli, "create_provider", lambda config: provider_class(config))
        out, tokens = {}, 0
        for case in sorted(p for p in CORPUS_DIR.iterdir() if (p / "main.rs").is_file()):
            args = ["fix", str(case / "main.rs"), "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", "--report", "json"]
            main(args)
            report = json.loads(capsys.readouterr().out)
            tokens += report["triplet"]["overhead_tokens"]
            out[case.name] = [report["verdict"], report["trace"]["counts"]] + [
                [t["patch"][k] for k in ("before_span", "before_text", "after_text", "agent")]
                for t in report["trace"]["thoughts"]
                if t["patch"] is not None
            ]
        return out, tokens

    (written, cheaper), (asked, dearer) = patches(ScriptedMockProvider), patches(_NoPlanCode)
    assert len(written) == 12 and all(len(v) > 2 for v in written.values())
    assert written == asked and cheaper < dearer


def test_a_three_region_target_makes_one_plan_call_before_its_first_fix(tmp_path):
    # the plan's code answers all three fixes: the plan is the only call
    path = tmp_path / "main.rs"
    path.write_text(RENUMBERING_SOURCE, encoding="utf-8")
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(tmp_path / "spawns.jsonl"), timeout=30.0),
        kb_enabled=False,
        clock=cli.LogicalClock(),
    )
    provider = SpyProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK))
    outcome, _, _ = repair_one(TargetPackage.from_path(path), provider, FeedbackEngine(), settings)
    assert outcome.verdict is Verdict.PASS
    assert len(provider.prompts) == 1 and MARKER_PLAN in provider.prompts[0]
    regions = classifier.locate_unsafe_regions(RENUMBERING_SOURCE, "main.rs")
    assert [provider.prompts[0].count(r.snippet) for r in regions] == [1, 1, 1]
    assert provider.calls == 1


# --- a batch that fails is replayed step by step --------------------------------


def _fenced(line: str) -> str:
    return f"rewrite\n\n```rust\nunsafe {{\n        {line}\n        *ptr + 1\n    }}\n```"


def _spawns(session, path, plan, tmp_path, name) -> tuple[object, list[str], int]:
    """Outcome, prompts asked and detector spawns of ``session`` on one plan:
    a solution of ModifySemantics steps, the i-th answered with ``plan[i]``."""
    log = tmp_path / f"{name}.jsonl"
    steps, rules = [], []
    for i, line in enumerate(plan):
        instruction = f"<step {i}>"
        steps.append(RepairStep(AgentKind.MODIFY_SEMANTICS, f"main.rs#{i}", instruction))
        rules.append((instruction, _fenced(line)))
    provider = SpyProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)
    config = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(log), timeout=30.0), budget=5
    )
    outcome = session(
        TargetPackage.from_path(path), [RepairSolution("s01", steps)], provider=provider, config=config
    )
    return outcome, provider.prompts, len(spawn_log(log))


def _compare(tmp_path, plan) -> tuple[int, int]:
    path = tmp_path / "main.rs"
    path.write_text(regions_source(len(plan)), encoding="utf-8")
    expected, asked, stepwise = _spawns(reference_run_session, path, plan, tmp_path, "stepwise")
    actual, batch_asked, batched = _spawns(run_session_on_copy, path, plan, tmp_path, "batched")
    assert actual.to_dict() == expected.to_dict()
    # the replay reuses the batch's answers: each prompt reaches the model once
    assert batch_asked == asked
    return stepwise, batched


def test_a_batch_with_ub_left_costs_no_extra_run(tmp_path):
    plan = ["let _ = 0;", "//~UB trying to retag from <9> for Unique permission", "let _ = 2;"]
    stepwise, batched = _compare(tmp_path, plan)
    # the replay's last step reaches the batch's bytes, whose run is reused
    assert (stepwise, batched) == (4, 4)


def test_a_batch_that_fails_to_compile_costs_one_extra_run(tmp_path):
    plan = ["let _ = 0;", "//~COMPILE-ERROR cannot find value `w`", "let _ = 2;"]
    stepwise, batched = _compare(tmp_path, plan)
    assert (stepwise, batched) == (4, 5)


def test_a_follow_up_page_re_plans_without_a_spawn(tmp_path):
    from test_seeded_plan import _Stuck

    # s01 repairs regions 0 and 1 and never region 2, whose fix prompts get
    # no code; the follow-up page is planned on the best snapshot, whose
    # detection the memo holds
    path = tmp_path / "main.rs"
    path.write_text(regions_source(3), encoding="utf-8")
    log = tmp_path / "spawns.jsonl"
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=DetectorConfig(command=counting_detector_command(log), timeout=30.0),
        solutions_k=4,
        kb_enabled=False,
    )
    provider = _Stuck(ProviderConfig(), "alignment 8 is required")
    outcome, _, _ = repair_one(TargetPackage.from_path(path), provider, FeedbackEngine(), settings)
    # s04 is the follow-up page's last solution
    assert outcome.verdict is Verdict.FAILED and outcome.solution_id == "s04"
    spawns = [entry["files"] for entry in spawn_log(log)]
    # the baseline, s01's batch and its replay's first step, whose second
    # step reaches the batch's bytes: no bytes are detected twice
    assert len(spawns) == 3
    assert len({json.dumps(files, sort_keys=True) for files in spawns}) == 3
