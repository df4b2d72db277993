"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its expected behaviour up front and verifies it against an
independent oracle where numbers are involved: pruning against a re-derived
keep rule, rollback selection against an exhaustive scan, and confidence
intervals against a numerical root finder.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import time
from pathlib import Path

import pytest

from conftest import (
    CORPUS_DIR,
    SEQUENCES_DIR,
    STUB_DETECTOR_ARG,
    copy_fixture,
    reports_of,
    run_session_on_copy,
    stub_detector_config,
)
from ubmend.agents import AGENT_FUNCTIONS, apply_patch, revert_patch
from ubmend.classifier import CodeFeature, classify_ops, locate_unsafe_regions
from ubmend.cli import (
    CaseResult,
    LogicalClock,
    build_report,
    compute_ci,
    load_manifest,
    main,
    repair_one,
)
from ubmend.detector import CaseMemo, TargetPackage, UbKind, UbReport
from ubmend.errors import (
    AgentFailure,
    NoGuardExpressible,
    NoSafeEquivalent,
    ProviderFailure,
    Unclassifiable,
)
from ubmend.fast import AgentKind, Provenance, RepairSolution, RepairStep
from ubmend.feedback import EvalTriplet, FeedbackEngine
from ubmend.kb import KnowledgeBase, extract_ast, prune
from ubmend.provider import (
    API_KEY_ENV,
    ProviderConfig,
    ProviderMode,
    ScriptedMockProvider,
    create_provider,
    transcript_entries,
    write_transcript,
)
from ubmend.rollback import SnapshotStore
from ubmend.slow import SessionConfig, Verdict, should_rollback
from ubmend.workspace import WorkingCopy


# --- criterion 1: pruning agrees with a brute-force restatement of the rule


ORACLE_KEYWORDS = frozenset(
    """
    as async await break const continue crate dyn else enum extern false fn
    for if impl in let loop match mod move mut pub ref return self Self
    static struct super trait true type union unsafe use where while
    """.split()
)

_TYPES = ["i32", "u8", "u64", "usize", "i16"]


def _gen_source(rng: random.Random, n_unsafe: int) -> str:
    fns: list[str] = []
    idx = 0
    for _ in range(rng.randint(1, 3)):
        ty = rng.choice(_TYPES)
        fns.append(
            f"fn calc_{idx}(seed_{idx}: {ty}) -> {ty} {{\n"
            f"    let out_{idx} = seed_{idx} + 1;\n"
            f"    out_{idx} * 2\n"
            f"}}\n"
        )
        idx += 1
    for _ in range(n_unsafe):
        flavor = rng.randint(0, 2)
        if flavor == 0:
            fns.append(
                f"fn touch_{idx}() -> i32 {{\n"
                f"    let mut cell_{idx} = 4i32;\n"
                f"    let ptr_{idx} = &mut cell_{idx} as *mut i32;\n"
                f"    unsafe {{\n"
                f"        *ptr_{idx} += 1;\n"
                f"    }}\n"
                f"    cell_{idx}\n"
                f"}}\n"
            )
        elif flavor == 1:
            # no identifiers inside: ancestors can only survive pass 2
            # through error-line overlap
            fns.append(
                f"fn blank_{idx}() {{\n"
                f"    unsafe {{\n"
                f"        7 + 1;\n"
                f"    }}\n"
                f"}}\n"
            )
        else:
            fns.append(
                f"unsafe fn direct_{idx}(raw_{idx}: *mut u8) {{\n"
                f"    *raw_{idx} = 0;\n"
                f"}}\n"
            )
        idx += 1
    rng.shuffle(fns)
    fns.append("fn main() {\n    let total_main = 3;\n    let _ = total_main;\n}\n")
    return "\n".join(fns)


def _own_identifiers(text: str) -> set[str]:
    out: set[str] = set()
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isascii() and (ch.isalnum() or ch == "_"):
            j = i
            while j < n and text[j].isascii() and (text[j].isalnum() or text[j] == "_"):
                j += 1
            run = text[i:j]
            k = 0
            while k < len(run) and run[k].isdigit():
                k += 1
            token = run[k:]
            if token and token not in ORACLE_KEYWORDS:
                out.add(token)
            i = j
        else:
            i += 1
    return out


def _own_contains_unsafe(source: str, lo: int, hi: int) -> bool:
    def wordish(ch: str) -> bool:
        return ch.isascii() and (ch.isalnum() or ch == "_")

    i = source.find("unsafe", lo)
    while i != -1 and i + 6 <= hi:
        before_ok = i == 0 or not wordish(source[i - 1])
        after_ok = i + 6 >= len(source) or not wordish(source[i + 6])
        if before_ok and after_ok:
            return True
        i = source.find("unsafe", i + 1)
    return False


def _own_line_ranges(source: str) -> dict[int, tuple[int, int]]:
    ranges: dict[int, tuple[int, int]] = {}
    offset = 0
    for number, line in enumerate(source.split("\n"), 1):
        ranges[number] = (offset, offset + len(line))
        offset += len(line) + 1
    return ranges


def _oracle_prune_ids(ast, reports) -> set[int]:
    source = ast.source
    kept = [n for n in ast.nodes if _own_contains_unsafe(source, n.span[0], n.span[1])]
    if not reports or not kept:
        return {n.id for n in kept}
    heads = [n for n in kept if n.is_unsafe]
    head_idents = [_own_identifiers(source[n.span[0]:n.span[1]]) for n in heads]
    ranges = _own_line_ranges(source)
    spans = [ranges[r.line] for r in reports if r.line is not None and r.line in ranges]
    result: set[int] = set()
    for node in kept:
        if node.is_unsafe:
            result.add(node.id)
            continue
        idents = _own_identifiers(source[node.span[0]:node.span[1]])
        if any(idents & hi for hi in head_idents):
            result.add(node.id)
            continue
        if any(s < node.span[1] and e > node.span[0] for s, e in spans):
            result.add(node.id)
    return result


def test_acceptance_01_pruning_matches_brute_force_enumeration():
    rng = random.Random(20240817)
    started = time.monotonic()
    pass2_shrank = False
    for case in range(24):
        n_unsafe = case % 6
        n_errors = (case // 6) % 4
        source = _gen_source(rng, n_unsafe)
        total_lines = source.count("\n") + 1
        reports = [
            UbReport(
                kind=UbKind.STACK_BORROW,
                file="main.rs",
                line=rng.randint(1, total_lines),
                message="synthetic report",
            )
            for _ in range(n_errors)
        ]
        if n_errors and rng.random() < 0.3:
            reports.append(
                UbReport(
                    kind=UbKind.UNKNOWN,
                    file="main.rs",
                    line=None,
                    message="synthetic, no location",
                )
            )
        ast = extract_ast(source)
        got = {n.id for n in prune(ast, reports)}
        want = _oracle_prune_ids(ast, reports)
        assert got == want, f"case {case}: pruning disagreed with the oracle"
        if n_unsafe == 0:
            assert got == set()
        pass1_only = _oracle_prune_ids(ast, [])
        if reports and got < pass1_only:
            pass2_shrank = True
    assert pass2_shrank, "no generated case exercised the error-relevance pass"
    assert time.monotonic() - started < 1.0


# --- criterion 2: rollback target selection and discard accounting


class _NullWorkspace:
    def restore(self, files: dict[str, str]) -> None:
        return None


def _scan_argmin(counts: list[int]) -> int:
    best = min(counts)
    return max(i for i, v in enumerate(counts) if v == best)


def test_acceptance_02_rollback_selection_and_discard_accounting():
    rng = random.Random(7151)
    traces = [[5], [2, 2, 2], [20] * 10, [0, 4, 4], [7, 7, 7, 7]]
    while len(traces) < 1000:
        length = rng.randint(1, 10)
        traces.append([rng.randint(0, 20) for _ in range(length)])
    files = {"main.rs": "fn main() {}"}
    ws = _NullWorkspace()
    started = time.monotonic()
    for counts in traces:
        adaptive = SnapshotStore()
        always_baseline = SnapshotStore()
        trace = [counts[0]]
        for store in (adaptive, always_baseline):
            store.record(0, files, reports_of(counts[0]))
        for value in counts[1:]:
            for store in (adaptive, always_baseline):
                store.record(store.latest_index() + 1, files, reports_of(value))
            trace.append(value)
            assert adaptive.select_rollback_target() == _scan_argmin(trace)
            if should_rollback(trace):
                adaptive.restore(adaptive.select_rollback_target(), ws)
                always_baseline.restore(0, ws)
        assert adaptive.stats.rollback_count == always_baseline.stats.rollback_count
        assert (
            adaptive.stats.discarded_thoughts
            <= always_baseline.stats.discarded_thoughts
        )
    assert time.monotonic() - started < 5.0


# --- criterion 3: session trace semantics, recorded and replayed


def _sequence_region(directives: int, variant: int) -> str:
    lines = ["unsafe {", f"        let probe = {variant}i32;"]
    for i in range(directives):
        lines.append(
            f"        //~UB attempting a write access using <{100 + 10 * variant + i}>"
            " at alloc900[0x0], but that tag does not exist in the borrow stack"
            " for this location"
        )
    lines.append("        probe")
    lines.append("    }")
    return "\n".join(lines)


def _sequence_rules(mapping: dict[int, int]) -> list[tuple[str, str]]:
    return [
        (
            f"variant {variant}",
            f"scripted rewrite\n\n```rust\n{_sequence_region(directives, variant)}\n```",
        )
        for variant, directives in mapping.items()
    ]


def _sequence_solution() -> RepairSolution:
    steps = [
        RepairStep(
            agent=AgentKind.MODIFY_SEMANTICS,
            target_region="main.rs#0",
            instruction=f"variant {k}",
        )
        for k in range(1, 5)
    ]
    return RepairSolution(id="s01", steps=steps)


def _run_sequence(fixture: Path, provider, memo: CaseMemo):
    target = TargetPackage.from_path(fixture)
    config = SessionConfig(detector=stub_detector_config(), kb_enabled=False, memo=memo)
    return run_session_on_copy(target, [_sequence_solution()], provider=provider, config=config)


def test_acceptance_03_session_traces_convergent_and_divergent(tmp_path):
    # shrinking (with one detour) trace: 3 -> 1 -> 5 (rolled back) -> 2 -> 0
    rules = _sequence_rules({1: 1, 2: 5, 3: 2, 4: 0})
    mock = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)
    memo = CaseMemo()
    fixture = SEQUENCES_DIR / "convergent"
    out = _run_sequence(fixture, mock, memo)
    assert out.verdict is Verdict.PASS
    assert out.trace.counts == [3, 1, 5, 2, 0]
    assert out.stats.rollback_count == 1
    assert out.stats.discarded_thoughts == 1
    transcript = tmp_path / "convergent.jsonl"
    write_transcript(transcript, transcript_entries(memo, mock.config))
    replayer = create_provider(
        ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=transcript)
    )
    replayed = _run_sequence(fixture, replayer, CaseMemo())
    assert replayed.to_dict() == out.to_dict()

    # monotonically worsening trace: every step triggers a rollback and the
    # final state is the untouched baseline
    rules = _sequence_rules({1: 3, 2: 4, 3: 6, 4: 9})
    mock = ScriptedMockProvider(ProviderConfig(mode=ProviderMode.SCRIPTED_MOCK), rules=rules)
    memo = CaseMemo()
    fixture = SEQUENCES_DIR / "divergent"
    baseline_text = (fixture / "main.rs").read_text(encoding="utf-8")
    out = _run_sequence(fixture, mock, memo)
    assert out.verdict is Verdict.FAILED
    assert out.trace.counts == [1, 3, 4, 6, 9]
    assert out.stats.rollback_count == 4
    assert out.final_source == {"main.rs": baseline_text}
    assert out.final_errors == 1
    transcript = tmp_path / "divergent.jsonl"
    write_transcript(transcript, transcript_entries(memo, mock.config))
    replayer = create_provider(
        ProviderConfig(mode=ProviderMode.REPLAY, transcript_path=transcript)
    )
    replayed = _run_sequence(fixture, replayer, CaseMemo())
    assert replayed.to_dict() == out.to_dict()


# --- criterion 4: dataset runs reproduce byte for byte under replay


def test_acceptance_04_bench_replay_is_byte_identical(tmp_path, capsys):
    manifest = CORPUS_DIR / "manifest.jsonl"
    transcript = tmp_path / "bench.jsonl"
    base = [
        "bench",
        str(manifest),
        "--detector-cmd",
        STUB_DETECTOR_ARG,
        "--fixed-clock",
        "--report",
        "json",
        "--transcript",
        str(transcript),
    ]
    started = time.monotonic()
    assert main(base) == 0
    recorded = capsys.readouterr().out
    outputs = []
    for _ in range(3):
        assert main(base + ["--provider", "replay"]) == 0
        outputs.append(capsys.readouterr().out)
    assert time.monotonic() - started < 120.0
    assert outputs[0] == recorded
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]
    payload = json.loads(recorded)
    assert payload["totals"]["cases"] == 12
    assert payload["pass_rate"] == 1.0
    assert payload["exec_rate"] <= payload["pass_rate"]
    if shutil.which("rustc"):
        # one case has no reference bundle and one repairs to divergent
        # output, so two cases cannot count as accepted
        assert payload["totals"]["accepted"] == 10


# --- criterion 5: rates, their ordering, and Wilson intervals


def _wilson_oracle(successes: int, trials: int, confidence: float = 0.95):
    from scipy.optimize import brentq
    from scipy.stats import norm

    z = norm.ppf(0.5 + confidence / 2.0)
    phat = successes / trials

    def g(p: float) -> float:
        return (phat - p) ** 2 - z * z * p * (1.0 - p) / trials

    eps = 1e-12
    lo = 0.0 if successes == 0 else brentq(g, 0.0, min(phat, 1.0 - eps), xtol=1e-13)
    hi = 1.0 if successes == trials else brentq(g, max(phat, eps), 1.0, xtol=1e-13)
    return lo, hi


def _case(cid: str, verdict: str, acceptability: bool | None) -> CaseResult:
    return CaseResult(
        id=cid,
        kind="stack_borrow",
        verdict=verdict,
        acceptability=acceptability,
        baseline_errors=1,
        final_errors=0 if verdict in ("pass", "semantic_pass") else 1,
        thoughts=1,
        rollbacks=0,
        tokens=100,
        seconds_kb=1.0,
        seconds_plain=2.0,
    )


def test_acceptance_05_rates_and_wilson_intervals():
    # 10 cases, 9 repaired, 8 of those behaviour-preserving
    cases = [_case(f"c{i:02d}", "semantic_pass", True) for i in range(1, 9)]
    cases.append(_case("c09", "pass", None))
    cases.append(_case("c10", "failed", False))
    report = build_report(cases)
    assert report.pass_rate == 0.9
    assert report.exec_rate == 0.8

    rng = random.Random(90210)
    for _ in range(1000):
        n = rng.randint(1, 25)
        rows = []
        for i in range(n):
            verdict = rng.choice(["pass", "semantic_pass", "failed", "budget_exhausted"])
            triplet = EvalTriplet(
                accuracy=verdict in ("pass", "semantic_pass"),
                acceptability=rng.choice([True, False, None]),
                overhead_seconds=1.0,
                overhead_tokens=1,
            )
            rows.append(_case(f"r{i:03d}", verdict, triplet.acceptability))
        randomized = build_report(rows)
        assert randomized.exec_rate <= randomized.pass_rate

    assert compute_ci(0, 10, 0.95) == pytest.approx((0.0, 0.2775327998628915), abs=1e-9)
    assert compute_ci(10, 10, 0.95) == pytest.approx((0.7224672001371085, 1.0), abs=1e-9)
    for trials in (1, 2, 3, 5, 7, 10, 13, 40, 100):
        for successes in range(trials + 1):
            got = compute_ci(successes, trials, 0.95)
            want = _wilson_oracle(successes, trials, 0.95)
            assert got[0] == pytest.approx(want[0], abs=1e-9)
            assert got[1] == pytest.approx(want[1], abs=1e-9)


# --- criterion 6: recorded experience drives the ranking


def test_acceptance_06_experience_reranks_recorded_solution_first(tmp_path, mock_provider):
    case = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    target = TargetPackage.from_path(case)
    target.validate()
    engine = FeedbackEngine(None, kb=KnowledgeBase(None))
    settings = SessionConfig(
        memo=CaseMemo(),
        detector=stub_detector_config(),
        solutions_k=4,
        budget=5,
        kb_enabled=True,
        clock=LogicalClock(),
    )
    outcome, triplet, _ = repair_one(target, mock_provider, engine, settings)
    assert outcome.verdict is Verdict.PASS
    assert triplet.accuracy is True
    assert len(engine.records) == 1
    record = engine.records[0]
    assert not record.feature_vector.is_zero

    recorded = RepairSolution(
        id="recorded",
        steps=[
            RepairStep(agent=AgentKind(agent), target_region="main.rs#0", instruction=text)
            for agent, text in record.solution_signature
        ],
    )
    decoys = [
        RepairSolution(
            id=f"decoy{i}",
            steps=[
                RepairStep(
                    agent=AgentKind.MODIFY_SEMANTICS,
                    target_region="main.rs#0",
                    instruction=f"unrelated plan {i}",
                )
            ],
        )
        for i in (1, 2)
    ]
    candidates = [decoys[0], decoys[1], recorded]
    ranked = engine.rank_solutions(candidates, record.feature_vector)
    assert ranked[0] is recorded
    assert recorded.provenance is Provenance.FEEDBACK_RANKED

    # without any experience the candidate order is untouched
    fresh = FeedbackEngine(None, kb=None)
    plain = [
        RepairSolution(
            id=f"p{i}",
            steps=[
                RepairStep(
                    agent=AgentKind.MODIFY_SEMANTICS,
                    target_region="main.rs#0",
                    instruction=f"plan {i}",
                )
            ],
        )
        for i in range(3)
    ]
    reranked = fresh.rank_solutions(plain, record.feature_vector)
    assert [s.id for s in reranked] == [s.id for s in plain]
    assert all(s.provenance is Provenance.GENERATED for s in reranked)

    # a later repair of the target recalls it and tries it before planning:
    # one fetched answer, the fix, as the first repair needed one, the plan
    # whose code answered its fix
    first_calls = mock_provider.calls
    settings.memo = CaseMemo()
    again, _, _ = repair_one(target, mock_provider, engine, settings)
    assert again.verdict is Verdict.PASS
    assert again.solution_id == "s00"
    assert (first_calls, mock_provider.calls - first_calls) == (1, 1)


# --- criterion 7: patches round-trip; guards only ever insert


def _is_line_subsequence(before: list[str], after: list[str]) -> bool:
    i = 0
    for line in after:
        if i < len(before) and line == before[i]:
            i += 1
    return i == len(before)


def test_acceptance_07_patches_round_trip_and_guards_insert_only(mock_provider):
    cases = load_manifest(CORPUS_DIR / "manifest.jsonl")
    total_patches = 0
    guard_patches = 0
    abstained = 0
    for case in cases:
        target = TargetPackage.from_path(case.path)
        target.validate()
        entry = target.entry_files[0]
        for agent_kind in (
            AgentKind.SAFE_REPLACE,
            AgentKind.ADD_ASSERTION,
            AgentKind.MODIFY_SEMANTICS,
        ):
            ws = WorkingCopy(target)
            try:
                originals = ws.files()
                source = ws.read(entry)
                region = locate_unsafe_regions(source, entry)[0]
                try:
                    ops = classify_ops(region)
                except Unclassifiable:
                    ops = frozenset()
                feature = CodeFeature(
                    region=region,
                    op_kinds=ops,
                    ub_kinds=frozenset({UbKind(case.ub_kind)}),
                    ref=f"{entry}#0",
                )
                try:
                    patch = AGENT_FUNCTIONS[agent_kind](
                        region, feature.ub_kinds, mock_provider, "tighten the region"
                    )
                except (NoSafeEquivalent, NoGuardExpressible, AgentFailure, ProviderFailure):
                    abstained += 1
                    continue
                total_patches += 1
                apply_patch(patch, ws)
                assert ws.read(patch.file) != originals[patch.file]
                revert_patch(patch, ws)
                assert ws.files() == originals
                if agent_kind is AgentKind.ADD_ASSERTION:
                    guard_patches += 1
                    assert patch.before_text == region.snippet
                    assert _is_line_subsequence(
                        patch.before_text.splitlines(), patch.after_text.splitlines()
                    )
            finally:
                ws.cleanup()
    assert guard_patches == len(cases)
    assert total_patches >= 2 * len(cases)
    assert total_patches + abstained == 3 * len(cases)


# --- criterion 8: live smoke, only with credentials configured


@pytest.mark.live
@pytest.mark.skipif(
    not os.environ.get(API_KEY_ENV), reason="live provider credentials not configured"
)
def test_acceptance_08_live_smoke_with_real_model(tmp_path, capsys):
    kinds = ["stack_borrow", "dangling_pointer", "unaligned_pointer"]
    passes = 0
    for kind in kinds:
        case = copy_fixture(CORPUS_DIR / kind, tmp_path)
        code = main(
            [
                "fix",
                str(case),
                "--provider",
                "live",
                "--no-kb",
                "--solutions",
                "3",
                "--detector-cmd",
                STUB_DETECTOR_ARG,
            ]
        )
        capsys.readouterr()
        if code == 0:
            passes += 1
    assert passes >= 2
