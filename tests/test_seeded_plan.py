"""Differential oracle for trying a recalled repair before planning.

``reference_repair_one`` is ``cli.repair_one`` as it stood when every run
asked for its whole plan (``--solutions`` plans in one prompt) before the
session started, and ``reference_rank`` is ranking as it stood when each
candidate scanned the whole experience log (signatures compared blind to
case and whitespace runs). They stay here as the references that the lazy,
paged plan and the one-pass scoring must match: the same verdicts, traces,
final sources and store lines, with only the tokens spent and the plan
answers kept allowed to differ. A repair keeps the answers of the plan
prompts asked for the solutions its session drew: the reference's one
eager prompt, the lazy run's pages.
"""

from __future__ import annotations

import json
import re
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    CORPUS_DIR,
    STUB_DETECTOR_ARG,
    load_perfbench,
    one_page,
    run_stub_in_process,
    stub_detector_config,
)
from ubmend import cli, detector, fast
from ubmend.detector import CaseMemo, TargetPackage, UbKind, run_detection
from ubmend.fast import (
    AgentKind,
    Provenance,
    RepairSolution,
    RepairStep,
    extract_features,
    parse_region_ref,
)
from ubmend.feedback import (
    EvalTriplet,
    ExperienceRecord,
    FeedbackEngine,
    signature_of,
)
from ubmend.kb import FeatureVector, cosine, feature_vector
from ubmend.prompts import fill, load_template
from ubmend.provider import (
    MARKER_FIX,
    MARKER_PLAN,
    MemoizedProvider,
    Provider,
    ProviderConfig,
    ScriptedMockProvider,
)
from ubmend.slow import ErrorTrace, SessionConfig, Verdict, run_session
from ubmend.workspace import WorkingCopy

REWRITE = ("ModifySemantics", "rewrite the region to remove the undefined behavior")
GUARD = ("AddAssertion", "insert guard assertions before each risky operation")
# the mock answers this instruction's fix prompt with no code block: the seed abstains
FAILING = ("ModifySemantics", "seeded rewrite that never comes back")
NO_CODE = "no fenced block in this answer"


def _shape(signature) -> list:
    return [(agent, " ".join(text.split()).lower()) for agent, text in signature]


def reference_rank(engine: FeedbackEngine, candidates, feature_vector):
    if not engine.records or feature_vector.is_zero:
        return list(candidates)
    scored = []
    for candidate in candidates:
        signature = _shape(signature_of(candidate))
        best = None
        for record in engine.records:
            if _shape(record.solution_signature) != signature:
                continue
            if record.feature_vector.is_zero:
                continue
            value = cosine(feature_vector, record.feature_vector) * engine._weight(record.triplet)
            if best is None or value > best:
                best = value
        if best is not None and best != 0.0:
            candidate.provenance = Provenance.FEEDBACK_RANKED
        scored.append((best if best is not None else 0.0, candidate))
    scored.sort(key=lambda pair: -pair[0])
    return [candidate for _, candidate in scored]


def eager_solutions(features, k, provider):
    """All ``k`` plans asked for in one prompt, as before plans came in
    pages; the mock's answers always parse, so there is no retry."""
    prompt = fill(
        load_template("plan_generation.txt"),
        count=str(k),
        first="1",
        features=fast._feature_lines(features),
        tried="",
    )
    shown = {f.ref: f.region.snippet for f in features}
    unique: dict[tuple, list[RepairStep]] = {}
    for steps in fast.parse_plan(provider.complete(prompt), shown):
        unique.setdefault(fast.normalize_steps(steps), steps)
    return [
        RepairSolution(id=f"s{i:02d}", steps=steps, prompts=(prompt,))
        for i, steps in enumerate(list(unique.values())[:k], 1)
    ]


def reference_repair_one(target, provider, engine, settings, reference=None):
    clock = settings.clock
    memo = settings.memo
    memo.begin_run()
    start = clock()
    timer = (lambda: 0.0) if isinstance(clock, cli.LogicalClock) else clock
    provider = MemoizedProvider(provider, memo, timer)
    ws = WorkingCopy(target)
    try:
        originals = ws.files()
        baseline = run_detection(ws.target, config=settings.detector, clock=clock, memo=memo)
        kb = engine.kb if settings.kb_enabled else None
        vector = None
        solutions = []
        features = extract_features(ws.target, baseline) if baseline else []
        if features:
            if settings.kb_enabled:
                lead_file, _ = parse_region_ref(features[0].ref)
                vector = feature_vector(ws.read(lead_file), baseline, lead_file)
            solutions = eager_solutions(features, k=settings.solutions_k, provider=provider)
            if settings.kb_enabled and vector is not None and not vector.is_zero:
                hit = engine.best_hit(vector)
                if hit is not None:
                    seeded = cli._seeded_solution(hit[1], features[0].ref)
                    if seeded is not None:
                        solutions.insert(0, seeded)
                        kb = None
                solutions = reference_rank(engine, solutions, vector)
        outcome = run_session(
            ws, plan=one_page(solutions), provider=provider, config=settings, baseline=baseline, kb=kb,
        )
        elapsed = clock() - start + memo.charged_seconds
        tokens = memo.charged_tokens
        triplet = engine.evaluate(
            outcome, reference, entry_file=target.entry_files[0],
            overhead_seconds=elapsed, overhead_tokens=tokens, memo=memo,
        )
        if outcome.verdict is Verdict.PASS and triplet.acceptability is True:
            outcome.verdict = Verdict.SEMANTIC_PASS
        if triplet.accuracy:
            for solution, _ in outcome.tried:
                for prompt in solution.prompts:
                    provider.keep(prompt)
            for thought in outcome.trace.thoughts:
                if thought.kept:
                    provider.keep(thought.patch.prompt)
        if settings.kb_enabled and vector is not None and not vector.is_zero and outcome.tried:
            used, _ = outcome.tried[-1]
            record = ExperienceRecord(
                feature_vector=vector,
                ub_kind=cli._lead_kind(baseline),
                solution_id=used.id,
                triplet=triplet,
                solution_signature=signature_of(used),
            )
            engine.record_experience(record, solution=used if triplet.accuracy else None)
        return outcome, triplet, originals
    finally:
        ws.cleanup()


# --- fixtures and stores ------------------------------------------------------

FIXTURES = sorted(p.parent.name for p in CORPUS_DIR.glob("*/main.rs"))


@pytest.fixture(autouse=True)
def _in_process_detector(monkeypatch):
    monkeypatch.setattr(detector, "run_group", run_stub_in_process)


def _vector(path: Path) -> FeatureVector:
    """The vector ``repair_one`` computes for a single-file target."""
    target = TargetPackage.from_path(path)
    reports = run_detection(target, config=stub_detector_config(), memo=CaseMemo())
    return feature_vector(path.read_text(encoding="utf-8"), reports, file=path.name)


def _line(vector, signature, accuracy=True, acceptability=True) -> str:
    record = ExperienceRecord(
        feature_vector=vector,
        ub_kind=UbKind.UNKNOWN,
        solution_id="s01",
        triplet=EvalTriplet(accuracy, acceptability, 3.0, 500),
        solution_signature=(signature,),
    )
    return json.dumps(record.to_dict(), sort_keys=True)


def _store(kind: str, vector) -> list[str]:
    if kind == "no_hit":
        return []
    if kind == "hit_passes":
        return [_line(vector, REWRITE)]
    if kind == "hit_fails":
        return [_line(vector, FAILING)]
    # the seed is a bare repair (weight 0.5); an accepted guard (weight 1.0) outranks it
    return [_line(vector, REWRITE, acceptability=None), _line(vector, GUARD)]


def _mock(config: ProviderConfig) -> ScriptedMockProvider:
    # keyed on the fix prompt's instruction line, so a plan prompt that
    # lists the failed seed among the tried solutions is not answered so
    return ScriptedMockProvider(config, rules=[(f"Instruction: {FAILING[1]}", NO_CODE)])


def _strip(value):
    if isinstance(value, dict):
        return {k: _strip(v) for k, v in value.items() if k != "overhead_tokens"}
    if isinstance(value, list):
        return [_strip(v) for v in value]
    return value


def _is_plan_answer(line: dict) -> bool:
    return bool(re.match(r"(SOLUTION|STEP) \d+:", line.get("tool_result", {}).get("answer", "")))


def _fix(tmp: Path, fixture: str, lines: list[str], repair, monkeypatch, capsys):
    """One ``fix`` run in ``tmp``, which it leaves empty for the next run.
    The lines of its stores come back without the plan answers, which come
    back on their own."""
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir()
    case = shutil.copytree(CORPUS_DIR / fixture, tmp / fixture) / "main.rs"
    kb, exp = tmp / "kb.jsonl", tmp / "experience.jsonl"
    exp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    monkeypatch.setattr(cli, "repair_one", repair)
    monkeypatch.setattr(cli, "create_provider", _mock)
    status = cli.main([
        "fix", str(case), "--kb", str(kb), "--experience", str(exp),
        "--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock", "--report", "json",
    ])
    out = capsys.readouterr()
    report = json.loads(out.out)
    store = [
        _strip(json.loads(line))
        for path in (exp, kb) if path.exists()
        for line in path.read_text(encoding="utf-8").splitlines()
    ]
    plans = [line for line in store if _is_plan_answer(line)]
    return status, report, out.err, [line for line in store if line not in plans], plans


@pytest.mark.parametrize("kind", ["no_hit", "hit_passes", "hit_fails", "hit_outranked"])
def test_fix_matches_the_eager_reference_on_every_fixture(tmp_path, monkeypatch, capsys, kind):
    spent = {}
    for fixture in FIXTURES:
        lines = _store(kind, _vector(CORPUS_DIR / fixture / "main.rs"))
        runs = []
        for name, repair in (("reference", reference_repair_one), ("lazy", cli.repair_one)):
            status, report, err, store, plans = _fix(
                tmp_path / "run", fixture, lines, repair, monkeypatch, capsys
            )
            runs.append((status, _strip(report), err, store, report["triplet"]["overhead_tokens"], plans))
        (ref_status, ref_report, ref_err, ref_store, ref_tokens, ref_plans), lazy = runs[0], runs[1]
        spent[fixture] = (ref_tokens, lazy[4])
        if kind == "hit_outranked" and _won(ref_store) != "s01":
            # the seed joins the first page, which asks for one solution: the
            # accepted guard that the eager plan held further down is not
            # ranked against it, and the lazy run passes on the seed instead,
            # which came from no plan prompt, so it keeps no plan answer
            assert (lazy[0], lazy[1]["verdict"]) == (ref_status, ref_report["verdict"]), fixture
            assert _won(lazy[3]) == "s00" and not lazy[5], fixture
            continue
        assert lazy[:4] == (ref_status, ref_report, ref_err, ref_store), fixture
        # a repair keeps its plan answers unless its seed passed before any
        # plan was drawn from: the reference's one prompt, the lazy run's pages
        planned = ref_status == 0 and kind != "hit_passes"
        assert (len(ref_plans), bool(lazy[5])) == (int(planned), planned), fixture
    # with hit_passes every fixture passes on the seed's first thought,
    # asked for alone; otherwise the lazy run asks a page of one plan where
    # the reference asks for 10
    assert all(lazy < ref for ref, lazy in spent.values()), spent


def _won(store: list[dict]) -> str:
    """The solution id of the experience record a run appended last."""
    return [line for line in store if "solution_id" in line][-1]["solution_id"]


# --- which prompts a seeded run asks ------------------------------------------


@pytest.fixture
def spy(monkeypatch) -> list[str]:
    """The text of every prompt that reaches ``Provider.complete``."""
    seen: list[str] = []
    complete = Provider.complete

    def spied(self, prompt):
        seen.append(prompt)
        return complete(self, prompt)

    monkeypatch.setattr(Provider, "complete", spied)
    return seen


@pytest.fixture
def stood(monkeypatch) -> list[str]:
    """The text of every prompt a plan's code answered in place of the model."""
    seen: list[str] = []
    stand_in = MemoizedProvider.stand_in

    def spied(self, prompt, answer):
        seen.append(prompt)
        return stand_in(self, prompt, answer)

    monkeypatch.setattr(MemoizedProvider, "stand_in", spied)
    return seen


def _asked(repair, fixture: str, signature) -> Verdict:
    path = CORPUS_DIR / fixture / "main.rs"
    engine = FeedbackEngine()
    engine.records = [ExperienceRecord.from_dict(json.loads(_line(_vector(path), signature)))]
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo())
    outcome, _, _ = repair(TargetPackage.from_path(path), _mock(ProviderConfig()), engine, settings)
    return outcome.verdict


def _kinds(prompts: list[str]) -> list[str]:
    marks = {MARKER_FIX: "fix", MARKER_PLAN: "plan"}
    return [next(v for k, v in marks.items() if k in p) for p in prompts]


def test_a_passing_seed_asks_only_its_fix_prompt(spy):
    assert _asked(cli.repair_one, "stack_borrow", REWRITE) is Verdict.PASS
    assert _kinds(spy) == ["fix"]
    lazy = list(spy)
    spy.clear()
    _asked(reference_repair_one, "stack_borrow", REWRITE)
    assert _kinds(spy) == ["plan", "fix"]
    assert lazy == spy[1:]


def test_reading_the_solutions_after_a_seed_passed_plans_nothing(spy, monkeypatch):
    # the benchmark's span recorder reads the session's arguments and result
    # once it returned: that must neither fail nor make the plan
    post_session = load_perfbench("tracer")._post_session
    calls = []
    session = cli.run_session

    def reading(*args, **kwargs):
        outcome = session(*args, **kwargs)
        calls.append((args, kwargs, outcome))
        return outcome

    monkeypatch.setattr(cli, "run_session", reading)
    assert _asked(cli.repair_one, "stack_borrow", REWRITE) is Verdict.PASS
    ((args, kwargs, outcome),) = calls
    post_session({}, args, kwargs, outcome)
    assert _kinds(spy) == ["fix"]


def test_a_failing_seed_asks_its_fix_prompt_then_plans_as_before(spy, stood, monkeypatch):
    tried = _drawing(monkeypatch)
    assert _asked(cli.repair_one, "stack_borrow", FAILING) is Verdict.PASS
    # the seed, drawn before the page, is not drawn again from it
    assert [s.id for s, _ in tried] == ["s00", "s01"]
    # the seed's fix, then the plan, whose code answers s01's fix
    assert _kinds(spy) == ["fix", "plan"]
    assert _kinds(stood) == ["fix"]
    assert FAILING[1] in spy[0]
    lazy, lazy_stood = list(spy), list(stood)
    spy.clear()
    stood.clear()
    _asked(reference_repair_one, "stack_borrow", FAILING)
    assert _kinds(spy) == ["plan", "fix"]
    # the seed's fix prompt and s01's stood-in fix prompt are the same on both paths
    assert lazy[0] == spy[1] and lazy_stood == stood
    # the plan prompts differ: the lazy one asks a page and lists the seed as tried
    assert lazy[1] != spy[0]


def test_a_seed_that_could_be_outranked_is_planned_eagerly(spy):
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    vector = _vector(path)
    engine = FeedbackEngine()
    engine.records = [
        ExperienceRecord.from_dict(json.loads(line))
        for line in _store("hit_outranked", vector)
    ]
    seeded = cli._seeded_solution(engine.best_hit(vector)[1], "main.rs#0")
    assert signature_of(seeded) == (REWRITE,)
    assert not engine.keeps_first(seeded, vector)
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo())
    cli.repair_one(TargetPackage.from_path(path), _mock(ProviderConfig()), engine, settings)
    assert _kinds(spy)[:1] == ["plan"]


# --- plan pages and the verdicts they carry -----------------------------------


def _abstaining(config: ProviderConfig) -> ScriptedMockProvider:
    """The mock, except every fix prompt gets an answer without code: each
    fix step abstains, so the session draws every solution it can."""
    return ScriptedMockProvider(config, rules=[(MARKER_FIX, NO_CODE)])


def _drawing(monkeypatch) -> list[tuple[RepairSolution, ErrorTrace]]:
    """The solutions ``cli.repair_one``'s session drew, in draw order, each
    with the trace it ended on: its outcome's ``tried``."""
    tried: list[tuple[RepairSolution, ErrorTrace]] = []
    session = cli.run_session

    def recording(*args, **kwargs):
        outcome = session(*args, **kwargs)
        tried.extend(outcome.tried)
        return outcome

    monkeypatch.setattr(cli, "run_session", recording)
    return tried


def _plans(prompts: list[str]) -> list[str]:
    return [p for p in prompts if MARKER_PLAN in p]


def _requested(page: str) -> int:
    """How many solutions a plan page's request sentence asks for."""
    m = re.search(r"Produce\s+(?:one solution|up to (\d+) solutions)", page)
    return int(m.group(1) or 1)


def test_a_follow_up_page_carries_the_verdicts_and_continues_the_rotation(spy, monkeypatch):
    tried = _drawing(monkeypatch)
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo())
    outcome, _, _ = cli.repair_one(
        TargetPackage.from_path(path), _abstaining(ProviderConfig()), FeedbackEngine(), settings
    )
    assert outcome.verdict is Verdict.FAILED
    first, second, third, fourth = _plans(spy)
    assert "numbered from" not in first and "Solutions tried so far" not in first
    assert "Produce one solution in" in " ".join(first.split())
    assert "numbered from 2." in second and "up to 3 solutions not yet tried" in " ".join(second.split())
    assert "TRIED s01: ended at 1 errors, baseline 1" in second
    # the step abstained, at the fix prompt
    assert second.count("=> skipped: ") == second.count("; errors 1") == 1
    assert second.count("  left: stack_borrow at main.rs:") == 1
    assert "TRIED s02" not in second and "TRIED s04" in third and "TRIED s05" not in third
    assert "numbered from 7." in fourth and "TRIED s06" in fourth
    # the pages draw what the one eager plan of 10 held, in its order; the
    # third page's last solution repeats the first, and the fourth page
    # repeats the first three, which ends the drawing
    target = TargetPackage.from_path(path)
    features = extract_features(target, run_detection(target, config=stub_detector_config(), memo=CaseMemo()))
    eager = eager_solutions(features, 10, _abstaining(ProviderConfig()))
    assert [(s.id, s.steps) for s, _ in tried] == [(s.id, s.steps) for s in eager]
    assert [s.steps[0].agent for s, _ in tried[3:]] == [AgentKind.REASON] * 3


def test_a_plan_page_is_the_same_prompt_with_knowledge_on_and_off(spy):
    # knowledge seeds, ranks and feeds Reason steps; the plan prompt is the
    # target's and the tried solutions', so a bench case's no-knowledge run
    # finds each page in the case memo
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    pages = []
    for kb_enabled in (True, False):
        spy.clear()
        settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo(), kb_enabled=kb_enabled)
        cli.repair_one(
            TargetPackage.from_path(path), _abstaining(ProviderConfig()), FeedbackEngine(), settings
        )
        pages.append(_plans(spy))
    assert len(pages[0]) == 4
    assert pages[0] == pages[1]


def test_a_no_knowledge_run_passes_over_the_reason_steps_of_its_plan(spy, monkeypatch):
    # the mock's solutions 4-6 open with a Reason step whatever the run's
    # knowledge setting; without a knowledge base it makes no thought, and
    # the fix prompts after it are those of solutions 1-3, answered by the memo
    tried = _drawing(monkeypatch)
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo(), kb_enabled=False)
    outcome, _, _ = cli.repair_one(
        TargetPackage.from_path(path), _abstaining(ProviderConfig()), FeedbackEngine(), settings
    )
    assert outcome.verdict is Verdict.FAILED
    assert len(tried) >= 6
    assert [s.steps[0].agent for s, _ in tried[3:6]] == [AgentKind.REASON] * 3
    for solution, trace in tried[3:6]:
        assert [t.step for t in trace.thoughts] == solution.steps[1:]
    fixes = [p for p in spy if MARKER_FIX in p]
    assert len(fixes) == len(set(fixes))
    # s01's fix, then s02's; s03's SafeReplace step abstains at the catalogue gate
    assert _kinds(spy) == ["plan", "fix", "plan", "fix", "plan", "plan"]


def test_solutions_cap_the_pages_asked(spy):
    path = CORPUS_DIR / "stack_borrow" / "main.rs"
    asked = []
    for k in (1, 3):
        spy.clear()
        settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo(), solutions_k=k)
        cli.repair_one(
            TargetPackage.from_path(path), _abstaining(ProviderConfig()), FeedbackEngine(), settings
        )
        asked.append([_requested(p) for p in _plans(spy)])
    # one solution asks exactly one page; three ask the first, then two more
    assert asked == [[1], [1, 2]]


def test_a_seed_kept_first_that_fails_gets_a_follow_up_page(spy):
    # the seed is tried before any page is asked, so the first page asked
    # carries its verdict and asks for a full page, not for one solution
    assert _asked(cli.repair_one, "stack_borrow", FAILING) is Verdict.PASS
    (page,) = _plans(spy)
    assert _requested(page) == 3 and "numbered from 1." in page
    assert "TRIED s00: ended at 1 errors, baseline 1" in page


class _Stuck(ScriptedMockProvider):
    """The mock, except every fix prompt whose region holds ``needle`` gets
    ``answer(region)``, by default an answer without code."""

    def __init__(self, config, needle, answer=lambda region: NO_CODE) -> None:
        super().__init__(config)
        self.needle, self.answer = needle, answer

    def _fix(self, text: str) -> str:
        region = self._snippet(text)
        return self.answer(region) if self.needle in region else super()._fix(text)


def _paging(monkeypatch) -> list[tuple[str, int]]:
    """Per plan page ``cli.repair_one`` asks: the FEATURE lines that the
    bytes of its working copy give when the page is asked, and how many
    reports those bytes hold, from a detection of their own."""
    copies: list[WorkingCopy] = []

    class Noted(WorkingCopy):
        def __init__(self, target) -> None:
            super().__init__(target)
            copies.append(self)

    pages = []
    generate = cli.generate_solutions

    def noting(*args, **kwargs):
        (ws,) = copies
        reports = list(run_detection(ws.target, config=stub_detector_config(), memo=CaseMemo()))
        pages.append((fast._feature_lines(extract_features(ws.target, reports)), len(reports)))
        return generate(*args, **kwargs)

    monkeypatch.setattr(cli, "WorkingCopy", Noted)
    monkeypatch.setattr(cli, "generate_solutions", noting)
    return pages


def _regions_target(tmp_path, source: str) -> TargetPackage:
    (tmp_path / "main.rs").write_text(source, encoding="utf-8")
    return TargetPackage.from_path(tmp_path / "main.rs")


def test_a_follow_up_page_shows_only_what_the_best_snapshot_still_reports(spy, monkeypatch, tmp_path):
    from test_batch_verify import regions_source

    # s01 repairs regions 0 and 1 and never region 2: every later page is
    # planned on the snapshot with the first two repaired
    pages = _paging(monkeypatch)
    tried = _drawing(monkeypatch)
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo(), kb_enabled=False)
    outcome, _, _ = cli.repair_one(
        _regions_target(tmp_path, regions_source(3)), _Stuck(ProviderConfig(), "alignment 8 is required"),
        FeedbackEngine(), settings,
    )
    assert outcome.verdict is Verdict.FAILED
    prompts = _plans(spy)
    assert len(prompts) == len(pages) >= 3
    traces = [trace for _, trace in tried]
    for n, (prompt, (lines, reported)) in enumerate(zip(prompts, pages)):
        shown = prompt.split("Regions under repair:\n", 1)[1].split("\n\nSolutions tried so far", 1)[0]
        assert shown.rstrip("\n") == lines
        if n:
            # the best snapshot: no solution tried so far ended lower
            assert reported == 1 == min(min(trace.counts) for trace in traces[:n])
            assert shown.count("FEATURE ") == 1 and shown.startswith("FEATURE main.rs#2 ")
    assert pages[0][1] == 3 and pages[0][0].count("FEATURE ") == 3


def test_a_follow_up_page_on_a_snapshot_whose_reports_left_every_unsafe_region(spy, monkeypatch, tmp_path):
    from test_batch_verify import regions_source

    # every rewrite drops the region's unsafe keyword and keeps its UB line:
    # s01 leaves the report of region_0 outside every unsafe block. The
    # block of ``clean`` holds no report and stands for none past the
    # baseline, so the drawing ends without asking a second page
    clean = "fn clean(seed: i64) -> i64 {\n    let ptr = &seed as *const i64;\n    unsafe { *ptr }\n}\n\n"
    pages = _paging(monkeypatch)
    provider = _Stuck(ProviderConfig(), "unsafe", lambda region: f"```rust\n{region.replace('unsafe ', '', 1)}\n```")
    settings = SessionConfig(detector=stub_detector_config(), memo=CaseMemo(), kb_enabled=False)
    outcome, _, _ = cli.repair_one(
        _regions_target(tmp_path, clean + regions_source(1)), provider, FeedbackEngine(), settings
    )
    assert outcome.verdict is Verdict.FAILED and outcome.final_errors == 1
    assert "unsafe { *ptr }" in outcome.final_source["main.rs"]
    (first,) = _plans(spy)
    assert [reported for _, reported in pages] == [1]
    assert "FEATURE main.rs#1 " in first and "FEATURE main.rs#0 " not in first


# --- one-pass scoring against the per-candidate scan --------------------------

_AGENTS = [AgentKind.SAFE_REPLACE, AgentKind.ADD_ASSERTION, AgentKind.MODIFY_SEMANTICS, AgentKind.REASON]
_STEP = st.tuples(st.sampled_from(_AGENTS), st.sampled_from(["fix it", "Fix  it", "guard", "swap"]))
_PLAN = st.lists(_STEP, min_size=0, max_size=2)
_VECTOR = st.lists(st.integers(-2, 3), min_size=4, max_size=4)
_TRIPLET = st.sampled_from([(True, True), (True, None), (True, False), (False, False)])


def _solution(i: int, plan) -> RepairSolution:
    return RepairSolution(
        id=f"c{i:02d}", steps=[RepairStep(agent, "main.rs#0", text) for agent, text in plan]
    )


@settings(max_examples=300, deadline=None)
@given(
    query=_VECTOR,
    records=st.lists(st.tuples(_VECTOR, _PLAN, _TRIPLET), max_size=12),
    candidates=st.lists(_PLAN, max_size=8),
)
def test_one_pass_scoring_ranks_as_the_per_candidate_scan(query, records, candidates):
    engine = FeedbackEngine()
    engine.records = [
        ExperienceRecord(
            feature_vector=FeatureVector(values),
            ub_kind=UbKind.ALLOC,
            solution_id=f"r{i}",
            triplet=EvalTriplet(accuracy, acceptability, 1.0, 1),
            solution_signature=signature_of(_solution(i, plan)),
        )
        for i, (values, plan, (accuracy, acceptability)) in enumerate(records)
    ]
    vector = FeatureVector(query)
    expected = reference_rank(engine, [_solution(i, p) for i, p in enumerate(candidates)], vector)
    actual = engine.rank_solutions([_solution(i, p) for i, p in enumerate(candidates)], vector)
    assert [(c.id, c.provenance) for c in actual] == [(c.id, c.provenance) for c in expected]
    # keeps_first proves what ranking then does with a seed put first
    for plan in [*candidates, *(plan for _, plan, _ in records)]:
        seeded = _solution(99, plan)
        if engine.keeps_first(seeded, vector):
            others = [_solution(i, p) for i, p in enumerate(candidates)]
            assert reference_rank(engine, [seeded, *others], vector)[0] is seeded
