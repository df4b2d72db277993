"""Outcome evaluation and the experience loop.

Every repair is scored as a triplet: did the errors go away (accuracy),
does the program still behave like the reference (acceptability), and what
did it cost (wall seconds plus provider tokens). Accuracy gates
acceptability: an unrepaired program is never acceptable. Triplets feed an
append-only experience log; future candidate solutions are re-ranked by
similarity-weighted past outcomes, and fixes that worked are promoted into
the knowledge base.
"""
from __future__ import annotations

import hashlib
import json
import logging
import subprocess
import tempfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .detector import CaseMemo, MemoEntry, UbKind, _line_kind
from .errors import StorageFailure
from .fast import FIX_AGENTS, Provenance, RepairSolution
from .kb import (
    FeatureVector,
    KnowledgeBase,
    KnowledgeEntry,
    _append_jsonl,
    _read_jsonl,
    cosine,
    solution_template,
)
from .process import run_group

if TYPE_CHECKING:  # pragma: no cover
    from .slow import SessionOutcome

log = logging.getLogger(__name__)

WEIGHT_ACCEPTED = 1.0
WEIGHT_REPAIRED = 0.5
WEIGHT_FAILED = -0.25
BYPASS_SIMILARITY = 0.95

REFERENCE_RUN_TIMEOUT = 30.0

# the JSON types of a stored triplet's fields
_TRIPLET_TYPES = {
    "accuracy": ((bool,), "a bool"),
    "acceptability": ((bool, type(None)), "a bool or null"),
    "overhead_seconds": ((int, float), "a number"),
    "overhead_tokens": ((int,), "an integer"),
}
# the agents a stored solution signature may name
_FIX_AGENT_NAMES = frozenset(agent.value for agent in FIX_AGENTS)


def _signature_step(pair: object) -> tuple[str, str]:
    """One stored signature step; ValueError unless it is a fix agent's
    name and an instruction."""
    if not (isinstance(pair, list) and len(pair) == 2 and all(isinstance(x, str) for x in pair)):
        raise ValueError(f"signature step {pair!r} is not an agent and an instruction")
    if pair[0] not in _FIX_AGENT_NAMES:
        raise ValueError(f"signature step names {pair[0]!r}, not a fix agent")
    return pair[0], pair[1]


@dataclass
class EvalTriplet:
    """accuracy: errors eliminated; acceptability: reference behaviour kept
    (None when it could not be checked); overhead: seconds and tokens spent."""

    accuracy: bool
    acceptability: bool | None
    overhead_seconds: float
    overhead_tokens: int

    def __post_init__(self) -> None:
        if not self.accuracy:
            # a failed repair cannot be acceptable, whatever the run said
            self.acceptability = False

    @classmethod
    def from_dict(cls, data: dict) -> "EvalTriplet":
        """A stored triplet; ValueError unless each field has a type
        ``asdict`` writes (``_TRIPLET_TYPES``)."""
        for name, (types, what) in _TRIPLET_TYPES.items():
            if type(data[name]) not in types:
                raise ValueError(f"{name} {data[name]!r} is not {what}")
        seconds = float(data["overhead_seconds"])
        return cls(data["accuracy"], data["acceptability"], seconds, data["overhead_tokens"])


class ReferenceExecutionFailure(Exception):
    """The acceptability check itself failed; the verdict is unknown."""


@dataclass
class ReferenceBundle:
    """Ground truth for acceptability: the bytes the program must print
    and the exit status it must report. A bundle that holds a ``tests.cmd``
    is refused: its tests are not run, and it must not be judged without them."""

    expected_stdout: bytes
    expected_exit: int = 0

    @classmethod
    def from_dir(cls, path: Path | str) -> "ReferenceBundle":
        root = Path(path)
        stdout_file = root / "expected_stdout.txt"
        if not stdout_file.is_file():
            raise StorageFailure(f"reference bundle missing expected_stdout.txt: {root}")
        if (root / "tests.cmd").exists():
            raise StorageFailure(f"{root / 'tests.cmd'}: test commands are not run; judge by stdout and exit status")
        exit_file = root / "expected_exit.txt"
        try:
            expected_exit = int(exit_file.read_text(encoding="utf-8")) if exit_file.is_file() else 0
        except ValueError as exc:  # UnicodeDecodeError is one
            raise StorageFailure(f"{exit_file}: not an integer exit status: {exc}") from None
        return cls(expected_stdout=stdout_file.read_bytes(), expected_exit=expected_exit)

    def check(self, final_source: dict[str, str], entry_file: str, *, memo: CaseMemo) -> bool:
        """Compile and run the repaired program, compare behaviour byte-exact.

        Raises ReferenceExecutionFailure when the check cannot produce a
        verdict (compile failure, missing toolchain, run timeout); that is
        never memoised. Through ``memo``, which ``cli`` makes for the run, each
        bundle, entry file, resolved ``rustc`` and source is compiled and
        judged at most once, and not at all when its store holds the verdict.
        """
        # None stands where a test command was, so stored verdicts keep their keys
        payload = [self.expected_stdout.hex(), self.expected_exit, None, entry_file, "rustc"]
        payload += [memo.tool(["rustc"]), sorted(final_source.items())]
        key = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
        known = memo.recall(key)
        if known is not None:
            return known.fields["verdict"]
        verdict = self._compile_and_compare(final_source, entry_file)
        # the check is not timed on the run's clock: a reused verdict costs nothing
        memo.keep(key, MemoEntry({"verdict": verdict}, 0.0, None))
        return verdict

    def _compile_and_compare(self, final_source: dict[str, str], entry_file: str) -> bool:
        with tempfile.TemporaryDirectory(prefix="ubmend-ref-") as tmp:
            root = Path(tmp)
            for rel, text in final_source.items():
                dest = root / rel
                dest.parent.mkdir(parents=True, exist_ok=True)
                dest.write_text(text, encoding="utf-8")
            binary = root / "candidate"
            try:
                compiled = run_group(
                    ["rustc", "--edition=2021", entry_file, "-o", str(binary)],
                    REFERENCE_RUN_TIMEOUT,
                    cwd=root,
                )
            except (FileNotFoundError, subprocess.TimeoutExpired) as exc:
                raise ReferenceExecutionFailure(f"compiler unavailable: {exc}") from exc
            if compiled.returncode != 0:
                raise ReferenceExecutionFailure(
                    "repaired program does not compile: " + compiled.stderr.decode(errors="replace")[:400]
                )
            try:
                run = run_group([str(binary)], REFERENCE_RUN_TIMEOUT, cwd=root)
            except subprocess.TimeoutExpired as exc:
                raise ReferenceExecutionFailure("repaired program timed out") from exc
            return run.returncode == self.expected_exit and run.stdout == self.expected_stdout


def signature_of(solution: RepairSolution) -> tuple[tuple[str, str], ...]:
    """Shape of a solution with region refs abstracted away: each fix
    step's agent and instruction, the instruction as the plan gave it so
    that a seeded step asks the verified repair's prompt.

    Two plans that apply the same agents with the same instructions count as
    the same experience even when aimed at different files; ``folded``
    makes the comparison blind to case and runs of whitespace.
    """
    return tuple(
        (step.agent.value, step.instruction)
        for step in solution.steps
        if step.agent in FIX_AGENTS
    )


@lru_cache(maxsize=1024)
def folded(signature: tuple[tuple[str, str], ...]) -> tuple[tuple[str, str], ...]:
    """The form in which signatures are compared: instructions lowercased
    with whitespace runs collapsed, which is how logs written before
    signatures kept their case stored them. Cached: a log repeats a few
    signatures over thousands of records."""
    return tuple((agent, " ".join(instruction.split()).lower()) for agent, instruction in signature)


@dataclass
class ExperienceRecord:
    feature_vector: FeatureVector
    ub_kind: UbKind
    solution_id: str
    triplet: EvalTriplet
    solution_signature: tuple[tuple[str, str], ...]

    def to_dict(self) -> dict:
        return {
            "feature_vector": self.feature_vector.to_dict(),
            "ub_kind": self.ub_kind.value,
            "solution_id": self.solution_id,
            "triplet": asdict(self.triplet),
            "solution_signature": [list(pair) for pair in self.solution_signature],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperienceRecord":
        return cls(
            feature_vector=FeatureVector.from_dict(data["feature_vector"]),
            ub_kind=UbKind(data["ub_kind"]),
            solution_id=str(data["solution_id"]),
            triplet=EvalTriplet.from_dict(data["triplet"]),
            solution_signature=tuple(map(_signature_step, data["solution_signature"])),
        )


def _log_line(data: dict) -> "ExperienceRecord | tuple[str, dict]":
    """One experience-log line: a record, or a ``tool_result`` as a
    (key, fields) pair, its fields a detection's ``exit_status`` and
    ``output``, a reference ``verdict``, or a verified model ``answer``."""
    if "tool_result" not in data:
        return ExperienceRecord.from_dict(data)
    if not isinstance(data["tool_result"], dict):
        raise ValueError("tool_result is not an object")
    fields = dict(data["tool_result"])
    key = fields.pop("key", None)
    if not isinstance(key, str) or not key:
        raise ValueError("tool_result has no string key")
    _line_kind(fields)
    return key, fields


class FeedbackEngine:
    """Evaluate outcomes, remember them, and bias future ranking.

    Weights: acceptability-confirmed repairs pull hardest, bare repairs
    half as hard, failures push away a quarter as hard. A candidate scores
    the max similarity-times-weight over records sharing its signature;
    unseen candidates score 0 and keep their original order (the sort is
    stable).

    The log holds experience records (``records``) and
    ``{"tool_result": ...}`` lines, by key (``tool_results``): the completed
    detections and reference verdicts of earlier runs, and the model answers
    of the thoughts that made their repairs. The ``tool_result`` lines seed
    a run's ``CaseMemo``.
    """

    def __init__(self, log_path: Path | str | None = None, kb: KnowledgeBase | None = None) -> None:
        self.log_path = Path(log_path) if log_path else None
        self.kb = kb
        self.records: list[ExperienceRecord] = []
        self.tool_results: dict[str, dict] = {}
        for line in _read_jsonl(self.log_path, _log_line, "experience record"):
            if isinstance(line, ExperienceRecord):
                self.records.append(line)
            else:
                self.tool_results[line[0]] = line[1]

    def evaluate(
        self,
        outcome: "SessionOutcome",
        reference: ReferenceBundle | None,
        entry_file: str,
        overhead_seconds: float,
        overhead_tokens: int,
        memo: CaseMemo,
    ) -> EvalTriplet:
        from .slow import Verdict

        accuracy = outcome.verdict in (Verdict.PASS, Verdict.SEMANTIC_PASS)
        acceptability: bool | None = None
        if accuracy and reference is not None:
            try:
                acceptability = reference.check(outcome.final_source, entry_file, memo=memo)
            except ReferenceExecutionFailure as exc:
                log.warning("acceptability unknown: %s", exc)
                acceptability = None
        return EvalTriplet(
            accuracy=accuracy,
            acceptability=acceptability,
            overhead_seconds=overhead_seconds,
            overhead_tokens=overhead_tokens,
        )

    def record_experience(
        self,
        record: ExperienceRecord,
        solution: RepairSolution | None = None,
    ) -> None:
        """Append to the log; successful repairs also enter the knowledge base."""
        self.records.append(record)
        if self.log_path is not None:
            _append_jsonl(self.log_path, record.to_dict())
        if (
            record.triplet.accuracy
            and self.kb is not None
            and solution is not None
            and not record.feature_vector.is_zero
        ):
            self.kb.insert(
                KnowledgeEntry(
                    vector=record.feature_vector,
                    ub_kind=record.ub_kind,
                    solution=solution_template(solution.to_dict()),
                    triplet=record.triplet,
                )
            )

    def record_tool_results(self, results: dict[str, dict]) -> None:
        """Append the ``tool_result`` lines the log does not hold yet."""
        for key, fields in results.items():
            if key in self.tool_results:
                continue
            self.tool_results[key] = fields
            if self.log_path is not None:
                _append_jsonl(self.log_path, {"tool_result": {"key": key, **fields}})

    @staticmethod
    def _weight(triplet: EvalTriplet) -> float:
        if triplet.accuracy and triplet.acceptability:
            return WEIGHT_ACCEPTED
        if triplet.accuracy:
            return WEIGHT_REPAIRED
        return WEIGHT_FAILED

    def signature_scores(self, feature_vector: FeatureVector) -> dict[tuple, float]:
        """Every folded signature's experience score, in one pass over the
        records: the highest similarity times weight among the records with
        a nonzero vector that carry the signature (the first record wins a
        tie)."""
        scores: dict[tuple, float] = {}
        for record in self.records:
            if record.feature_vector.is_zero:
                continue
            value = cosine(feature_vector, record.feature_vector) * self._weight(record.triplet)
            key = folded(record.solution_signature)
            best = scores.get(key)
            if best is None or value > best:
                scores[key] = value
        return scores

    def rank_solutions(
        self,
        candidates: Sequence[RepairSolution],
        feature_vector: FeatureVector,
    ) -> list[RepairSolution]:
        """One stable sort by the score of each candidate's folded signature
        (0.0 if unseen), highest first; a nonzero score marks it ``FEEDBACK_RANKED``."""
        scores = self.signature_scores(feature_vector)
        scored = [(scores.get(folded(signature_of(c)), 0.0), c) for c in candidates]
        for score, candidate in scored:
            if score != 0.0:
                candidate.provenance = Provenance.FEEDBACK_RANKED
        return [candidate for _, candidate in sorted(scored, key=lambda pair: -pair[0])]

    def keeps_first(self, solution: RepairSolution, feature_vector: FeatureVector) -> bool:
        """Whether ``rank_solutions`` keeps ``solution`` first when it leads
        any list of candidates: its score is at least every signature's
        score and the 0.0 of an unseen one (with no records or a zero
        vector all are zero), and a tie keeps it first: the sort is stable."""
        scores = self.signature_scores(feature_vector)
        own = scores.get(folded(signature_of(solution)), 0.0)
        return own >= 0.0 and all(own >= score for score in scores.values())

    def best_hit(self, feature_vector: FeatureVector) -> tuple[float, ExperienceRecord] | None:
        """Closest successful past repair at least ``BYPASS_SIMILARITY``
        alike, if any."""
        if feature_vector.is_zero:
            return None
        best: tuple[float, ExperienceRecord] | None = None
        for record in self.records:
            if not record.triplet.accuracy or record.feature_vector.is_zero:
                continue
            sim = cosine(feature_vector, record.feature_vector)
            if sim >= BYPASS_SIMILARITY and (best is None or sim > best[0]):
                best = (sim, record)
        return best
