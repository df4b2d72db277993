"""The on-disk form of feature vectors in the knowledge base and experience log.

A stored vector is ``{"dims": 256, "nz": [[bucket, value], ...]}`` with its
nonzero buckets in ascending order. Lines written before that form hold a
dense list of all 256 entries; they still load, alone or mixed with sparse
lines, and give the same records, ranking, seeding and search as their
sparse rewrite. A vector of another width, or a sparse vector that cannot
be what ``to_dict`` writes, stops the load.
"""
from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, STUB_DETECTOR_ARG, TOOLS_DIR, copy_fixture, padded, signature_candidates
from ubmend.cli import main
from ubmend.detector import UbKind
from ubmend.errors import StorageFailure
from ubmend.fast import AgentKind, RepairSolution, RepairStep
from ubmend.feedback import EvalTriplet, ExperienceRecord, FeedbackEngine, signature_of
from ubmend.kb import VECTOR_DIMS, FeatureVector, KnowledgeBase, KnowledgeEntry

VECTOR_FIELDS = {"kb": "vector", "experience": "feature_vector"}


def _dense(element):
    """A dense vector of ``VECTOR_DIMS`` entries, up to 32 of them set from
    ``element``."""
    return st.dictionaries(st.integers(0, VECTOR_DIMS - 1), element, max_size=32).map(
        lambda nonzero: [nonzero.get(i, 0.0) for i in range(VECTOR_DIMS)]
    )


def _stored(vector: FeatureVector) -> FeatureVector:
    """``vector`` written as a store line writes it, then read back."""
    return FeatureVector.from_dict(json.loads(json.dumps(vector.to_dict(), sort_keys=True)))


def _assert_same(got: FeatureVector, want: FeatureVector) -> None:
    assert got == want
    assert list(got.nonzero.items()) == list(want.nonzero.items())
    assert got.norm == want.norm


@settings(max_examples=300, deadline=None)
@given(_dense(st.integers(1, 50)))
def test_count_vectors_round_trip_exactly(values):
    v = FeatureVector(values)
    _assert_same(_stored(v), v)
    assert [i for i, _ in v.to_dict()["nz"]] == sorted(v.nonzero)


@settings(max_examples=300, deadline=None)
@given(_dense(st.floats(allow_nan=False, allow_infinity=False)))
def test_float_vectors_round_trip_exactly(values):
    v = FeatureVector(values)
    _assert_same(_stored(v), v)


def test_a_dense_list_loads_as_the_vector_it_lists():
    values = padded([0.0, 2.0, 0.0, 0.5])
    _assert_same(FeatureVector.from_dict(values), FeatureVector(values))
    assert FeatureVector(values).to_dict() == {"dims": 256, "nz": [[1, 2.0], [3, 0.5]]}
    with pytest.raises(ValueError, match=r"^vector of 4 dims, not 256$"):
        FeatureVector.from_dict([0.0, 2.0, 0.0, 0.5])


def _record(values: list[float], sid: str = "s01") -> ExperienceRecord:
    solution = RepairSolution(
        id=sid, steps=[RepairStep(AgentKind.MODIFY_SEMANTICS, "main.rs#0", "rewrite it")]
    )
    triplet = EvalTriplet(True, True, 1.5, 700)
    return ExperienceRecord(
        FeatureVector(padded(values)), UbKind.STACK_BORROW, sid, triplet, signature_of(solution)
    )


def _densify(path: Path, field: str, into: Path) -> None:
    """Rewrite a store with every vector as the dense list older stores hold."""
    lines = []
    for line in path.read_text(encoding="utf-8").splitlines():
        data = json.loads(line)
        data[field] = FeatureVector.from_dict(data[field]).values
        lines.append(json.dumps(data, sort_keys=True) + "\n")
    into.write_text("".join(lines), encoding="utf-8")


def test_legacy_dense_store_loads_and_ranks_as_its_sparse_rewrite(tmp_path, perfbench_gen):
    gen = perfbench_gen
    templates = gen.load_templates(CORPUS_DIR)
    kb_path, exp_path = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    gen.build_store(templates, 1, TOOLS_DIR / "fake_miri.py", kb_path, exp_path)
    first = json.loads(exp_path.read_text(encoding="utf-8").splitlines()[0])
    assert set(first["feature_vector"]) == {"dims", "nz"}
    dense_kb, dense_exp = tmp_path / "dense-kb.jsonl", tmp_path / "dense-experience.jsonl"
    _densify(kb_path, "vector", dense_kb)
    _densify(exp_path, "feature_vector", dense_exp)
    assert dense_exp.stat().st_size > 2 * exp_path.stat().st_size

    sparse = FeedbackEngine(exp_path, kb=KnowledgeBase(kb_path))
    dense = FeedbackEngine(dense_exp, kb=KnowledgeBase(dense_kb))
    assert sparse.records == dense.records
    assert sparse.kb.entries == dense.kb.entries
    queries = [v for v, _ in gen.template_vectors(templates, TOOLS_DIR / "fake_miri.py").values()]

    def outcomes(engine: FeedbackEngine, query: FeatureVector):
        ranked = [c.id for c in engine.rank_solutions(signature_candidates(gen._SIGNATURES), query)]
        hit = engine.best_hit(query)
        hit = None if hit is None else (hit[0], engine.records.index(hit[1]))
        found = [(sim, engine.kb.entries.index(e)) for sim, e in engine.kb.search(query, k=3)]
        return ranked, hit, found

    assert [outcomes(sparse, q) for q in queries] == [outcomes(dense, q) for q in queries]
    assert any(hit is not None for _, hit, _ in (outcomes(sparse, q) for q in queries))


def test_dense_lines_followed_by_a_sparse_append_load(tmp_path):
    log, kb_path = tmp_path / "experience.jsonl", tmp_path / "kb.jsonl"
    old = [_record([1.0, 0.0, 2.0], "s01"), _record([0.0, 3.0, 0.0], "s02")]
    log.write_text(
        "".join(
            json.dumps({**r.to_dict(), "feature_vector": r.feature_vector.values}, sort_keys=True) + "\n"
            for r in old
        ),
        encoding="utf-8",
    )
    engine = FeedbackEngine(log, kb=KnowledgeBase(kb_path))
    new = _record([0.0, 1.0, 1.0], "s03")
    engine.record_experience(new, solution=RepairSolution(id="s03", steps=[]))
    vectors = [json.loads(line)["feature_vector"] for line in log.read_text().splitlines()]
    assert vectors == [padded([1.0, 0.0, 2.0]), padded([0.0, 3.0, 0.0]), {"dims": 256, "nz": [[1, 1.0], [2, 1.0]]}]
    assert FeedbackEngine(log).records == [*old, new]
    (entry,) = KnowledgeBase(kb_path).entries
    assert entry.vector == new.feature_vector
    entry.vector = FeatureVector(padded([2.0, 0.0, 0.0]))
    dense_line = {**entry.to_dict(), "vector": entry.vector.values}
    with kb_path.open("a", encoding="utf-8") as fh:
        fh.write(json.dumps(dense_line, sort_keys=True) + "\n")
    assert [e.vector.values for e in KnowledgeBase(kb_path).entries] == [
        padded([0.0, 1.0, 1.0]),
        padded([2.0, 0.0, 0.0]),
    ]


CORRUPT = {
    "bucket_above_range": ({"dims": 256, "nz": [[256, 1.0]]}, "bucket 256 is not an integer in [0, 256)"),
    "negative_bucket": ({"dims": 256, "nz": [[-1, 1.0]]}, "bucket -1 is not an integer in [0, 256)"),
    "fractional_bucket": ({"dims": 256, "nz": [[1.5, 1.0]]}, "bucket 1.5 is not an integer in [0, 256)"),
    "repeated_bucket": ({"dims": 256, "nz": [[1, 1.0], [1, 2.0]]}, "bucket 1 repeated or out of order"),
    "descending_buckets": ({"dims": 256, "nz": [[2, 1.0], [1, 2.0]]}, "bucket 1 repeated or out of order"),
    "zero_value": ({"dims": 256, "nz": [[1, 0.0]]}, "bucket 1 stores a zero"),
    "nan_value": ({"dims": 256, "nz": [[1, float("nan")]]}, "bucket 1 stores nan, not a finite number"),
    "infinite_value": ({"dims": 256, "nz": [[1, float("inf")]]}, "bucket 1 stores inf, not a finite number"),
    "bool_value": ({"dims": 256, "nz": [[1, True]]}, "bucket 1 stores True, not a finite number"),
    "dense_nan_value": (padded([1.0, 0.0, float("nan")]), "bucket 2 stores nan, not a finite number"),
    "zero_dims": ({"dims": 0, "nz": []}, "vector of 0 dims, not 256"),
    "negative_dims": ({"dims": -3, "nz": []}, "vector of -3 dims, not 256"),
    "narrow_dims": ({"dims": 8, "nz": [[1, 1.0]]}, "vector of 8 dims, not 256"),
}


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_corrupt_sparse_vector_raises(case):
    data, message = CORRUPT[case]
    with pytest.raises(ValueError) as exc:
        FeatureVector.from_dict(data)
    assert str(exc.value) == message


def _store_with_corrupt_second_line(tmp_path: Path, store: str, vector: dict) -> Path:
    record = _record([1.0, 0.0, 2.0, 0.0])
    if store == "kb":
        good = KnowledgeEntry(record.feature_vector, record.ub_kind, {"steps": []}, record.triplet)
        line = good.to_dict()
    else:
        line = record.to_dict()
    path = tmp_path / f"{store}.jsonl"
    bad = {**line, VECTOR_FIELDS[store]: vector}
    path.write_text(json.dumps(line) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("case", sorted(CORRUPT))
@pytest.mark.parametrize(("store", "what"), [("kb", "knowledge entry"), ("experience", "experience record")])
def test_corrupt_sparse_line_is_a_storage_failure(tmp_path, case, store, what):
    data, message = CORRUPT[case]
    path = _store_with_corrupt_second_line(tmp_path, store, data)
    with pytest.raises(StorageFailure) as exc:
        KnowledgeBase(path) if store == "kb" else FeedbackEngine(path)
    assert str(exc.value) == f"{path}:2: bad {what}: {message}"


@pytest.mark.parametrize("case", sorted(CORRUPT))
def test_fix_and_bench_exit_two_on_a_corrupt_sparse_line(tmp_path, capsys, case):
    data, message = CORRUPT[case]
    case_dir = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "c01", "path": "stack_borrow/main.rs", "ub_kind": "stack_borrow"}) + "\n")
    shared = ["--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]
    kb = _store_with_corrupt_second_line(tmp_path, "kb", data)
    assert main(["fix", str(case_dir / "main.rs"), "--kb", str(kb), *shared]) == 2
    assert capsys.readouterr().err == f"error: {kb}:2: bad knowledge entry: {message}\n"
    log = _store_with_corrupt_second_line(tmp_path, "experience", data)
    assert main(["bench", str(manifest), "--experience", str(log), *shared]) == 2
    assert capsys.readouterr().err == f"error: {log}:2: bad experience record: {message}\n"


# Triplet values a store line may not hold: each would load as something
# ``asdict`` never writes, and ``"acceptability": "no"`` or
# ``"accuracy": "false"`` would rank and seed as a verified repair.
BAD_TRIPLETS = {
    "string_accuracy": ({"accuracy": "false"}, "accuracy 'false' is not a bool"),
    "integer_accuracy": ({"accuracy": 1}, "accuracy 1 is not a bool"),
    "string_acceptability": ({"acceptability": "no"}, "acceptability 'no' is not a bool or null"),
    "integer_acceptability": ({"acceptability": 0}, "acceptability 0 is not a bool or null"),
    "string_seconds": ({"overhead_seconds": "1.5"}, "overhead_seconds '1.5' is not a number"),
    "bool_seconds": ({"overhead_seconds": True}, "overhead_seconds True is not a number"),
    "float_tokens": ({"overhead_tokens": 7.5}, "overhead_tokens 7.5 is not an integer"),
    "bool_tokens": ({"overhead_tokens": False}, "overhead_tokens False is not an integer"),
    "null_tokens": ({"overhead_tokens": None}, "overhead_tokens None is not an integer"),
}


def _store_with_bad_triplet_second_line(tmp_path: Path, store: str, fields: dict) -> Path:
    record = _record([1.0, 0.0, 2.0, 0.0])
    if store == "kb":
        line = KnowledgeEntry(record.feature_vector, record.ub_kind, {"steps": []}, record.triplet).to_dict()
    else:
        line = record.to_dict()
    path = tmp_path / f"{store}.jsonl"
    bad = {**line, "triplet": {**line["triplet"], **fields}}
    path.write_text(json.dumps(line) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    return path


def test_a_triplet_loads_exactly_as_written():
    for triplet in (EvalTriplet(True, None, 2, 0), EvalTriplet(True, False, 0.25, 9), EvalTriplet(False, None, 1.0, 3)):
        loaded = EvalTriplet.from_dict(json.loads(json.dumps(asdict(triplet))))
        assert loaded == triplet
        assert type(loaded.overhead_seconds) is float


@pytest.mark.parametrize("case", sorted(BAD_TRIPLETS))
def test_a_malformed_triplet_raises(case):
    fields, message = BAD_TRIPLETS[case]
    with pytest.raises(ValueError) as exc:
        EvalTriplet.from_dict({**asdict(EvalTriplet(True, True, 1.5, 700)), **fields})
    assert str(exc.value) == message


@pytest.mark.parametrize("case", sorted(BAD_TRIPLETS))
def test_fix_and_bench_exit_two_on_a_malformed_triplet(tmp_path, capsys, case):
    fields, message = BAD_TRIPLETS[case]
    case_dir = copy_fixture(CORPUS_DIR / "stack_borrow", tmp_path)
    manifest = tmp_path / "manifest.jsonl"
    manifest.write_text(json.dumps({"id": "c01", "path": "stack_borrow/main.rs", "ub_kind": "stack_borrow"}) + "\n")
    shared = ["--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]
    kb = _store_with_bad_triplet_second_line(tmp_path, "kb", fields)
    log = _store_with_bad_triplet_second_line(tmp_path, "experience", fields)
    for command in ("fix", "bench"):
        target = str(case_dir / "main.rs") if command == "fix" else str(manifest)
        assert main([command, target, "--kb", str(kb), *shared]) == 2
        assert capsys.readouterr().err == f"error: {kb}:2: bad knowledge entry: {message}\n"
        assert main([command, target, "--experience", str(log), *shared]) == 2
        assert capsys.readouterr().err == f"error: {log}:2: bad experience record: {message}\n"


# Signature steps an experience line may not hold: a seeded solution is
# built from them, so each must name a fix agent and give an instruction.
BAD_SIGNATURES = {
    "unknown_agent": (["Bogus", "x"], "signature step names 'Bogus', not a fix agent"),
    "reason_agent": (["Reason", "x"], "signature step names 'Reason', not a fix agent"),
    "three_strings": (["SafeReplace", "x", "y"], "signature step ['SafeReplace', 'x', 'y'] is not an agent and an instruction"),
    "number_instruction": (["SafeReplace", 3], "signature step ['SafeReplace', 3] is not an agent and an instruction"),
    "bare_string": ("SafeReplace", "signature step 'SafeReplace' is not an agent and an instruction"),
}


@pytest.mark.parametrize("case", sorted(BAD_SIGNATURES))
def test_fix_exits_two_on_a_malformed_signature_step(tmp_path, capsys, case):
    step, message = BAD_SIGNATURES[case]
    line = _record([1.0, 0.0, 2.0, 0.0]).to_dict()
    log = tmp_path / "experience.jsonl"
    bad = {**line, "solution_signature": [step]}
    log.write_text(json.dumps(line) + "\n" + json.dumps(bad) + "\n", encoding="utf-8")
    with pytest.raises(StorageFailure) as exc:
        FeedbackEngine(log)
    assert str(exc.value) == f"{log}:2: bad experience record: {message}"
    case_dir = copy_fixture(CORPUS_DIR / "unaligned_pointer", tmp_path)
    shared = ["--detector-cmd", STUB_DETECTOR_ARG, "--fixed-clock"]
    assert main(["fix", str(case_dir / "main.rs"), "--experience", str(log), *shared]) == 2
    assert capsys.readouterr().err == f"error: {log}:2: bad experience record: {message}\n"
