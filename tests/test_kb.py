"""Syntax trees, pruning, feature hashing, and the knowledge store."""

from __future__ import annotations

import json
import random

import numpy as np
import pytest

from conftest import padded
from ubmend.detector import UbKind, UbReport
from ubmend.errors import StorageFailure
from ubmend.feedback import EvalTriplet
from ubmend.kb import (
    VECTOR_DIMS,
    Ast,
    FeatureVector,
    KnowledgeBase,
    KnowledgeEntry,
    cosine,
    extract_ast,
    hashed_features,
    prune,
    solution_template,
    vectorize,
)

PROGRAM = """\
fn helper(v: &mut Vec<i32>) {
    for item in v.iter_mut() {
        *item += 1;
    }
}

fn main() {
    let mut v = vec![1, 2, 3];
    let x = unsafe {
        *v.as_mut_ptr()
    };
    helper(&mut v);
    println!("{x}");
}
"""


def _report(line: int, kind=UbKind.STACK_BORROW) -> UbReport:
    return UbReport(kind=kind, file="main.rs", line=line, message="m")


# --- parsing ---


def test_local_parse_structure():
    ast = extract_ast(PROGRAM)
    assert ast.nodes[0].kind == "file"
    kinds = [n.kind for n in ast.nodes]
    assert kinds.count("fn") == 2
    assert "unsafe_block" in kinds
    assert "loop" in kinds
    unsafe_nodes = [n for n in ast.nodes if n.is_unsafe]
    assert len(unsafe_nodes) == 1
    lo, hi = unsafe_nodes[0].span
    assert "as_mut_ptr" in PROGRAM[lo:hi]


def test_local_parse_nesting():
    spans = [n.span for n in extract_ast(PROGRAM).nodes]
    for i, (lo, hi) in enumerate(spans):
        # in pre-order a node lies inside each earlier node or after it
        for before_lo, before_hi in spans[:i]:
            assert before_lo <= lo <= hi <= before_hi or before_hi <= lo


# --- pruning ---


def _node_ids_by_prefix(ast: Ast, prefix: str) -> set[int]:
    return {
        n.id
        for n in ast.nodes
        if n.kind != "file"
        and ast.source[n.span[0]:n.span[1]].lstrip().startswith(prefix)
    }


def test_prune_keeps_only_unsafe_paths():
    ast = extract_ast(PROGRAM)
    pruned = prune(ast)
    assert pruned
    for node in pruned:
        lo, hi = node.span
        assert "unsafe" in PROGRAM[lo:hi]
    # helper fn contains no unsafe and must be gone
    kept = {n.id for n in pruned}
    assert not kept & _node_ids_by_prefix(ast, "fn helper")


def test_prune_with_errors_drops_unrelated_nodes():
    src = (
        "fn untouched() {\n    let q = 99;\n}\n\n"
        "fn main() {\n"
        "    let mut v = vec![1];\n"
        "    unsafe {\n        *v.as_mut_ptr() += 1;\n    }\n"
        "}\n"
    )
    ast = extract_ast(src)
    err_line = src[: src.index("as_mut_ptr")].count("\n") + 1
    pruned = prune(ast, [_report(err_line)])
    kept = {n.id for n in pruned}
    assert kept & _node_ids_by_prefix(ast, "unsafe {")
    assert not kept & _node_ids_by_prefix(ast, "fn untouched")


def test_prune_error_line_overlap_keeps_enclosing_fn():
    ast = extract_ast(PROGRAM)
    err_line = PROGRAM[: PROGRAM.index("as_mut_ptr")].count("\n") + 1
    pruned = prune(ast, [_report(err_line)])
    kept_kinds = {n.kind for n in pruned}
    assert "unsafe_block" in kept_kinds
    assert "fn" in kept_kinds


def test_prune_empty_for_safe_source():
    ast = extract_ast("fn main() { let x = 1; }\n")
    assert prune(ast) == []


# --- hashing and vectors ---


def test_hashed_features_shape():
    ast = extract_ast(PROGRAM)
    feats = hashed_features(prune(ast), [UbKind.STACK_BORROW])
    assert "ub:stack_borrow" in feats
    assert any(">" in f or f.startswith("^") for f in feats)


def test_vectorize_deterministic_and_sized():
    ast = extract_ast(PROGRAM)
    v1 = vectorize(prune(ast), [UbKind.STACK_BORROW])
    v2 = vectorize(prune(ast), [UbKind.STACK_BORROW])
    assert v1.dims == VECTOR_DIMS
    assert np.array_equal(v1.values, v2.values)
    assert not v1.is_zero
    assert sum(v1.values) == len(hashed_features(prune(ast), [UbKind.STACK_BORROW]))


def test_vectorize_zero_for_empty():
    v = vectorize(prune(extract_ast("fn main() {}\n")))
    assert v.is_zero


def test_vector_round_trip():
    v = FeatureVector([0.0, 1.5, 2.0])
    assert FeatureVector(v.values).values == [0.0, 1.5, 2.0]
    assert v.dims == 3


def test_cosine_properties():
    rng = random.Random(3)
    for _ in range(50):
        a = FeatureVector([rng.uniform(0, 5) for _ in range(8)])
        b = FeatureVector([rng.uniform(0, 5) for _ in range(8)])
        s = cosine(a, b)
        assert -1.0 - 1e-12 <= s <= 1.0 + 1e-12
        assert abs(cosine(a, a) - 1.0) < 1e-12
        assert cosine(a, b) == cosine(b, a)
    zero = FeatureVector([0.0] * 8)
    assert cosine(zero, a) == 0.0


def test_solution_template_masks_regions():
    sol = {
        "id": "s01",
        "steps": [
            {"agent": "ModifySemantics", "target_region": "main.rs#0", "instruction": "x"}
        ],
    }
    templ = solution_template(sol)
    assert templ["steps"][0]["target_region"] == "<region>"
    assert "id" not in templ


# --- knowledge store ---


def _vec(values) -> FeatureVector:
    return FeatureVector(padded(values))


def _entry(vec, kind=UbKind.STACK_BORROW, name="", accuracy=True):
    return KnowledgeEntry(
        vector=_vec(vec),
        ub_kind=kind,
        solution={"name": name, "steps": []},
        triplet=EvalTriplet(accuracy=accuracy, acceptability=None, overhead_seconds=1.0, overhead_tokens=10),
    )


def test_insert_requires_accuracy():
    kb = KnowledgeBase()
    with pytest.raises(ValueError):
        kb.insert(_entry([1.0, 0.0], accuracy=False))


def test_search_orders_by_similarity_then_recency():
    kb = KnowledgeBase()
    kb.insert(_entry([1.0, 0.0], name="first"))
    kb.insert(_entry([0.0, 1.0], name="other"))
    kb.insert(_entry([1.0, 0.0], name="newer"))  # same direction, newer
    hits = kb.search(_vec([1.0, 0.0]), k=3)
    sims = [round(s, 6) for s, _ in hits]
    assert sims == [1.0, 1.0, 0.0]
    assert [entry.solution["name"] for _, entry in hits] == ["newer", "first", "other"]


def test_search_ties_go_to_the_later_appended_entry(tmp_path):
    # each entry appended by a process of its own
    path = tmp_path / "kb.jsonl"
    for name in ("old", "new", "newer"):
        KnowledgeBase(path).insert(_entry([1.0, 0.0], name=name))
    hits = KnowledgeBase(path).search(_vec([1.0, 0.0]), k=3)
    assert [entry.solution["name"] for _, entry in hits] == ["newer", "new", "old"]


def test_a_line_with_a_created_stamp_loads_and_searches_by_position(tmp_path):
    # older stores stamp every line with ``created``, from clocks that do
    # not compare: the epoch, a logical clock from 0, a day of uptime
    path = tmp_path / "kb.jsonl"
    stamps = (("old", 1.7e9), ("new", 1.0), ("newer", 86_400.0))
    path.write_text(
        "".join(
            json.dumps({**_entry([1.0, 0.0], name=name).to_dict(), "created": created}) + "\n"
            for name, created in stamps
        ),
        encoding="utf-8",
    )
    kb = KnowledgeBase(path)
    hits = kb.search(_vec([1.0, 0.0]), k=3)
    assert [entry.solution["name"] for _, entry in hits] == ["newer", "new", "old"]
    assert [entry.to_dict() for entry in kb.entries] == [
        _entry([1.0, 0.0], name=name).to_dict() for name, _ in stamps
    ]


def test_a_line_whose_steps_hold_params_loads_and_searches_as_before(tmp_path):
    # steps were written with an always-empty ``params`` field until it went
    step = {"agent": "SafeReplace", "instruction": "use get", "target_region": "<region>"}
    vectors = ([1.0, 0.0], [1.0, 1.0], [0.0, 1.0])
    stores = {}
    for name, extra in (("legacy", {"params": {}}), ("current", {})):
        path = tmp_path / f"{name}.jsonl"
        for i, values in enumerate(vectors):
            entry = _entry(values)
            entry.solution = {"steps": [{**step, **extra}], "tag": i}
            KnowledgeBase(path).insert(entry)
        stores[name] = KnowledgeBase(path)
    legacy, current = stores["legacy"], stores["current"]
    assert [e.solution["steps"][0] for e in legacy.entries] == [{**step, "params": {}}] * 3
    for values in vectors:
        query = _vec(values)
        ranked = [[(sim, e.solution["tag"]) for sim, e in kb.search(query, k=3)] for kb in (legacy, current)]
        assert ranked[0] == ranked[1]


def test_search_k_cap_and_zero_vector():
    kb = KnowledgeBase()
    for i in range(5):
        kb.insert(_entry([1.0, float(i)]))
    assert len(kb.search(_vec([1.0, 1.0]), k=2)) == 2
    with pytest.raises(ValueError):
        kb.search(_vec([0.0, 0.0]))


def test_search_empty_store():
    kb = KnowledgeBase()
    assert kb.search(_vec([1.0])) == []


def test_jsonl_persistence_round_trip(tmp_path):
    path = tmp_path / "kb.jsonl"
    kb = KnowledgeBase(path)
    kb.insert(_entry([1.0, 2.0], kind=UbKind.ALLOC, name="alloc"))
    kb.insert(_entry([0.5, 0.5], name="stack_borrow"))

    reloaded = KnowledgeBase(path)
    assert [entry.solution["name"] for entry in reloaded.entries] == ["alloc", "stack_borrow"]
    assert reloaded.entries[0].ub_kind == UbKind.ALLOC
    assert reloaded.entries[0].vector == _vec([1.0, 2.0])
    assert reloaded.entries[0].triplet.accuracy is True
    hits = reloaded.search(_vec([1.0, 2.0]), k=1)
    assert hits[0][0] > 0.99


def test_unreadable_store_is_a_storage_failure(tmp_path):
    with pytest.raises(StorageFailure, match="unreadable knowledge entry file"):
        KnowledgeBase(tmp_path)
