"""Sparse feature vectors against the dense numpy arithmetic they replaced.

``kb.FeatureVector`` keeps a vector's nonzero buckets and its norm, and
``kb.cosine`` walks the smaller support. Hashed vectors hold integer term
counts, so every dot product and squared norm is exact and the cosines,
and with them ranking, seeding and search order, must equal numpy's bit
for bit. numpy is a test-only dependency; the package must not import it.
"""
from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CORPUS_DIR, TOOLS_DIR, signature_candidates
from ubmend.feedback import FeedbackEngine
from ubmend.kb import FeatureVector, KnowledgeBase, cosine

SRC_DIR = Path(__file__).resolve().parent.parent / "src"

COUNT = st.integers(1, 50)
# away from zero and overflow, so no square or product under- or overflows
FLOAT = st.one_of(st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


def _pairs(element):
    """Two dense vectors of 1-256 dims, each with up to 32 nonzero entries."""

    def dense(n: int):
        return st.dictionaries(st.integers(0, n - 1), element, max_size=32).map(
            lambda nonzero: [nonzero.get(i, 0) for i in range(n)]
        )

    return st.integers(1, 256).flatmap(lambda n: st.tuples(dense(n), dense(n)))


def _numpy_norm(values) -> float:
    return float(np.linalg.norm(np.asarray(values, dtype=np.float64)))


def _array(v: FeatureVector) -> np.ndarray:
    return np.asarray(v.values, dtype=np.float64)


def _numpy_cosine(va: np.ndarray, vb: np.ndarray) -> float:
    """The cosine as computed on dense float64 arrays."""
    na, nb = float(np.linalg.norm(va)), float(np.linalg.norm(vb))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(va, vb) / (na * nb))


@settings(max_examples=300, deadline=None)
@given(_pairs(COUNT))
def test_counts_equal_numpy_exactly(pair):
    xs, ys = pair
    a, b = FeatureVector(xs), FeatureVector(ys)
    assert a.values == [float(x) for x in xs]
    assert a.norm == _numpy_norm(xs)
    assert a.is_zero == (_numpy_norm(xs) == 0.0)
    assert cosine(a, b) == _numpy_cosine(_array(a), _array(b))
    assert cosine(a, a) == _numpy_cosine(_array(a), _array(a))


@settings(max_examples=300, deadline=None)
@given(_pairs(FLOAT))
def test_floats_agree_with_numpy_and_are_symmetric(pair):
    xs, ys = pair
    a, b = FeatureVector(xs), FeatureVector(ys)
    assert abs(a.norm - _numpy_norm(xs)) <= 1e-12 * _numpy_norm(xs)
    assert a.is_zero == (_numpy_norm(xs) == 0.0)
    assert abs(cosine(a, b) - _numpy_cosine(_array(a), _array(b))) <= 1e-12
    assert cosine(a, b) == cosine(b, a)


def test_generated_store_ranks_seeds_and_searches_as_numpy(tmp_path, perfbench_gen, monkeypatch):
    gen = perfbench_gen
    templates = gen.load_templates(CORPUS_DIR)
    kb_path, exp_path = tmp_path / "kb.jsonl", tmp_path / "experience.jsonl"
    gen.build_store(templates, 1, TOOLS_DIR / "fake_miri.py", kb_path, exp_path)
    kb = KnowledgeBase(kb_path)
    engine = FeedbackEngine(exp_path, kb=kb)
    queries = [v for v, _ in gen.template_vectors(templates, TOOLS_DIR / "fake_miri.py").values()]
    # store vectors as queries too: their cosines with other filler vectors are not 0
    queries += [r.feature_vector for r in engine.records[:20]]

    def outcomes(query: FeatureVector):
        ranked = [c.id for c in engine.rank_solutions(signature_candidates(gen._SIGNATURES), query)]
        hit = engine.best_hit(query)
        hit = None if hit is None else (hit[0], id(hit[1]))
        found = [(sim, id(entry)) for sim, entry in kb.search(query, k=3)]
        return ranked, hit, found

    sparse = [outcomes(q) for q in queries]
    vectors = queries + [r.feature_vector for r in engine.records] + [e.vector for e in kb.entries]
    arrays = {id(v): _array(v) for v in vectors}

    def numpy_cosine(a: FeatureVector, b: FeatureVector) -> float:
        return _numpy_cosine(arrays[id(a)], arrays[id(b)])

    monkeypatch.setattr("ubmend.feedback.cosine", numpy_cosine)
    monkeypatch.setattr("ubmend.kb.cosine", numpy_cosine)
    dense = [outcomes(q) for q in queries]
    assert sparse == dense
    assert any(hit is not None for _, hit, _ in sparse)


def test_cli_import_leaves_numpy_out():
    path = [str(SRC_DIR), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    code = "import sys, ubmend.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=60
    )
    assert out.stdout == "False\n"
