"""Snapshot store: target selection, restore bookkeeping."""

from __future__ import annotations

import random

import pytest

from conftest import reports_of
from ubmend.errors import StorageFailure
from ubmend.rollback import SnapshotStore


class _NullWorkspace:
    def __init__(self):
        self.restored = []

    def restore(self, files):
        self.restored.append(dict(files))


def _target(counts):
    store = SnapshotStore()
    for i, count in enumerate(counts):
        store.record(i, {}, reports_of(count))
    return store.select_rollback_target()


def test_argmin_basic_and_ties():
    assert _target([5]) == 0
    assert _target([3, 1, 2]) == 1
    # ties resolve to the highest index
    assert _target([2, 1, 1]) == 2
    assert _target([0, 0, 0]) == 2
    assert _target([1, 2, 1]) == 2


def test_argmin_empty_rejected():
    with pytest.raises(StorageFailure):
        _target([])


def test_argmin_matches_exhaustive_scan():
    rng = random.Random(7)
    for _ in range(300):
        counts = [rng.randrange(0, 8) for _ in range(rng.randrange(1, 12))]
        lowest = min(counts)
        expected = max(i for i, c in enumerate(counts) if c == lowest)
        assert _target(counts) == expected


def test_record_and_select():
    store = SnapshotStore()
    store.record(0, {"main.rs": "a"}, reports_of(3))
    store.record(1, {"main.rs": "b"}, reports_of(1))
    store.record(2, {"main.rs": "c"}, reports_of(5))
    assert store.latest_index() == 2
    assert store.select_rollback_target() == 1


def test_select_with_sparse_indices():
    store = SnapshotStore()
    store.record(0, {}, reports_of(4))
    store.record(3, {}, reports_of(2))
    store.record(7, {}, reports_of(2))
    # counts tie; the newer snapshot index wins
    assert store.select_rollback_target() == 7


def test_record_rejects_duplicates():
    store = SnapshotStore()
    store.record(0, {}, reports_of(0))
    with pytest.raises(StorageFailure):
        store.record(0, {}, reports_of(1))


def test_latest_and_select_need_snapshots():
    store = SnapshotStore()
    with pytest.raises(StorageFailure):
        store.latest_index()
    with pytest.raises(StorageFailure):
        store.select_rollback_target()


def test_restore_writes_files_and_counts_discards():
    store = SnapshotStore()
    ws = _NullWorkspace()
    store.record(0, {"main.rs": "base"}, reports_of(3))
    store.record(1, {"main.rs": "one"}, reports_of(1))
    store.record(2, {"main.rs": "two"}, reports_of(5))
    snap = store.restore(1, ws)
    assert snap.files == {"main.rs": "one"}
    assert ws.restored == [{"main.rs": "one"}]
    assert store.stats.rollback_count == 1
    assert store.stats.discarded_thoughts == 2 - 1

    store.record(3, {"main.rs": "three"}, reports_of(4))
    store.restore(0, ws)
    assert store.stats.rollback_count == 2
    assert store.stats.discarded_thoughts == 1 + 3


def test_restore_unknown_index():
    store = SnapshotStore()
    store.record(0, {}, reports_of(0))
    with pytest.raises(StorageFailure):
        store.restore(5, _NullWorkspace())


def test_snapshots_are_isolated_copies():
    store = SnapshotStore()
    files = {"main.rs": "v1"}
    store.record(0, files, reports_of(1))
    files["main.rs"] = "mutated"
    assert store.snapshots[0].files == {"main.rs": "v1"}
