"""Snapshot store and adaptive rollback-target selection.

Snapshots hold full file contents (targets are token-bounded, so cheap and
simple beats deltas) together with the detector reports for those contents,
and are kept in memory for the length of a session. A snapshot's error
count is the number of its reports. Snapshot index i is position i in the
session's error-count sequence: 0 is the pre-repair baseline, i >= 1 is the
state after fix thought i.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from .errors import StorageFailure

if TYPE_CHECKING:  # pragma: no cover
    from .detector import UbReport
    from .workspace import WorkingCopy


@dataclass
class Snapshot:
    """The files of one state of the working copy and the detector reports
    for exactly those bytes."""

    index: int
    files: dict[str, str]
    reports: tuple["UbReport", ...]

    @property
    def error_count(self) -> int:
        return len(self.reports)


@dataclass
class RollbackStats:
    """Bookkeeping for rollback overhead.

    ``discarded_thoughts`` accumulates (current index - restored index) per
    rollback, the work a rollback throws away.
    """

    rollback_count: int = 0
    discarded_thoughts: int = 0


class SnapshotStore:
    def __init__(self) -> None:
        self.snapshots: dict[int, Snapshot] = {}
        self.stats = RollbackStats()

    def record(self, index: int, files: dict[str, str], reports: Sequence["UbReport"]) -> Snapshot:
        """Keep a copy of ``files`` and their detector ``reports`` as snapshot
        ``index``; StorageFailure when that index is already taken."""
        if index in self.snapshots:
            raise StorageFailure(f"snapshot index {index} already recorded")
        snap = Snapshot(index=index, files=dict(files), reports=tuple(reports))
        self.snapshots[index] = snap
        return snap

    def latest_index(self) -> int:
        if not self.snapshots:
            raise StorageFailure("no snapshots recorded")
        return max(self.snapshots)

    def select_rollback_target(self) -> int:
        """Index of the snapshot with the fewest errors; the newest wins a tie."""
        if not self.snapshots:
            raise StorageFailure("no snapshots recorded")
        return min(self.snapshots, key=lambda i: (self.snapshots[i].error_count, -i))

    def restore(self, index: int, workspace: "WorkingCopy") -> Snapshot:
        """Write snapshot ``index`` back into the working copy, byte-exact."""
        try:
            snap = self.snapshots[index]
        except KeyError:
            raise StorageFailure(f"no snapshot with index {index}") from None
        workspace.restore(snap.files)
        current = self.latest_index()
        self.stats.rollback_count += 1
        self.stats.discarded_thoughts += current - index
        return snap
