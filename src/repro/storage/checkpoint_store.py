"""Epoch-state checkpoints: an in-memory, CRC-checked snapshot + delta journal.

One :class:`CheckpointStore` serves a whole run.  Each task journals its
state mutations as pickled *delta* entries; at epoch-aligned safe points the
task writes a full *snapshot* of its state, which truncates its delta log.
Recovery reads the last snapshot and replays the deltas logged after it
(see :mod:`repro.core.recovery`).

Durability model: a simulated crash runs in the same process and loses only
the crashed machine's task state, so the journal lives in process memory, as
per-task lists of ``(seq, payload, crc32)`` rows.  Every row is pickled when
it is written, which also isolates it from later mutation of the live state
it was taken from.

Journaling charges **zero virtual time** and touches neither the event heap
nor the rng, so a fault-free run with checkpointing enabled is bit-identical
to the same run without it (pinned in ``tests/test_fault_recovery.py``).
The journal's cost is surfaced instead as ``RunResult.checkpoint_overhead``
(bytes written), which the recovery benchmark charts against the interval.

Integrity model: every snapshot and delta row carries a CRC-32 of its
payload, verified on :meth:`load`.  The store retains the newest *two*
snapshots per task (plus the deltas back to the older one), so a torn or
corrupt newest snapshot recovers from the previous intact one with a longer
replay instead of deserialising garbage.  A corrupt delta at the journal
tail is treated as a torn write and truncated (nothing after it was applied
durably); a corrupt delta *followed by intact rows* — or no intact snapshot
at all — cannot be masked and raises :class:`CheckpointCorruptionError`.
"""

from __future__ import annotations

import pickle
import zlib
from typing import Any


class CheckpointCorruptionError(RuntimeError):
    """No intact checkpoint state remains for a task.

    Raised by :meth:`CheckpointStore.load` when every stored snapshot of a
    task fails its checksum, or when a delta row *inside* the replay chain
    (i.e. with intact rows after it) is corrupt — either way the journal
    cannot reconstruct a consistent state and recovery must fail loudly.
    """

    def __init__(self, task: str, reason: str) -> None:
        self.task = task
        super().__init__(f"checkpoint state for task {task!r} is corrupt: {reason}")


def _row(seq: int, value: Any) -> tuple[int, bytes, int]:
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    return seq, payload, zlib.crc32(payload)


def _unpickle(payload: bytes, checksum: int) -> tuple[bool, Any]:
    """``(True, value)`` for an intact row, ``(False, None)`` otherwise."""
    if zlib.crc32(payload) != checksum:
        return False, None
    try:
        return True, pickle.loads(payload)
    except Exception:
        return False, None


class CheckpointStore:
    """Snapshot + delta journal for every task of one run."""

    def __init__(self) -> None:
        # Per task, in ascending seq order: the newest two snapshots and the
        # deltas back to the older one.
        self._snapshots: dict[str, list[tuple[int, bytes, int]]] = {}
        self._deltas: dict[str, list[tuple[int, bytes, int]]] = {}
        self._next_seq: dict[str, int] = {}
        self._since_snapshot: dict[str, int] = {}
        self.bytes_written = 0
        self.delta_entries = 0
        self.snapshots_taken = 0

    # ------------------------------------------------------------- journaling

    def log(self, task: str, entry: Any) -> int:
        """Append one delta entry for ``task``; returns the number of deltas
        logged since that task's last snapshot."""
        seq = self._next_seq.get(task, 0)
        self._next_seq[task] = seq + 1
        row = _row(seq, entry)
        self._deltas.setdefault(task, []).append(row)
        self.bytes_written += len(row[1])
        self.delta_entries += 1
        count = self._since_snapshot.get(task, 0) + 1
        self._since_snapshot[task] = count
        return count

    def snapshot(self, task: str, state: Any) -> None:
        """Write a full state snapshot for ``task`` and prune its journal.

        The newest two snapshots are retained (with the deltas back to the
        older one) so a corrupt newest snapshot can fall back to the previous
        intact one; everything older is pruned.
        """
        row = _row(self._next_seq.get(task, 0), state)
        snapshots = self._snapshots.setdefault(task, [])
        if snapshots and snapshots[-1][0] == row[0]:
            snapshots[-1] = row  # no delta since the last snapshot: replace it
        else:
            snapshots.append(row)
        del snapshots[:-2]
        oldest = snapshots[0][0]
        deltas = self._deltas.get(task)
        if deltas:
            self._deltas[task] = [delta for delta in deltas if delta[0] >= oldest]
        self.bytes_written += len(row[1])
        self.snapshots_taken += 1
        self._since_snapshot[task] = 0

    def delta_count(self, task: str) -> int:
        """Deltas logged for ``task`` since its last snapshot."""
        return self._since_snapshot.get(task, 0)

    # --------------------------------------------------------------- recovery

    def load(self, task: str) -> tuple[Any, list[Any]]:
        """The last *intact* snapshot (or None) and its post-snapshot deltas.

        Every row is checksum-verified.  A corrupt newest snapshot falls back
        to the previous intact one (replaying a longer delta tail); a corrupt
        delta at the journal tail is truncated as a torn write; corruption
        that cannot be masked — no intact snapshot left, or a corrupt delta
        with intact rows after it — raises :class:`CheckpointCorruptionError`.
        """
        snapshot = None
        snapshot_seq = 0
        snapshot_rows = self._snapshots.get(task, [])
        for seq, payload, checksum in reversed(snapshot_rows):
            intact, value = _unpickle(payload, checksum)
            if intact:
                snapshot, snapshot_seq = value, seq
                break
        else:
            if snapshot_rows:
                raise CheckpointCorruptionError(
                    task, f"all {len(snapshot_rows)} stored snapshot(s) failed "
                    "their checksum"
                )
        delta_rows = [row for row in self._deltas.get(task, []) if row[0] >= snapshot_seq]
        deltas = []
        for index, (seq, payload, checksum) in enumerate(delta_rows):
            intact, value = _unpickle(payload, checksum)
            if intact:
                deltas.append(value)
                continue
            if any(
                zlib.crc32(later_payload) == later_checksum
                for _seq, later_payload, later_checksum in delta_rows[index + 1:]
            ):
                raise CheckpointCorruptionError(
                    task,
                    f"delta seq {seq} failed its checksum with intact "
                    "entries after it (not a torn tail)",
                )
            # Torn tail: the corrupt row and everything after it were never
            # durably applied; replay stops here.
            break
        return snapshot, deltas

    # --------------------------------------------------------------- plumbing

    def flush(self) -> None:
        """Pre-recovery barrier.  A no-op: every row is in the journal as
        soon as :meth:`log` or :meth:`snapshot` returns."""

    def close(self) -> None:
        """End of run: release the journal rows, so a finished run does not
        hold its checkpoints in memory.  The counters stay."""
        self._snapshots.clear()
        self._deltas.clear()
