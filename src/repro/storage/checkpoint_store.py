"""Durable epoch-state checkpoints: an SQLite-WAL-backed snapshot + delta log.

One :class:`CheckpointStore` serves a whole run.  Each task journals its
state mutations as pickled *delta* entries; at epoch-aligned safe points the
task writes a full *snapshot* of its state, which truncates its delta log.
Recovery reads the last snapshot and replays the deltas logged after it
(see :mod:`repro.core.recovery`).

Durability model: the store lives in a WAL-mode SQLite file (a temp file by
default, removed when the run closes the store).  Deltas are buffered in
memory and flushed with ``executemany`` every ``flush_every`` entries —
write-behind, like a group-committed log — and are force-flushed at every
snapshot and at crash time, so the on-disk journal is always complete before
recovery reads it.

Journaling charges **zero virtual time** and touches neither the event heap
nor the rng, so a fault-free run with checkpointing enabled is bit-identical
to the same run without it (pinned in ``tests/test_fault_recovery.py``).
The I/O cost is surfaced instead as ``RunResult.checkpoint_overhead`` (bytes
written), which the recovery benchmark charts against the interval.

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

import os
import pickle
import sqlite3
import tempfile
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


class CheckpointStore:
    """Snapshot + delta journal for every task of one run.

    Args:
        path: SQLite database file.  ``None`` creates a temp file that is
            deleted on :meth:`close`.
        flush_every: buffered delta entries per task before an
            ``executemany`` flush to the database.
    """

    def __init__(self, path: str | None = None, flush_every: int = 64) -> None:
        if path is None:
            handle, path = tempfile.mkstemp(prefix="repro-checkpoint-", suffix=".sqlite")
            os.close(handle)
            self._owns_file = True
        else:
            self._owns_file = False
        self.path = path
        self.flush_every = max(1, int(flush_every))
        # WAL, a group-commit-friendly sync level, and a busy timeout.
        conn = self._conn = sqlite3.connect(self.path)
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=10000")
        conn.execute(
            "CREATE TABLE IF NOT EXISTS snapshots ("
            " task TEXT NOT NULL, seq INTEGER NOT NULL, payload BLOB NOT NULL,"
            " checksum INTEGER NOT NULL, PRIMARY KEY (task, seq))"
        )
        conn.execute(
            "CREATE TABLE IF NOT EXISTS deltas ("
            " task TEXT NOT NULL, seq INTEGER NOT NULL, payload BLOB NOT NULL,"
            " checksum INTEGER NOT NULL, PRIMARY KEY (task, seq))"
        )
        conn.commit()
        self._buffers: dict[str, list[tuple[str, int, bytes, int]]] = {}
        self._next_seq: dict[str, int] = {}
        self._since_snapshot: dict[str, int] = {}
        self.bytes_written = 0
        self.delta_entries = 0
        self.snapshots_taken = 0
        self._closed = False

    # ------------------------------------------------------------- journaling

    def log(self, task: str, entry: Any) -> int:
        """Append one delta entry for ``task``; returns the number of deltas
        logged since that task's last snapshot."""
        payload = pickle.dumps(entry, protocol=pickle.HIGHEST_PROTOCOL)
        seq = self._next_seq.get(task, 0)
        self._next_seq[task] = seq + 1
        buffer = self._buffers.setdefault(task, [])
        buffer.append((task, seq, payload, zlib.crc32(payload)))
        if len(buffer) >= self.flush_every:
            self._flush_task(task)
        self.bytes_written += len(payload)
        self.delta_entries += 1
        count = self._since_snapshot.get(task, 0) + 1
        self._since_snapshot[task] = count
        return count

    def snapshot(self, task: str, state: Any) -> None:
        """Write a full state snapshot for ``task`` and prune its journal.

        The newest two snapshots are retained (with the deltas back to the
        older one) so a corrupt newest snapshot can fall back to the previous
        intact one; everything older is pruned.  Buffered deltas are flushed
        first — they are the fallback's replay tail, no longer superseded
        garbage.
        """
        payload = pickle.dumps(state, protocol=pickle.HIGHEST_PROTOCOL)
        self._flush_task(task)
        seq = self._next_seq.get(task, 0)
        conn = self._conn
        conn.execute(
            "INSERT OR REPLACE INTO snapshots (task, seq, payload, checksum)"
            " VALUES (?, ?, ?, ?)",
            (task, seq, payload, zlib.crc32(payload)),
        )
        conn.execute(
            "DELETE FROM snapshots WHERE task = ? AND seq NOT IN ("
            " SELECT seq FROM snapshots WHERE task = ?"
            " ORDER BY seq DESC LIMIT 2)",
            (task, task),
        )
        conn.execute(
            "DELETE FROM deltas WHERE task = ? AND seq < ("
            " SELECT MIN(seq) FROM snapshots WHERE task = ?)",
            (task, task),
        )
        conn.commit()
        self.bytes_written += len(payload)
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
        self._flush_task(task)
        conn = self._conn
        snapshot = None
        snapshot_seq = 0
        snapshot_rows = conn.execute(
            "SELECT seq, payload, checksum FROM snapshots WHERE task = ?"
            " ORDER BY seq DESC",
            (task,),
        ).fetchall()
        for seq, payload, checksum in snapshot_rows:
            if zlib.crc32(payload) != checksum:
                continue
            try:
                snapshot = pickle.loads(payload)
            except Exception:
                continue
            snapshot_seq = seq
            break
        else:
            if snapshot_rows:
                raise CheckpointCorruptionError(
                    task, f"all {len(snapshot_rows)} stored snapshot(s) failed "
                    "their checksum"
                )
        delta_rows = conn.execute(
            "SELECT seq, payload, checksum FROM deltas WHERE task = ?"
            " AND seq >= ? ORDER BY seq",
            (task, snapshot_seq),
        ).fetchall()
        deltas = []
        for index, (seq, payload, checksum) in enumerate(delta_rows):
            intact = zlib.crc32(payload) == checksum
            if intact:
                try:
                    deltas.append(pickle.loads(payload))
                    continue
                except Exception:
                    intact = False
            if not intact:
                tail = delta_rows[index + 1:]
                if any(
                    zlib.crc32(later_payload) == later_checksum
                    for _seq, later_payload, later_checksum in tail
                ):
                    raise CheckpointCorruptionError(
                        task,
                        f"delta seq {seq} failed its checksum with intact "
                        "entries after it (not a torn tail)",
                    )
                # Torn tail: the corrupt row and everything after it were
                # never durably applied; replay stops here.
                break
        return snapshot, deltas

    # --------------------------------------------------------------- plumbing

    def _flush_task(self, task: str) -> None:
        """Flush one task's buffered deltas to the database."""
        buffer = self._buffers.pop(task, None)
        if buffer:
            conn = self._conn
            conn.executemany(
                "INSERT INTO deltas (task, seq, payload, checksum)"
                " VALUES (?, ?, ?, ?)",
                buffer,
            )
            conn.commit()

    def flush(self) -> None:
        """Force every buffered delta to the database (pre-recovery barrier)."""
        for task in list(self._buffers):
            self._flush_task(task)

    def close(self) -> None:
        """Close the connection and remove the backing temp file."""
        if self._closed:
            return
        self._closed = True
        try:
            self._conn.close()
        finally:
            if self._owns_file:
                for suffix in ("", "-wal", "-shm"):
                    try:
                        os.unlink(self.path + suffix)
                    except OSError:
                        pass

    def __del__(self) -> None:  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
