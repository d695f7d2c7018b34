"""Run-wide metrics collection.

The collector gathers everything the paper's evaluation reports:

* output cardinality and (optionally) the full output for correctness checks,
* per-output tuple latency (output time minus arrival of the newer input),
* a time series of the maximum per-machine stored size (the ILF of Fig. 6a),
* migration events with their start/end times and traffic,
* the ILF competitive-ratio series of Fig. 8c.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from repro.engine.columns import np
from repro.engine.stream import StreamTuple


@dataclass(slots=True)
class LatencySample:
    """Latency of one output tuple."""

    output_time: float
    latency: float
    machine_id: int


@dataclass
class MigrationEvent:
    """One adaptivity event (mapping change) and its observed cost."""

    epoch: int
    decided_at: float
    old_mapping: tuple[int, int]
    new_mapping: tuple[int, int]
    completed_at: float | None = None
    migrated_volume: float = 0.0


@dataclass
class MetricsCollector:
    """Accumulates observations during a simulation run."""

    collect_outputs: bool = False
    output_count: int = 0
    outputs: list[tuple[int, int]] = field(default_factory=list)
    latencies: list[LatencySample] = field(default_factory=list)
    ilf_series: list[tuple[float, float]] = field(default_factory=list)
    competitive_series: list[tuple[int, float]] = field(default_factory=list)
    ratio_series: list[tuple[int, float]] = field(default_factory=list)
    migrations: list[MigrationEvent] = field(default_factory=list)
    processed_inputs: int = 0
    finish_time: float = 0.0
    progress_times: list[tuple[int, float]] = field(default_factory=list)
    probe_work: float = 0.0
    #: Drained-run size → count (adaptive data plane only; empty otherwise).
    drain_histogram: dict[int, int] = field(default_factory=dict)
    #: Columnar emission storage: ``(output_time, machine_id, latency_array)``
    #: per recorded :class:`~repro.engine.columns.MatchBlock`.  Latency values
    #: are bit-identical to the scalar samples (same float64 max/subtract per
    #: pair, applied elementwise); they are only *stored* in bulk.  Consumers
    #: wanting flat samples use :meth:`latency_samples`.
    latency_blocks: list[tuple[float, int, object]] = field(default_factory=list)

    # ------------------------------------------------------------ recording

    def record_output(
        self,
        left: StreamTuple,
        right: StreamTuple,
        output_time: float,
        machine_id: int,
    ) -> None:
        """Record one join result (called by joiner tasks via the context)."""
        self.output_count += 1
        if self.collect_outputs:
            self.outputs.append((left.tuple_id, right.tuple_id))
        newer_arrival = max(left.arrival_time, right.arrival_time)
        self.latencies.append(
            LatencySample(
                output_time=output_time,
                latency=max(0.0, output_time - newer_arrival),
                machine_id=machine_id,
            )
        )

    def record_outputs(
        self,
        matches: list[tuple[StreamTuple, StreamTuple]],
        output_time: float,
        machine_id: int,
    ) -> None:
        """Record several join results sharing one emission instant.

        Bulk path for the per-tuple match loop: identical samples to calling
        :meth:`record_output` per pair, with the collector overhead paid once.

        Columnar match sets (:class:`~repro.engine.columns.MatchBlock`) are
        dispatched on type to the vectorised block kernel — call sites stay
        oblivious to which engine produced the matches.
        """
        if matches.__class__ is not list:
            self._record_block(matches, output_time, machine_id)
            return
        self.output_count += len(matches)
        if self.collect_outputs:
            self.outputs.extend(
                (left.tuple_id, right.tuple_id) for left, right in matches
            )
        append = self.latencies.append
        for left, right in matches:
            newer_arrival = max(left.arrival_time, right.arrival_time)
            append(
                LatencySample(
                    output_time=output_time,
                    latency=max(0.0, output_time - newer_arrival),
                    machine_id=machine_id,
                )
            )

    def _record_block(self, block, output_time: float, machine_id: int) -> None:
        """Record a columnar :class:`MatchBlock` with one latency kernel.

        ``max(left.arrival_time, right.arrival_time)`` / subtract / clamp-at-0
        per pair, run elementwise over the block's arrival column — each value
        is the bit-identical float64 result of the scalar sample arithmetic.
        The block's arrays are never mutated (they may be zero-copy snapshots
        of live index columns); every kernel output is a fresh array.
        """
        self.output_count += block.count
        if self.collect_outputs:
            item_id = block.item.tuple_id
            ids = block.ids.tolist()
            if block.item_is_left:
                self.outputs.extend((item_id, candidate) for candidate in ids)
            else:
                self.outputs.extend((candidate, item_id) for candidate in ids)
        newer = np.maximum(block.arrivals, block.item.arrival_time)
        latencies = output_time - newer
        np.maximum(latencies, 0.0, out=latencies)
        self.latency_blocks.append((output_time, machine_id, latencies))

    def record_probe_work(self, amount: float) -> None:
        """Accumulate joiner probe work units (index candidates inspected,
        floored at one unit per probe — see ``LocalJoiner.probe``)."""
        self.probe_work += amount

    def record_drained_run(self, size: int) -> None:
        """Count one drain-eligible run of ``size`` coalesced messages."""
        histogram = self.drain_histogram
        histogram[size] = histogram.get(size, 0) + 1

    def record_input_processed(self, now: float) -> None:
        """Count an input tuple having been routed by a reshuffler."""
        self.processed_inputs += 1
        self.progress_times.append((self.processed_inputs, now))

    def record_ilf(self, now: float, max_machine_ilf: float) -> None:
        """Append one point to the ILF-versus-time series (Fig. 6a)."""
        self.ilf_series.append((now, max_machine_ilf))

    def record_competitive_ratio(self, processed: int, ratio: float) -> None:
        """Append one point to the ILF/ILF* ratio series (Fig. 8c)."""
        self.ratio_series.append((processed, ratio))

    def record_cardinality_ratio(self, processed: int, ratio: float) -> None:
        """Append one |R|/|S| sample (also plotted in Fig. 8c)."""
        self.competitive_series.append((processed, ratio))

    def start_migration(
        self,
        epoch: int,
        now: float,
        old_mapping: tuple[int, int],
        new_mapping: tuple[int, int],
    ) -> MigrationEvent:
        """Open a migration event record."""
        event = MigrationEvent(
            epoch=epoch, decided_at=now, old_mapping=old_mapping, new_mapping=new_mapping
        )
        self.migrations.append(event)
        return event

    def complete_migration(self, epoch: int, now: float) -> None:
        """Mark the migration that opened epoch ``epoch`` as completed."""
        for event in reversed(self.migrations):
            if event.epoch == epoch and event.completed_at is None:
                event.completed_at = now
                return

    # ------------------------------------------------------- derived series

    def progress_fraction_series(
        self, total_inputs: int, max_points: int = 200
    ) -> list[tuple[float, float]]:
        """The progress series as (fraction of input processed, virtual time).

        The raw ``progress_times`` series has one point per input tuple;
        it is downsampled to at most ~``max_points`` evenly spaced points so
        results stay small on large runs.
        """
        total = max(total_inputs, 1)
        step = max(1, len(self.progress_times) // max_points)
        return [(count / total, time) for count, time in self.progress_times[::step]]

    def ilf_fraction_series(self, total_inputs: int) -> list[tuple[float, float]]:
        """The ILF series re-indexed by fraction of input processed.

        The controller samples every ``sample_every`` of *its own* tuples and
        stores the global processed count as the x coordinate, so this only
        rescales x to a fraction (clamped at 1.0 for late samples).
        """
        total = max(total_inputs, 1)
        return [(min(1.0, count / total), value) for count, value in self.ilf_series]

    # ------------------------------------------------------------ summaries

    def latency_samples(self):
        """Iterate every output latency as :class:`LatencySample`.

        Flattens the bulk-stored columnar blocks into the scalar sample shape;
        ordering is scalar samples first, then blocks in recording order.
        """
        yield from self.latencies
        for output_time, machine_id, latencies in self.latency_blocks:
            for latency in latencies.tolist():
                yield LatencySample(
                    output_time=output_time, latency=latency, machine_id=machine_id
                )

    def average_latency(self) -> float:
        """Mean output-tuple latency (0 when no output was produced).

        Uses exact summation (:func:`math.fsum`) so the mean does not depend
        on the order outputs were recorded in — joiners on different machines
        interleave their emissions differently across data planes even when
        every individual sample is bit-identical.  Scalar samples and columnar
        block arrays feed one *single* fsum pass (a sum of per-group fsums
        would not be exactly rounded, so it would not be order-independent).
        """
        blocks = self.latency_blocks
        count = len(self.latencies)
        if blocks:
            count += sum(latencies.shape[0] for _, _, latencies in blocks)
        if not count:
            return 0.0
        values = (sample.latency for sample in self.latencies)
        if blocks:
            values = itertools.chain(
                values,
                itertools.chain.from_iterable(
                    latencies.tolist() for _, _, latencies in blocks
                ),
            )
        return math.fsum(values) / count

    def throughput(self) -> float:
        """Input tuples processed per unit of virtual time."""
        if self.finish_time <= 0:
            return 0.0
        return self.processed_inputs / self.finish_time

    def output_throughput(self) -> float:
        """Output tuples produced per unit of virtual time."""
        if self.finish_time <= 0:
            return 0.0
        return self.output_count / self.finish_time

    def max_competitive_ratio(self) -> float:
        """Largest observed ILF/ILF* ratio (1.0 when never recorded)."""
        if not self.ratio_series:
            return 1.0
        return max(ratio for _, ratio in self.ratio_series)

    def migration_count(self) -> int:
        """Number of mapping changes triggered during the run."""
        return len(self.migrations)
