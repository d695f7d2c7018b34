"""The session facade: one front door for materialised and streaming runs.

A :class:`JoinSession` binds a :class:`~repro.api.config.RunConfig` (plus an
operator kind and an optional default workload) and exposes the two ingestion
modes of the system:

* **materialised** — :meth:`JoinSession.run` executes a
  :class:`~repro.data.queries.JoinQuery` end to end, exactly like
  ``operator.run()`` always did, and returns a
  :class:`~repro.core.results.RunResult`;
* **streaming** — :meth:`JoinSession.push` feeds record chunks into a live,
  resumable simulation (opened lazily or explicitly via
  :meth:`JoinSession.open_stream`), returning a mid-run
  :class:`StreamSnapshot` after each chunk; :meth:`JoinSession.finish`
  drains the simulation and returns the final
  :class:`~repro.core.results.RunResult`.  This is the unbounded/live-stream
  mode the materialised bench layer cannot express: the input need never be
  materialised up front, and progress can be observed between chunks.

Override precedence is ``session default < per-run config < call-site``: the
session's config is the default, a ``config=`` passed to a run method
replaces it wholesale, and keyword overrides are applied last.

Operators are constructed exclusively through the
:data:`~repro.api.registry.operators` registry, so session code never
switches on kind strings and registered third-party operators work
transparently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.api.config import RunConfig
from repro.api.registry import operators
from repro.core.mapping import Mapping
from repro.engine.stream import StreamTuple, make_tuples
from repro.engine.task import DataEnvelope, MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.operator import GridJoinOperator
    from repro.core.results import RunResult
    from repro.data.queries import JoinQuery
    from repro.engine.machine import CostModel


#: Operator-specific constructor arguments that are not :class:`RunConfig`
#: fields (they depend on the operator kind / workload, not the run).
OPERATOR_ONLY_KWARGS = ("adaptive", "initial_mapping")


def build_operator(
    kind: str,
    query: "JoinQuery",
    config: RunConfig | None = None,
    *,
    cost_model: "CostModel | None" = None,
    **overrides: Any,
) -> "GridJoinOperator":
    """Construct a registered operator from a :class:`RunConfig`.

    This is the registry-backed replacement for the old
    ``repro.core.baselines.make_operator`` string-switch: ``kind`` is looked
    up in the :data:`~repro.api.registry.operators` registry (unknown kinds
    fail with the registered choices listed) and keyword ``overrides`` are
    applied on top of ``config``.  The operator-specific ``adaptive`` /
    ``initial_mapping`` arguments pass through to the operator class; all
    other overrides must name :class:`RunConfig` fields.
    """
    operator_class = operators.get(kind)
    extras = {
        key: overrides.pop(key) for key in OPERATOR_ONLY_KWARGS if key in overrides
    }
    effective = (config or RunConfig()).with_overrides(**overrides)
    return operator_class(query, config=effective, cost_model=cost_model, **extras)


@dataclass(frozen=True)
class StreamSnapshot:
    """Mid-run observability of a streaming session.

    Attributes:
        tuples_pushed: input tuples ingested so far.
        virtual_time: current virtual completion time of the work so far.
        events_processed: simulator handler invocations so far.
        output_count: join results produced so far.
        migrations: mapping changes triggered so far.
        mapping: the controller's current ``(n, m)`` mapping.
        max_ilf: peak per-machine stored size observed so far.
        total_storage: current total cluster storage.
        probe_work: joiner probe work units charged so far.
    """

    tuples_pushed: int
    virtual_time: float
    events_processed: int
    output_count: int
    migrations: int
    mapping: Mapping
    max_ilf: float
    total_storage: float
    probe_work: float


class _StreamingRun:
    """State of one incremental run: a live simulator plus the source feed.

    Each pushed tuple becomes one SOURCE message at its arrival time, with
    the reshuffler drawn from ``Random(seed)`` — the same draw sequence as the
    materialised ``arrival_order`` path, so a workload sees identical arrivals
    whether it comes in one materialised schedule or in arbitrary chunks.
    """

    def __init__(self, operator: "GridJoinOperator", collect_outputs: bool = False) -> None:
        self.operator = operator
        self.simulator, self.topology = operator.build_execution(
            collect_outputs=collect_outputs
        )
        self.inter_arrival = operator.config.inter_arrival
        # Destination picking mirrors GridJoinOperator.run(arrival_order=...):
        # a fresh Random(seed) used exclusively for reshuffler choice.
        self._route_rng = random.Random(operator.seed)
        # Raw records pushed without pre-assigned salts get deterministic
        # salts from a dedicated source (the materialised path draws salts
        # and destinations interleaved from one rng, which an incremental
        # feed cannot reproduce; pre-salted StreamTuples bypass this).
        self._salt_rng = random.Random(f"repro-stream-salts-{operator.seed}")
        self._pushed = 0
        self.finished = False

    # ------------------------------------------------------------- ingestion

    def _coerce(
        self,
        entries: Iterable[StreamTuple | dict],
        relation: str,
        tuple_size: float,
    ) -> list[StreamTuple]:
        items: list[StreamTuple] = []
        records: list[dict] = []
        for entry in entries:
            if isinstance(entry, StreamTuple):
                if entry.relation != relation:
                    raise ValueError(
                        f"pushed tuple belongs to relation {entry.relation!r}, "
                        f"expected {relation!r}"
                    )
                if records:
                    items.extend(make_tuples(relation, records, self._salt_rng, tuple_size))
                    records = []
                items.append(entry)
            else:
                records.append(entry)
        if records:
            items.extend(make_tuples(relation, records, self._salt_rng, tuple_size))
        return items

    def push(
        self,
        left: Iterable[StreamTuple | dict] = (),
        right: Iterable[StreamTuple | dict] = (),
        items: Sequence[StreamTuple] = (),
        run: bool = True,
    ) -> StreamSnapshot:
        if self.finished:
            raise RuntimeError("cannot push into a finished streaming session")
        query = self.operator.query
        chunk: list[StreamTuple] = []
        chunk.extend(self._coerce(left, query.left_relation, query.left_tuple_size))
        chunk.extend(self._coerce(right, query.right_relation, query.right_tuple_size))
        relations = (query.left_relation, query.right_relation)
        for item in items:
            if not isinstance(item, StreamTuple):
                raise TypeError("items= accepts StreamTuple objects only")
            if item.relation not in relations:
                raise ValueError(
                    f"pushed tuple belongs to relation {item.relation!r}, "
                    f"expected one of {relations}"
                )
            chunk.append(item)
        query.predicate.check_keys(chunk, query.left_relation)
        for item in chunk:
            self._ingest(item)
        if run:
            self.simulator.run()
        return self.snapshot()

    def _ingest(self, item: StreamTuple) -> None:
        arrival_time = self._pushed * self.inter_arrival
        item.arrival_time = arrival_time
        self._pushed += 1
        destination = self._route_rng.choice(self.topology.reshuffler_names)
        self.simulator.schedule_data(
            arrival_time,
            destination,
            DataEnvelope(MessageKind.SOURCE, "__source__", item, 0, item.size),
        )

    # ----------------------------------------------------------- observation

    def snapshot(self) -> StreamSnapshot:
        simulator = self.simulator
        metrics = simulator.metrics
        virtual_time = simulator.now
        for machine in simulator.machines:
            virtual_time = max(virtual_time, machine.busy_until)
        controller = simulator.tasks[self.topology.controller_name]
        return StreamSnapshot(
            tuples_pushed=self._pushed,
            virtual_time=virtual_time,
            events_processed=simulator.events_processed,
            output_count=metrics.output_count,
            migrations=metrics.migration_count(),
            mapping=controller.mapping,
            max_ilf=simulator.max_machine_storage(),
            total_storage=simulator.total_storage(),
            probe_work=metrics.probe_work,
        )

    # ----------------------------------------------------------------- finish

    def finish(self) -> "RunResult":
        if self.finished:
            raise RuntimeError("streaming session already finished")
        self.simulator.run()
        self.finished = True
        return self.operator.collect_result(self.simulator, self.topology, self._pushed)


class JoinSession:
    """Configured entry point for running the operator on workloads.

    Args:
        query: optional default workload, used when a run method is not given
            one explicitly (and as the schema of the streaming mode).
        operator: default operator kind (a name registered in
            :data:`repro.api.registry.operators`).
        config: the session's default :class:`RunConfig`.
        cost_model: optional cost-model override shared by all runs.
        **defaults: keyword overrides applied to ``config`` (constructor
            call-site beats the config object, mirroring run-time precedence).

    Example::

        session = JoinSession(config=RunConfig(machines=16, seed=7))
        result = session.run(query, operator="Dynamic")

        session.push(left=bid_chunk, right=ask_chunk)   # streaming mode
        snap = session.push(right=more_asks)
        final = session.finish()
    """

    def __init__(
        self,
        query: "JoinQuery | None" = None,
        *,
        operator: str = "Dynamic",
        config: RunConfig | None = None,
        cost_model: "CostModel | None" = None,
        **defaults: Any,
    ) -> None:
        self.query = query
        self.operator_kind = operator
        self.cost_model = cost_model
        self.config = (config or RunConfig()).with_overrides(**defaults)
        self._stream: _StreamingRun | None = None
        self._stream_finished = False

    # -------------------------------------------------------------- plumbing

    def _resolve_query(self, query: "JoinQuery | None") -> "JoinQuery":
        resolved = query if query is not None else self.query
        if resolved is None:
            raise ValueError("no query: pass one to the call or to JoinSession(...)")
        return resolved

    def operator(
        self,
        query: "JoinQuery | None" = None,
        *,
        kind: str | None = None,
        config: RunConfig | None = None,
        **overrides: Any,
    ) -> "GridJoinOperator":
        """Construct (without running) an operator under this session's config."""
        # build_operator splits off the operator-only kwargs itself; resolve
        # the base config here and pass everything through.
        base = self.config if config is None else config
        return build_operator(
            kind or self.operator_kind,
            self._resolve_query(query),
            base,
            cost_model=self.cost_model,
            **overrides,
        )

    # ------------------------------------------------------ materialised mode

    def run(
        self,
        query: "JoinQuery | None" = None,
        *,
        operator: str | None = None,
        config: RunConfig | None = None,
        arrival_order: Sequence[StreamTuple] | None = None,
        collect_outputs: bool = False,
        max_events: int | None = None,
        **overrides: Any,
    ) -> "RunResult":
        """Run one materialised workload end to end and return its result."""
        op = self.operator(query, kind=operator, config=config, **overrides)
        return op.run(
            arrival_order=arrival_order,
            collect_outputs=collect_outputs,
            max_events=max_events,
        )

    # --------------------------------------------------------- streaming mode

    @property
    def streaming(self) -> bool:
        """Whether a streaming run is currently open."""
        return self._stream is not None

    def open_stream(
        self,
        query: "JoinQuery | None" = None,
        *,
        operator: str | None = None,
        config: RunConfig | None = None,
        collect_outputs: bool = False,
        **overrides: Any,
    ) -> "JoinSession":
        """Open the incremental ingestion mode (idempotent via :meth:`push`).

        The query supplies the *schema* (relation names, predicate, tuple
        sizes); its materialised records, if any, are not fed — only data
        passed to :meth:`push` flows through the operator.
        """
        if self._stream is not None:
            raise RuntimeError("a streaming run is already open; finish() it first")
        op = self.operator(query, kind=operator, config=config, **overrides)
        self._stream = _StreamingRun(op, collect_outputs=collect_outputs)
        self._stream_finished = False
        return self

    def push(
        self,
        left: Iterable[StreamTuple | dict] = (),
        right: Iterable[StreamTuple | dict] = (),
        *,
        items: Sequence[StreamTuple] = (),
        run: bool = True,
    ) -> StreamSnapshot:
        """Feed a chunk of input into the streaming run and advance it.

        ``left`` / ``right`` accept raw records (dicts, salted and wrapped
        automatically) or pre-built :class:`StreamTuple` objects; ``items``
        accepts an explicitly interleaved :class:`StreamTuple` sequence.
        Within one push, arrivals are ordered left chunk, right chunk, then
        ``items`` — push smaller chunks (or use ``items``) to control
        interleaving.  With ``run=False`` the chunk is only enqueued; the
        simulation advances on the next running push or :meth:`finish`.

        The first push opens the stream lazily; after :meth:`finish` a new
        run must be opened explicitly via :meth:`open_stream` (a stray push
        would otherwise silently start a fresh, empty simulation).

        A chunk holding a band key outside the real numbers (NaN, ``None``,
        a string, ...) raises :class:`~repro.joins.predicates.UnsupportedKeyError`
        before any of its tuples is fed.
        """
        if self._stream is None:
            if self._stream_finished:
                raise RuntimeError(
                    "the streaming run was finished; call open_stream() to start a new one"
                )
            self.open_stream()
        return self._stream.push(left, right, items, run=run)

    def snapshot(self) -> StreamSnapshot:
        """Mid-run metrics of the open streaming run."""
        if self._stream is None:
            raise RuntimeError("no streaming run is open")
        return self._stream.snapshot()

    def finish(self) -> "RunResult":
        """Drain the simulation, close the stream and return the final result."""
        if self._stream is None:
            raise RuntimeError("no streaming run is open")
        stream, self._stream = self._stream, None
        self._stream_finished = True
        return stream.finish()
