"""Deterministic discrete-event simulator.

The simulator owns the cluster (machines + network), the task registry and a
priority queue of pending events.  Two kinds of events exist:

* **deliveries** — a message arrives at a task.  For tasks hosted on a
  machine the message is appended to the machine's FIFO inbox (a machine
  handles one message at a time); off-cluster tasks (sources, collectors)
  handle it immediately.  Small control-plane messages (mapping changes,
  migration acks, resume signals) bypass the data backlog, reflecting the
  dedicated control channel of real deployments; data-plane ordering per link
  is still FIFO, which the epoch protocol relies on.
* **machine ticks** — a machine becomes free and handles the next message in
  its inbox.  The handler's CPU charge extends the machine's busy time and
  any messages it sends are scheduled after the work completes plus network
  latency/transfer time.

This yields the two quantities the paper's evaluation is built on:

* **execution time** — the virtual time at which the last piece of work
  finishes, dominated by the most loaded machine, and
* **tuple latency** — output emission time minus the arrival time of the more
  recent matching input tuple.
"""

from __future__ import annotations

import heapq
import itertools
import random
import time as _time
from collections import deque
from typing import Iterable

from repro.engine.batching import AdaptiveBatchController
from repro.engine.faults import UnreachableLinkError
from repro.engine.machine import CostModel, Machine
from repro.engine.metrics import MetricsCollector
from repro.engine.network import Network, TrafficCategory
from repro.engine.stream import ArrivalSchedule, StreamTuple
from repro.engine.task import Context, DataEnvelope, Message, MessageKind, Task

#: Control-plane message kinds that are not queued behind the data backlog.
PRIORITY_KINDS = frozenset(
    {MessageKind.MAPPING_CHANGE, MessageKind.MIGRATION_ACK, MessageKind.RESUME}
)

# Pending events are plain ``(time, rank, target, message)`` tuples so the
# heap compares at C speed.  A delivery carries the destination Task and its
# Message; a machine tick carries the machine id with ``message=None``.
#
# ``rank`` breaks time ties *plane-invariantly*: equal-time events order as
# source-feed deliveries (in feed order) < task sends (by sender machine,
# destination machine, then the per-link FIFO sequence) < machine ticks (by
# machine id).  Because the rank is a pure function of the message flow —
# never of the wall-clock order in which handlers happened to run — the event
# order, and with it every virtual-time quantity, is identical whether
# handlers execute one message per event or as coalesced drained runs (the
# adaptive data plane's bit-exactness relies on this).
_SEND_RANK_BASE = 1 << 59
_TICK_RANK_BASE = 1 << 62
_LINK_SPAN = 1 << 34
_MACHINE_SPAN = 1 << 12  # > max machines + off-cluster sentinel

# Fault-plane events (crash / restart) rank above machine ticks: at an equal
# instant every ordinary event of that time completes first, so a crash
# always lands *between* handler events (fail-stop at handler boundaries, see
# repro.engine.faults).  Within the band, crashes order before restarts, and
# a per-simulator serial breaks remaining ties so heap entries never compare
# the _FaultEvent payloads themselves.  The unreliable wire's frame arrivals
# and retransmit timers ride the same band (offsets 2 and 3): they too land
# between handler events.
_FAULT_RANK_BASE = 1 << 63
_FAULT_ACTION_OFFSETS = {"crash": 0, "restart": 1, "frame": 2, "retransmit": 3}


class _FaultEvent:
    """Heap payload of one fault-plane action targeting a machine id.

    ``action`` is ``"crash"`` (carries the originating
    :class:`~repro.engine.faults.FaultSpec`) or ``"restart"`` for the crash
    plane, or ``"frame"`` / ``"retransmit"`` (carrying a
    :class:`_WireFrame`) for the unreliable-wire plane.
    """

    __slots__ = ("action", "fault")

    def __init__(self, action: str, fault=None) -> None:
        self.action = action
        self.fault = fault


class _WireFrame:
    """One link-layer frame: a message instance in flight on the unreliable wire.

    The reliable-delivery sublayer never mutates the wrapped message (data
    envelopes are shared across fan-out destinations), so the per-link
    sequence number and retransmit state live on this wrapper instead.
    """

    __slots__ = ("link", "seq", "task", "message", "category", "attempts")

    def __init__(self, link, seq, task, message, category) -> None:
        self.link = link
        self.seq = seq
        self.task = task
        self.message = message
        self.category = category
        self.attempts = 0


class Simulator:
    """Discrete-event simulation of a shared-nothing cluster.

    Args:
        num_machines: number of machines in the cluster.
        cost_model: the CPU/network/storage cost model shared by all machines.
        seed: seed of the simulation's random sources.  Every machine gets
            its own stream, derived deterministically from
            ``(seed, machine_id)`` — see :meth:`machine_rng`.
        collect_outputs: if True, the metrics collector retains every output
            pair (needed for correctness tests; disabled for large benchmark
            runs to bound memory).
    """

    def __init__(
        self,
        num_machines: int,
        cost_model: CostModel | None = None,
        seed: int = 0,
        collect_outputs: bool = False,
    ) -> None:
        self.cost_model = cost_model or CostModel()
        if num_machines + 2 >= _MACHINE_SPAN:
            raise ValueError(
                f"at most {_MACHINE_SPAN - 3} machines are supported: the "
                "plane-invariant event rank packs machine ids into "
                f"{_MACHINE_SPAN}-wide bands"
            )
        self.machines = [Machine(machine_id=i, cost_model=self.cost_model) for i in range(num_machines)]
        self.network = Network(cost_model=self.cost_model)
        self.metrics = MetricsCollector(collect_outputs=collect_outputs)
        self.seed = seed
        # Per-machine RNG streams (index [machine_id + 1]; slot 0 is the
        # shared off-cluster stream).  String seeding hashes through SHA-512,
        # so the streams are deterministic across processes and independent
        # of each other — each machine's draws depend only on (seed,
        # machine_id) and its own handler sequence, never on what other
        # machines drew in between.
        self._machine_rngs = [random.Random(f"{seed}/off-cluster")] + [
            random.Random(f"{seed}/{i}") for i in range(num_machines)
        ]
        self.tasks: dict[str, Task] = {}
        self._queue: list[tuple] = []
        self._schedule_rank = itertools.count()
        # Per-link FIFO sequence counters, owned by the *sender* machine
        # (index [sender_machine + 1], keyed by destination machine id).
        self._link_rank: list[dict[int, int]] = [
            {} for _ in range(num_machines + 1)
        ]
        self._started: set[str] = set()
        self._inboxes: list[deque] = [deque() for _ in range(num_machines)]
        self._tick_scheduled: list[bool] = [False] * num_machines
        self._drain_controllers: list | None = None
        # In-flight control-plane (priority) delivery times per machine;
        # drained runs on the adaptive plane use them to stop before the
        # point where a control message would take effect (drain horizon).
        self._pending_priority: list[list[float]] = [[] for _ in range(num_machines)]
        # Fault plane (install_faults): the recovery manager, the machines
        # currently down and their buffered-during-outage deliveries.  All
        # empty/None on fault-free runs.
        self._recovery = None
        self._crashed: set[int] = set()
        self._crashed_count = 0
        self._outage: dict[int, list] = {}
        self._after_event_faults: list = []
        self._fault_serial = itertools.count()
        # Unreliable-wire plane (install_network_faults): the ReliableWire
        # policy object, or None.  Every wire hook below is strictly gated on
        # it, so fault-free runs take the exact pre-existing code paths —
        # zero extra heap events, allocations or counter touches.
        self._wire = None
        self.now = 0.0
        self.events_processed = 0
        self.heap_events = 0
        # Cumulative real seconds spent inside run() — the only wall-clock
        # quantity the simulator reports.  Pure stats: never read by handlers.
        self.wall_time = 0.0

    def install_batching(self) -> None:
        """Enable the adaptive data plane: one drain controller per machine.

        Each controller sizes the runs of drainable inbox messages (see
        :meth:`repro.engine.task.Task.drain_key`) its machine may coalesce
        per tick.  Without this call every message is handled individually —
        the per-tuple reference plane.
        """
        self._drain_controllers = [AdaptiveBatchController() for _ in self.machines]

    def install_faults(self, recovery) -> None:
        """Attach the fault-tolerant plane: a recovery manager plus the
        crash schedule it carries (see :mod:`repro.core.recovery`).

        Time-anchored crashes become heap events in the fault rank band;
        event-anchored crashes are watched against ``events_processed`` in
        the run loop.  Installing a manager with an empty schedule is valid —
        it enables journaling/checkpointing without injecting any fault.
        """
        self._recovery = recovery
        after = []
        for fault in recovery.schedule:
            if fault.at_time is not None:
                self._schedule_fault(fault.at_time, "crash", fault.machine, fault)
            else:
                after.append((fault.after_events, fault))
        after.sort(key=lambda pair: pair[0])
        self._after_event_faults = after

    def install_network_faults(self, wire) -> None:
        """Attach the unreliable-wire plane: a :class:`~repro.engine.network.ReliableWire`.

        Every on-cluster task send is then framed with a per-link sequence
        number and routed through the wire's fault schedule (drop, duplicate,
        delay, partition) before the receiver's dedup/in-order sublayer
        releases it to the normal delivery path.  Frame arrivals and
        retransmit timers are heap events in the fault rank band, so the
        faulty run stays fully deterministic under its seed.
        """
        self._wire = wire

    # ------------------------------------------------------------------ setup

    def register(self, task: Task) -> Task:
        """Add ``task`` to the topology.  Task names must be unique."""
        if task.name in self.tasks:
            raise ValueError(f"duplicate task name: {task.name}")
        if task.machine_id >= len(self.machines):
            raise ValueError(
                f"task {task.name} placed on machine {task.machine_id} "
                f"but the cluster has only {len(self.machines)} machines"
            )
        task.hosted_machine = (
            self.machines[task.machine_id] if task.machine_id >= 0 else None
        )
        self.tasks[task.name] = task
        return task

    def register_all(self, tasks: Iterable[Task]) -> None:
        """Register every task in ``tasks``."""
        for task in tasks:
            self.register(task)

    def machine_of(self, task_name: str) -> Machine | None:
        """The machine hosting ``task_name`` (None for off-cluster tasks)."""
        return self.tasks[task_name].hosted_machine

    def machine_rng(self, machine_id: int) -> random.Random:
        """The RNG stream owned by ``machine_id``.

        Derived deterministically from ``(seed, machine_id)``; off-cluster
        tasks (``machine_id < 0``) share one dedicated stream.  Handlers
        reach it through :attr:`repro.engine.task.Context.rng`, so a task's
        draws are a pure function of its own machine's handler sequence.
        """
        return self._machine_rngs[machine_id + 1 if machine_id >= 0 else 0]

    # ------------------------------------------------------------- scheduling

    def schedule(self, time: float, destination: str, message: Message) -> None:
        """Schedule ``message`` for delivery to ``destination`` at ``time``."""
        task = self.tasks.get(destination)
        if task is None:
            raise KeyError(f"unknown task: {destination}")
        if message.kind in PRIORITY_KINDS and task.machine_id >= 0:
            self._pending_priority[task.machine_id].append(time)
        heapq.heappush(self._queue, (time, next(self._schedule_rank), task, message))

    def _send_rank(self, sender_machine: int, dest_machine: int) -> int:
        """Plane-invariant rank of one task send (see the module comment)."""
        links = self._link_rank[sender_machine + 1]
        sequence = links.get(dest_machine, 0)
        links[dest_machine] = sequence + 1
        return (
            _SEND_RANK_BASE
            + ((sender_machine + 2) * _MACHINE_SPAN + dest_machine + 2) * _LINK_SPAN
            + sequence
        )

    def _schedule_tick(self, machine_id: int, time: float) -> None:
        heapq.heappush(self._queue, (time, _TICK_RANK_BASE + machine_id, machine_id, None))

    def feed_schedule(self, schedule: ArrivalSchedule, destination_picker) -> None:
        """Feed an arrival schedule into the topology: one SOURCE message per tuple.

        Args:
            schedule: the interleaved input streams.
            destination_picker: callable ``tuple -> task name`` choosing the
                reshuffler each tuple is sent to (the paper routes incoming
                tuples to a random reshuffler); called once per tuple in
                arrival order.
        """
        tasks = self.tasks
        queue = self._queue
        schedule_rank = self._schedule_rank
        source_kind = MessageKind.SOURCE
        for arrival_time, item in schedule.arrivals():
            item.arrival_time = arrival_time
            message = DataEnvelope(source_kind, "__source__", item, 0, item.size)
            heapq.heappush(
                queue,
                (arrival_time, next(schedule_rank), tasks[destination_picker(item)], message),
            )

    def schedule_data(self, time: float, destination: str, message) -> None:
        """Schedule a data-plane message from off-cluster ingestion (streaming
        pushes).  Identical to :meth:`schedule`."""
        self.schedule(time, destination, message)

    def post(
        self,
        sender_task: Task,
        destination: str,
        message: Message,
        category: TrafficCategory,
        ctx: Context,
    ) -> None:
        """Send a message from a task while it is processing (called via Context)."""
        departure = ctx.now + ctx.charged
        dest_task = self.tasks[destination]
        sender_machine = sender_task.machine_id
        dest_machine = dest_task.machine_id
        if self._wire is not None and sender_machine >= 0 and dest_machine >= 0:
            # Unreliable wire installed: on-cluster sends become link-layer
            # frames (off-cluster endpoints — sources, collectors — keep the
            # ideal wire: they model ingest/egress, not the cluster fabric).
            self._wire_send(sender_machine, dest_task, message, category, departure)
            return
        if sender_machine < 0 or dest_machine < 0:
            delivery = departure + self.cost_model.network_latency
        else:
            delivery = self.network.transfer(
                sender_machine, dest_machine, message.size, category, departure
            )
        if message.kind in PRIORITY_KINDS and dest_machine >= 0:
            self._pending_priority[dest_machine].append(delivery)
        rank = self._send_rank(sender_machine, dest_machine)
        heapq.heappush(self._queue, (delivery, rank, dest_task, message))

    def post_fanout(
        self,
        sender_task: Task,
        destinations,
        message: Message,
        category: TrafficCategory,
        ctx: Context,
    ) -> None:
        """Replicate one data message to several destinations (routing fan-out).

        Equivalent to calling :meth:`post` once per destination — the shared
        departure time, sender machine and per-link transfers are identical —
        with the per-send bookkeeping hoisted out of the loop.  Data plane
        only: single-tuple payloads, non-priority kinds.
        """
        departure = ctx.now + ctx.charged
        tasks = self.tasks
        transfer = self.network.transfer
        queue = self._queue
        sender_machine = sender_task.machine_id
        link_rank = self._link_rank[sender_machine + 1]
        size = message.size
        latency = self.cost_model.network_latency
        sender_base = _SEND_RANK_BASE + (sender_machine + 2) * _MACHINE_SPAN * _LINK_SPAN
        heappush = heapq.heappush
        if self._wire is not None:
            # Unreliable wire installed: each on-cluster replica becomes its
            # own link-layer frame (fan-out is data plane, single-tuple,
            # non-priority); off-cluster replicas keep the ideal wire.
            for destination in destinations:
                dest_task = tasks[destination]
                dest_machine = dest_task.machine_id
                if sender_machine < 0 or dest_machine < 0:
                    heappush(queue, (
                        departure + latency,
                        self._send_rank(sender_machine, dest_machine),
                        dest_task,
                        message,
                    ))
                else:
                    self._wire_send(sender_machine, dest_task, message, category, departure)
            return
        for destination in destinations:
            dest_task = tasks[destination]
            dest_machine = dest_task.machine_id
            if sender_machine < 0 or dest_machine < 0:
                delivery = departure + latency
            else:
                delivery = transfer(sender_machine, dest_machine, size, category, departure)
            sequence = link_rank.get(dest_machine, 0)
            link_rank[dest_machine] = sequence + 1
            rank = sender_base + (dest_machine + 2) * _LINK_SPAN + sequence
            heappush(queue, (delivery, rank, dest_task, message))

    # ---------------------------------------------------------------- running

    def _execute(self, task: Task, message: Message, start: float) -> None:
        """Run one handler at logical time ``start`` and account its work."""
        ctx = Context(self, task, start)
        if task.name not in self._started:
            self._started.add(task.name)
            task.on_start(ctx)
        task.handle(message, ctx)
        machine = task.hosted_machine
        if machine is not None and ctx.charged > 0:
            machine.occupy(start, ctx.charged)
            machine.clear_drain_window()
        self.events_processed += 1

    def _drain_horizon(self, machine_id: int, event_time: float) -> float:
        """Earliest virtual time a control-plane message could land on ``machine_id``.

        In-flight priority deliveries are known exactly; any priority message
        not yet sent must be created by an event popping no earlier than the
        current tick, so its delivery is at least one network latency away.
        A drained run that stops before this horizon can never swallow a
        member the per-tuple plane would have processed *after* a control
        message took effect.
        """
        horizon = event_time + self.cost_model.network_latency
        pending = self._pending_priority[machine_id]
        if pending:
            earliest = min(pending)
            if earliest < horizon:
                horizon = earliest
        return horizon

    def _execute_drained(
        self,
        task: Task,
        first: Message,
        inbox: deque,
        limit: int,
        key,
        start: float,
        event_time: float,
        machine_id: int,
    ) -> None:
        """Run one drained run of same-key messages in a single invocation.

        The task pulls same-key followers straight off its inbox (up to
        ``limit``) and closes every member with :meth:`Context.boundary`, so
        the machine's busy chain, every member's send departure and every
        output timestamp are bit-identical to per-tuple delivery; the
        recorded boundaries let later control-plane messages dated inside
        this window start exactly where the per-tuple plane would have
        slotted them.  Tasks that must re-check the control-plane horizon
        between members (adaptive reshufflers) simply stop pulling.
        """
        ctx = Context(self, task, start)
        ctx.drain_boundaries = []
        ctx.drain_horizon = lambda: self._drain_horizon(machine_id, event_time)
        if task.name not in self._started:
            self._started.add(task.name)
            task.on_start(ctx)
        count = task.handle_drained(first, inbox, limit, key, ctx)
        machine = task.hosted_machine
        if ctx.charged > 0:  # defensive: close a run whose tail was not rotated
            machine.occupy(ctx.now, ctx.charged)
            ctx.drain_boundaries.append(machine.busy_until)
        machine.record_drain_window(start, ctx.drain_boundaries)
        self.metrics.record_drained_run(count)
        self.events_processed += 1

    # ------------------------------------------------------------ fault plane

    def _schedule_fault(
        self, time: float, action: str, machine_id: int, fault=None
    ) -> None:
        rank = _FAULT_RANK_BASE + (
            (_FAULT_ACTION_OFFSETS[action] * _MACHINE_SPAN + machine_id) * (1 << 30)
            + next(self._fault_serial)
        )
        heapq.heappush(
            self._queue, (time, rank, machine_id, _FaultEvent(action, fault))
        )

    def _process_fault(self, machine_id: int, event: _FaultEvent, time: float) -> None:
        action = event.action
        if action == "crash":
            self._crash_machine(machine_id, event.fault, time)
        elif action == "restart":
            self._restart_machine(machine_id, time)
        elif action == "frame":
            self._wire_arrive(event.fault, time)
        else:
            self._wire_retransmit(event.fault, time)

    def _crash_machine(self, machine_id: int, fault, time: float) -> None:
        """Fail-stop ``machine_id``: drop its volatile state, start the outage.

        The inbox moves to the outage buffer for redelivery at restart, and
        work already accepted (``busy_until``) counts as completed, per the
        handler-boundary crash model.
        """
        if machine_id in self._crashed:
            raise RuntimeError(
                f"machine {machine_id} crashed while already down "
                "(overlapping faults in the schedule)"
            )
        self._crashed.add(machine_id)
        self._crashed_count += 1
        buffer = self._outage.setdefault(machine_id, [])
        inbox = self._inboxes[machine_id]
        buffer.extend(("d", task, message) for task, message in inbox)
        inbox.clear()
        # Suppress tick scheduling for the duration of the outage; the
        # restart pushes its own tick.
        self._tick_scheduled[machine_id] = True
        self._recovery.on_crash(machine_id, time)
        self._schedule_fault(time + fault.restart_after, "restart", machine_id)

    def _restart_machine(self, machine_id: int, time: float) -> None:
        """Blank replacement up: restore from the checkpoint store, replay the
        journal, redeliver the outage buffer, resume normal ticking."""
        self._crashed.discard(machine_id)
        self._crashed_count -= 1
        machine = self.machines[machine_id]
        restore_cost, _replayed = self._recovery.on_restart(machine_id, time)
        if restore_cost > 0:
            machine.occupy(time, restore_cost)
        buffer = self._outage.get(machine_id)
        if buffer:
            inbox = self._inboxes[machine_id]
            for kind, task, message in buffer:
                if kind == "p":
                    # Buffered control-plane messages execute first (they
                    # never queue behind data), serialized after the restore
                    # work via the machine's busy chain.
                    self._execute(task, message, max(time, machine.busy_until))
                else:
                    inbox.append((task, message))
            buffer.clear()
        # _tick_scheduled stayed True through the outage; this tick restarts
        # the normal cycle.
        self._schedule_tick(machine_id, time)

    def _divert_crashed(
        self, task: Task, message: Message, time: float, machine_id: int
    ) -> None:
        """Buffer a delivery addressed to a crashed machine.

        Priority kinds wait in the outage buffer (redelivered first at
        restart); in-band kinds keep their exact ``(time, rank)`` position,
        because outage-buffer order *is* global ``(time, rank)`` pop order.
        """
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[machine_id].remove(time)
            self._outage[machine_id].append(("p", task, message))
        else:
            self._outage[machine_id].append(("d", task, message))

    # -------------------------------------------------------- unreliable wire

    def _wire_send(
        self,
        sender_machine: int,
        dest_task: Task,
        message: Message,
        category: TrafficCategory,
        departure: float,
    ) -> None:
        """Frame one on-cluster send and push it through the fault schedule.

        The frame gets the link's next monotone sequence number.  A dropped or partitioned frame never charges the
        network — its bytes were lost before crossing — and instead arms the
        sender's retransmit timer.  A duplicated frame is charged and
        scheduled twice with the *same* frame object: the receiver dedups on
        the shared sequence number.
        """
        wire = self._wire
        dest_machine = dest_task.machine_id
        link = (sender_machine, dest_machine)
        seq, dropped, duplicated, delay_by = wire.on_send(link)
        frame = _WireFrame(link, seq, dest_task, message, category)
        wire.frames_sent += 1
        if dropped or wire.partitioned(sender_machine, dest_machine, departure):
            wire.frames_dropped += 1
            self._wire_arm_retransmit(frame, departure)
            return
        arrival = self.network.transfer(
            sender_machine, dest_machine, message.size, category, departure
        )
        # The per-send delay is added *after* the link's FIFO clamp, so later
        # sends can genuinely overtake the delayed frame on the wire; the
        # receiver's in-order sublayer restores release order.
        self._schedule_fault(arrival + delay_by, "frame", dest_machine, frame)
        if duplicated:
            wire.frames_sent += 1
            wire.frames_duplicated += 1
            dup_arrival = self.network.transfer(
                sender_machine, dest_machine, message.size, category, departure
            )
            # Same frame object = same sequence number: the copy that loses
            # the race (the fault serial orders the original first at equal
            # times) is discarded by the receiver's dedup.
            self._schedule_fault(dup_arrival + delay_by, "frame", dest_machine, frame)

    def _wire_arm_retransmit(self, frame: _WireFrame, now: float) -> None:
        """Arm the sender's retransmit timer for a lost frame.

        Exponential backoff from ``retry_base``; once ``retry_max_attempts``
        transmissions have been lost the link is declared dead with a named
        error — the faulty run terminates either way, never hangs.  Timers
        are armed only for frames known lost (a deterministic-simulation
        shortcut: behaviourally equivalent to per-frame ack timeouts without
        modelling the ack traffic).
        """
        wire = self._wire
        if frame.attempts >= wire.retry_max_attempts:
            raise UnreachableLinkError(frame.link, frame.attempts)
        frame.attempts += 1
        backoff = wire.retry_base * (2 ** (frame.attempts - 1))
        self._schedule_fault(now + backoff, "retransmit", frame.link[1], frame)

    def _wire_retransmit(self, frame: _WireFrame, time: float) -> None:
        """A retransmit timer fired: resend the frame unless it got through."""
        wire = self._wire
        link = frame.link
        if frame.seq < wire.recv_next.get(link, 0) or frame.seq in wire.reorder.get(
            link, ()
        ):
            return  # a copy already reached the receiver; the timer dissolves
        wire.frames_sent += 1
        wire.frames_retransmitted += 1
        wire.retransmit_histogram[frame.attempts] = (
            wire.retransmit_histogram.get(frame.attempts, 0) + 1
        )
        if wire.partitioned(link[0], link[1], time):
            # Still dark: this attempt is lost too.  Re-arming chains the
            # backoff until the window heals or the budget raises.
            wire.frames_dropped += 1
            self._wire_arm_retransmit(frame, time)
            return
        arrival = self.network.transfer(
            link[0], link[1], frame.message.size, frame.category, time
        )
        self._schedule_fault(arrival, "frame", link[1], frame)

    def _wire_arrive(self, frame: _WireFrame, time: float) -> None:
        """A frame reached its receiver: dedup, reorder-buffer or release.

        Release is strictly in sequence order per link — equal to send order,
        so the fault-free wire's per-link FIFO (which the epoch protocol
        relies on) is preserved under any fault mix.  Dedup state is *not*
        reset when the receiving machine crashes: the sequencer is durable
        (MillWheel-style), so a retransmitted-then-crashed message is either
        discarded here or redelivered exactly once from the outage buffer.
        """
        wire = self._wire
        link = frame.link
        wire.frames_delivered += 1
        expected = wire.recv_next.get(link, 0)
        if frame.seq < expected:
            wire.frames_deduped += 1
            return
        if frame.seq > expected:
            buffer = wire.reorder.setdefault(link, {})
            if frame.seq in buffer:
                wire.frames_deduped += 1
            else:
                wire.frames_reordered += 1
                buffer[frame.seq] = frame
            return
        next_seq = expected + 1
        wire.recv_next[link] = next_seq
        self._wire_release(frame, time)
        buffer = wire.reorder.get(link)
        if buffer:
            # Cascade: the gap just closed may free buffered successors.
            while next_seq in buffer:
                follower = buffer.pop(next_seq)
                next_seq += 1
                wire.recv_next[link] = next_seq
                self._wire_release(follower, time)

    def _wire_release(self, frame: _WireFrame, time: float) -> None:
        """Hand a frame to the normal delivery path, in sequence order.

        Priority-kind bookkeeping is done here (not at send) because only
        now is the effective delivery instant known; ``_deliver`` and
        ``_divert_crashed`` remove the same ``time`` they always have.
        """
        wire = self._wire
        wire.frames_applied += 1
        message = frame.message
        if message.kind in PRIORITY_KINDS:
            self._pending_priority[frame.link[1]].append(time)
        self._deliver(frame.task, message, time)

    def _deliver(self, task: Task, message: Message, time: float) -> None:
        machine = task.hosted_machine
        if machine is None:
            # Off-cluster tasks are handled at delivery time.
            self._execute(task, message, time)
            return
        if self._crashed_count and machine.machine_id in self._crashed:
            self._divert_crashed(task, message, time, machine.machine_id)
            return
        if message.kind in PRIORITY_KINDS:
            # Control-plane messages skip the data backlog but still need the
            # CPU: they start once the machine finishes the handler it is
            # currently running — on the adaptive plane, the per-tuple-
            # equivalent boundary of the last drained run.
            self._pending_priority[machine.machine_id].remove(time)
            self._execute(task, message, machine.priority_start(time))
            return
        machine_id = machine.machine_id
        inbox = self._inboxes[machine_id]
        inbox.append((task, message))
        if not self._tick_scheduled[machine_id]:
            self._tick_scheduled[machine_id] = True
            self._schedule_tick(machine_id, max(time, machine.busy_until))

    def _tick(self, machine_id: int, time: float) -> None:
        if self._crashed_count and machine_id in self._crashed:
            # Stale tick popping during an outage: swallow it and leave
            # _tick_scheduled True — the restart pushes the reviving tick.
            return
        inbox = self._inboxes[machine_id]
        if not inbox:
            self._tick_scheduled[machine_id] = False
            return
        machine = self.machines[machine_id]
        start = max(time, machine.busy_until)
        task, message = inbox.popleft()
        if self._drain_controllers is not None:
            key = task.drain_key(message)
            if key is None:
                self._execute(task, message, start)
            else:
                # Backlog estimate for the drain controller: the inbox length
                # including the message just popped.
                limit = self._drain_controllers[machine_id].next_run_size(1 + len(inbox))
                if limit > 1 and inbox:
                    self._execute_drained(
                        task, message, inbox, limit, key, start, time, machine_id
                    )
                else:
                    self.metrics.record_drained_run(1)
                    self._execute(task, message, start)
        else:
            self._execute(task, message, start)
        if inbox:
            self._schedule_tick(machine_id, max(machine.busy_until, start))
        else:
            self._tick_scheduled[machine_id] = False

    def run(self, max_events: int | None = None) -> float:
        """Run until the event queue drains.  Returns the completion time.

        Completion time is the larger of the last event's time and the
        busiest machine's final ``busy_until``.
        """
        queue = self._queue
        heap_events = self.heap_events
        after_faults = self._after_event_faults
        wall_start = _time.perf_counter()
        try:
            while queue:
                time, _rank, target, message = heapq.heappop(queue)
                heap_events += 1
                if time > self.now:
                    self.now = time
                if message is None:
                    self._tick(target, time)
                elif message.__class__ is _FaultEvent:
                    self._process_fault(target, message, time)
                else:
                    self._deliver(target, message, time)
                if after_faults and self.events_processed >= after_faults[0][0]:
                    while after_faults and self.events_processed >= after_faults[0][0]:
                        fault = after_faults.pop(0)[1]
                        self._crash_machine(fault.machine, fault, self.now)
                if max_events is not None and self.events_processed > max_events:
                    raise RuntimeError(
                        f"simulation exceeded {max_events} events; possible signalling loop"
                    )
        finally:
            # Written back even when a handler raises, so the counter stays
            # consistent with events_processed on error paths.
            self.heap_events = heap_events
            self.wall_time += _time.perf_counter() - wall_start
        finish = self.now
        for machine in self.machines:
            finish = max(finish, machine.busy_until)
        self.metrics.finish_time = finish
        return finish

    # ---------------------------------------------------------------- results

    def execution_time(self) -> float:
        """Virtual completion time of the run."""
        return self.metrics.finish_time

    def max_machine_storage(self) -> float:
        """Peak stored size over all machines (the measured per-machine ILF)."""
        return max((machine.peak_stored_size for machine in self.machines), default=0.0)

    def total_storage(self) -> float:
        """Total stored size across the cluster at the end of the run."""
        return sum(machine.stored_size for machine in self.machines)

    def any_spilled(self) -> bool:
        """Whether any machine exceeded its memory budget during the run."""
        return any(machine.spilled for machine in self.machines)
