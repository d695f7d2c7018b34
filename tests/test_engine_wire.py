"""The wire plane: one heap entry per send, FIFO per link, plane-invariant ranks.

The non-blocking epoch protocol (Alg. 3) needs only FIFO links between
machines.  The simulator gives it that with the plainest possible wire: every
send — a task's ``post``, each destination of a ``post_fanout``, each
``schedule``/``schedule_data`` call and each per-tuple feed arrival — is one
``(time, rank, task, message)`` heap entry.  Per-link FIFO comes from the
network's monotone delivery clamp plus the sender-owned per-link sequence in
the rank; equal-time ties order feed < sends < machine ticks.

The unit tests below pin that contract on hand-built topologies; the operator
tests count sends and heap pops on real joins, on every data plane, and check
that the adaptive plane's receiver-side draining leaves the wire untouched:
the delivery trace is the per-tuple plane's, send for send.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import JoinSession, RunConfig
from repro.core.baselines import StaticMidOperator
from repro.core.operator import AdaptiveJoinOperator
from repro.data.queries import JoinQuery, make_query
from repro.engine.machine import CostModel
from repro.engine.network import TrafficCategory
from repro.engine.simulator import Simulator
from repro.engine.stream import ArrivalSchedule, StreamTuple, interleave_streams, make_tuples
from repro.engine.task import Context, Message, MessageKind, Task
from repro.joins.predicates import CompositePredicate, EquiPredicate

MACHINES = 8
SEED = 5

OPERATORS = {
    "migrating": AdaptiveJoinOperator,   # warmup 16 -> migrates mid-stream
    "static": StaticMidOperator,         # never migrates
}

PLANES = {
    "per_tuple": {"batching": "per_tuple"},
    "adaptive": {"batching": "adaptive"},
    # The blocking migration protocol always runs on the per-tuple plane.
    "blocking": {"blocking": True},
}


class Recorder(Task):
    """Records ``(logical time, sender, payload)`` for every message."""

    def __init__(self, name, machine_id=-1, cost=0.0):
        super().__init__(name, machine_id)
        self.cost = cost
        self.log = []

    def handle(self, message: Message, ctx: Context) -> None:
        self.log.append((ctx.now, message.sender, message.payload))
        ctx.charge(self.cost)


class DrainingRecorder(Recorder):
    """A :class:`Recorder` whose messages are drainable by kind, so the
    adaptive plane coalesces its backlog into drained runs."""

    def drain_key(self, message: Message):
        return message.kind


class Burster(Task):
    """On each trigger, sends a scripted burst of messages.

    ``script`` is a list of ``(destination, size, cost_before)`` entries: the
    handler charges ``cost_before`` and then sends one message of ``size``
    to ``destination`` whose payload is its position in the script.
    """

    def __init__(self, name, machine_id, script):
        super().__init__(name, machine_id)
        self.script = script

    def handle(self, message: Message, ctx: Context) -> None:
        for index, (destination, size, cost) in enumerate(self.script):
            ctx.charge(cost)
            ctx.send(
                destination,
                Message(kind=MessageKind.DATA, sender=self.name, payload=index, size=size),
            )


class Fanner(Task):
    """Sends one data message to every destination via ``send_fanout``."""

    def __init__(self, name, machine_id, destinations):
        super().__init__(name, machine_id)
        self.destinations = destinations

    def handle(self, message: Message, ctx: Context) -> None:
        ctx.send_fanout(
            self.destinations,
            Message(kind=MessageKind.DATA, sender=self.name, payload="fan", size=1.0),
        )


def _data(payload, sender="test", size=1.0):
    return Message(kind=MessageKind.DATA, sender=sender, payload=payload, size=size)


def _context(sim, task, now=0.0):
    return Context(sim, task, now)


# ---------------------------------------------------------------------------
# One heap entry per send
# ---------------------------------------------------------------------------


class TestHeapEntryPerSend:
    def test_post_is_one_plain_heap_entry(self):
        sim = Simulator(num_machines=2)
        sender = sim.register(Recorder("a", machine_id=0))
        receiver = sim.register(Recorder("b", machine_id=1))
        message = _data("x")
        sim.post(sender, "b", message, TrafficCategory.ROUTING, _context(sim, sender))
        assert len(sim._queue) == 1
        time, rank, task, queued = sim._queue[0]
        assert isinstance(time, float) and isinstance(rank, int)
        assert task is receiver
        assert queued is message

    @pytest.mark.parametrize("fan", [1, 3, 7])
    def test_post_fanout_is_one_entry_per_destination(self, fan):
        sim = Simulator(num_machines=8)
        sender = sim.register(Recorder("src", machine_id=0))
        names = [sim.register(Recorder(f"d{i}", machine_id=i + 1)).name for i in range(fan)]
        message = _data("x")
        sim.post_fanout(sender, names, message, TrafficCategory.ROUTING, _context(sim, sender))
        assert len(sim._queue) == fan
        # Every replica is its own entry sharing the one message object.
        assert sorted(entry[2].name for entry in sim._queue) == sorted(names)
        assert all(entry[3] is message for entry in sim._queue)
        sim.run()
        assert sim.heap_events == fan + fan  # one delivery + one tick each

    def test_schedule_data_schedules_like_schedule(self):
        def trace(method):
            sim = Simulator(num_machines=1)
            task = sim.register(Recorder("r", machine_id=0))
            for index, time in enumerate([2.0, 0.0, 2.0, 1.0]):
                getattr(sim, method)(time, "r", _data(index))
            queued = [
                (time, rank, task.name, message.payload)
                for time, rank, task, message in sorted(sim._queue)
            ]
            sim.run()
            return queued, task.log, sim.heap_events

        assert trace("schedule_data") == trace("schedule")

    def test_per_tuple_feed_is_one_entry_per_arrival(self):
        sim = Simulator(num_machines=1)
        sim.register(Recorder("r", machine_id=0))
        items = [StreamTuple(relation="R", record={"i": i}, size=1.0) for i in range(9)]
        sim.feed_schedule(ArrivalSchedule(items=items), lambda item: "r")
        assert len(sim._queue) == 9
        sim.run()
        assert sim.heap_events == 9 + 9
        assert sim.events_processed == 9

    def test_drained_feed_is_still_one_entry_per_arrival(self):
        """Receiver-side draining saves ticks, never heap entries for sends."""
        sim = Simulator(num_machines=1)
        sim.install_batching()
        task = sim.register(DrainingRecorder("r", machine_id=0, cost=1.0))
        items = [StreamTuple(relation="R", record={"i": i}, size=1.0) for i in range(9)]
        sim.feed_schedule(ArrivalSchedule(items=items), lambda item: "r")
        assert len(sim._queue) == 9
        sim.run()
        assert [payload for _, _, payload in task.log] == items
        ticks = sim.heap_events - 9
        assert 1 <= ticks < 9


# ---------------------------------------------------------------------------
# Plane-invariant ranks
# ---------------------------------------------------------------------------


class TestSendRank:
    def test_equal_time_events_order_feed_then_sends_then_ticks(self):
        sim = Simulator(num_machines=2)
        sender = sim.register(Recorder("a", machine_id=0))
        sim.register(Recorder("b", machine_id=1))
        ctx = _context(sim, sender)
        sim.post(sender, "b", _data("send"), TrafficCategory.ROUTING, ctx)
        send_time = sim._queue[0][0]
        sim.schedule(send_time, "b", _data("feed"))
        sim._schedule_tick(1, send_time)
        kinds = [
            "tick" if entry[3] is None else entry[3].payload for entry in sorted(sim._queue)
        ]
        assert kinds == ["feed", "send", "tick"]

    def test_sends_order_by_sender_then_destination_then_sequence(self):
        sim = Simulator(num_machines=3)
        tasks = [sim.register(Recorder(f"t{i}", machine_id=i)) for i in range(3)]
        ranks = {}
        for sender in (2, 0, 1):
            for dest in (1, 2, 0):
                for sequence in range(2):
                    ranks[(sender, dest, sequence)] = sim._send_rank(
                        tasks[sender].machine_id, tasks[dest].machine_id
                    )
        assert sorted(ranks, key=ranks.get) == sorted(ranks)

    def test_link_counters_are_owned_by_the_sender(self):
        sim = Simulator(num_machines=3)
        for i in range(3):
            sim.register(Recorder(f"t{i}", machine_id=i))
        first = sim._send_rank(0, 2)
        for _ in range(5):
            sim._send_rank(1, 2)  # another sender, same destination
        sim._send_rank(0, 1)      # same sender, another destination
        assert sim._send_rank(0, 2) == first + 1

    def test_off_cluster_sender_ranks_below_every_machine(self):
        sim = Simulator(num_machines=2)
        off_cluster = [sim._send_rank(-1, dest) for dest in (-1, 0, 1)]
        on_cluster = [sim._send_rank(sender, dest) for sender in (0, 1) for dest in (-1, 0, 1)]
        assert max(off_cluster) < min(on_cluster)
        feed_rank = next(sim._schedule_rank)
        assert feed_rank < min(off_cluster)

    def test_fanout_and_post_share_the_link_sequence(self):
        sim = Simulator(num_machines=2)
        sender = sim.register(Recorder("a", machine_id=0))
        sim.register(Recorder("b", machine_id=1))
        ctx = _context(sim, sender)
        sim.post(sender, "b", _data(0), TrafficCategory.ROUTING, ctx)
        sim.post_fanout(sender, ["b"], _data(1), TrafficCategory.ROUTING, ctx)
        sim.post(sender, "b", _data(2), TrafficCategory.ROUTING, ctx)
        ranks = [rank for _time, rank, _task, message in sorted(sim._queue)]
        assert [message.payload for *_head, message in sorted(sim._queue)] == [0, 1, 2]
        assert ranks == [ranks[0], ranks[0] + 1, ranks[0] + 2]


# ---------------------------------------------------------------------------
# Per-link FIFO
# ---------------------------------------------------------------------------


def _burst_run(script, num_machines=2, cost_model=None):
    sim = Simulator(num_machines=num_machines, cost_model=cost_model)
    sim.register(Burster("src", machine_id=0, script=script))
    sinks = {}
    for destination, _size, _cost in script:
        if destination not in sinks:
            machine = int(destination[1:])
            sinks[destination] = sim.register(Recorder(destination, machine_id=machine))
    sim.schedule(0.0, "src", _data("go"))
    sim.run()
    return sim, sinks


class TestLinkFifo:
    @pytest.mark.parametrize(
        "sizes",
        [[50.0, 20.0, 5.0, 1.0], [1.0, 5.0, 20.0, 50.0], [30.0, 1.0, 30.0, 1.0, 0.0]],
        ids=["descending", "ascending", "mixed"],
    )
    def test_same_link_burst_arrives_in_send_order(self, sizes):
        """A small message sent after a large one would arrive first on an
        unclamped wire; the link clamp and the sequence rank keep FIFO."""
        script = [("m1", size, 0.0) for size in sizes]
        cost_model = CostModel(per_tuple_network_cost=0.1)
        sim, sinks = _burst_run(script, cost_model=cost_model)
        log = sinks["m1"].log
        assert [payload for _t, _s, payload in log] == list(range(len(sizes)))
        times = [time for time, _s, _p in log]
        assert times == sorted(times)
        assert sim.heap_events == 1 + 1 + 2 * len(sizes)  # trigger + its tick

    @given(
        script=st.lists(
            st.tuples(
                st.sampled_from(["m1", "m2", "m3"]),
                st.floats(0.0, 40.0),
                st.sampled_from([0.0, 0.0, 0.5, 2.0]),
            ),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_any_burst_is_fifo_per_link_with_one_entry_per_send(self, script):
        sim, sinks = _burst_run(script, num_machines=4, cost_model=CostModel())
        for name, sink in sinks.items():
            sent = [index for index, (dest, _s, _c) in enumerate(script) if dest == name]
            assert [payload for _t, _s, payload in sink.log] == sent
        # The trigger and each send are one heap entry, each handled by one tick.
        assert sim.heap_events == 2 * (1 + len(script))

    def test_fifo_across_two_senders_is_per_link_only(self):
        """Links are independent: each sender's stream stays in order at the
        shared receiver, whatever the interleaving between the two links."""
        sim = Simulator(num_machines=3, cost_model=CostModel(per_tuple_network_cost=0.05))
        sim.register(Burster("a", machine_id=0, script=[("m2", s, 0.1) for s in (9, 1, 4)]))
        sim.register(Burster("b", machine_id=1, script=[("m2", s, 0.0) for s in (1, 9, 1)]))
        sink = sim.register(Recorder("m2", machine_id=2))
        sim.schedule(0.0, "a", _data("go"))
        sim.schedule(0.0, "b", _data("go"))
        sim.run()
        for sender in ("a", "b"):
            assert [p for _t, s, p in sink.log if s == sender] == [0, 1, 2]


# ---------------------------------------------------------------------------
# Real joins: sends, heap pops and the delivery trace
# ---------------------------------------------------------------------------


def _composite_query(rng: random.Random) -> JoinQuery:
    left = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(40)]
    right = [{"k": rng.randrange(12), "v": rng.randrange(40)} for _ in range(360)]
    return JoinQuery(
        name="COMPOSITE",
        left_relation="R",
        right_relation="S",
        left_records=left,
        right_records=right,
        predicate=CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: (l["v"] + r["v"]) % 2 == 0]
        ),
        description="equi join with a parity residual (wire-plane scenarios)",
    )


@pytest.fixture(scope="module")
def queries(small_dataset):
    return {
        "equi": make_query("EQ5", small_dataset),
        "band": make_query("BNCI", small_dataset),
        "composite": _composite_query(random.Random(17)),
    }


def _arrival_order(query, seed=SEED):
    rng = random.Random(seed)
    left = make_tuples(query.left_relation, query.left_records, rng, query.left_tuple_size)
    right = make_tuples(
        query.right_relation, query.right_records, rng, query.right_tuple_size
    )
    return interleave_streams(left, right, rng)


class WireProbe:
    """Counts sends, deliveries and ticks of every simulator in a test.

    Sends are counted where tasks and ingestion hand messages to the
    simulator (``post``, each ``post_fanout`` destination, ``schedule``, each
    per-tuple feed arrival); deliveries and ticks where the run loop pops
    them.  ``trace`` lists ``(time, destination, kind, sender)`` per delivery
    in pop order.
    """

    def __init__(self, monkeypatch):
        self.counts = Counter()
        self.trace = []
        original = {
            name: getattr(Simulator, name)
            for name in ("post", "post_fanout", "schedule", "feed_schedule", "_deliver", "_tick")
        }
        counts = self.counts
        trace = self.trace

        def post(sim, sender, destination, message, category, ctx):
            counts["sends"] += 1
            return original["post"](sim, sender, destination, message, category, ctx)

        def post_fanout(sim, sender, destinations, message, category, ctx):
            destinations = list(destinations)
            counts["sends"] += len(destinations)
            return original["post_fanout"](sim, sender, destinations, message, category, ctx)

        def schedule(sim, time, destination, message):
            counts["sends"] += 1
            return original["schedule"](sim, time, destination, message)

        def feed_schedule(sim, schedule, destination_picker):
            counts["sends"] += len(schedule)
            return original["feed_schedule"](sim, schedule, destination_picker)

        def deliver(sim, task, message, time):
            counts["deliveries"] += 1
            trace.append((time, task.name, message.kind, message.sender))
            return original["_deliver"](sim, task, message, time)

        def tick(sim, machine_id, time):
            counts["ticks"] += 1
            return original["_tick"](sim, machine_id, time)

        for name, wrapper in (
            ("post", post),
            ("post_fanout", post_fanout),
            ("schedule", schedule),
            ("feed_schedule", feed_schedule),
            ("_deliver", deliver),
            ("_tick", tick),
        ):
            monkeypatch.setattr(Simulator, name, wrapper)

    def reset(self):
        self.counts.clear()
        self.trace.clear()


@pytest.fixture()
def probe(monkeypatch):
    return WireProbe(monkeypatch)


def _run(operator_class, query, order, **plane):
    config = RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16, **plane)
    return operator_class(query, config=config).run(arrival_order=order, collect_outputs=True)


class TestOperatorWire:
    @pytest.mark.parametrize("plane", sorted(PLANES))
    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
    def test_heap_events_are_sends_plus_ticks(self, queries, probe, predicate, operator, plane):
        """Every send is delivered by exactly one heap pop of its own."""
        query = queries[predicate]
        result = _run(OPERATORS[operator], query, _arrival_order(query), **PLANES[plane])
        counts = probe.counts
        assert counts["sends"] > 0
        assert counts["deliveries"] == counts["sends"]
        assert result.heap_events == counts["sends"] + counts["ticks"]

    @pytest.mark.parametrize("operator", sorted(OPERATORS))
    @pytest.mark.parametrize("predicate", ["equi", "band", "composite"])
    def test_adaptive_plane_keeps_the_per_tuple_wire(self, queries, probe, predicate, operator):
        """Receiver-side draining cuts ticks, never sends: the adaptive
        plane's delivery trace is the per-tuple plane's, entry for entry."""
        query = queries[predicate]
        order = _arrival_order(query)
        reference = _run(OPERATORS[operator], query, order, batching="per_tuple")
        reference_trace = list(probe.trace)
        reference_ticks = probe.counts["ticks"]
        probe.reset()
        adaptive = _run(OPERATORS[operator], query, order, batching="adaptive")
        assert probe.trace == reference_trace
        assert probe.counts["ticks"] < reference_ticks
        # Both planes pop one entry per send; only the tick count differs.
        assert (
            reference.heap_events - adaptive.heap_events
            == reference_ticks - probe.counts["ticks"]
        )

    @pytest.mark.parametrize("plane", ["per_tuple", "adaptive"])
    def test_streaming_push_is_one_entry_per_send(self, queries, probe, plane):
        query = queries["equi"]
        order = _arrival_order(query)
        config = RunConfig(machines=MACHINES, seed=SEED, warmup_tuples=16, **PLANES[plane])
        session = JoinSession(query, config=config)
        session.open_stream(collect_outputs=True)
        for start in range(0, len(order), 97):
            session.push(items=order[start:start + 97])
        result = session.finish()
        counts = probe.counts
        assert counts["deliveries"] == counts["sends"]
        assert result.heap_events == counts["sends"] + counts["ticks"]
