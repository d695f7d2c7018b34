"""Tests for the discrete-event simulator: ordering, queueing, accounting."""

import pytest

from repro.engine.machine import CostModel
from repro.engine.network import TrafficCategory
from repro.engine.simulator import Simulator
from repro.engine.stream import ArrivalSchedule, StreamTuple
from repro.engine.task import Context, Message, MessageKind, Task


class Recorder(Task):
    """Task that records (logical time, payload) for every message."""

    def __init__(self, name, machine_id=-1, cost=0.0):
        super().__init__(name, machine_id)
        self.cost = cost
        self.log = []

    def handle(self, message: Message, ctx: Context) -> None:
        self.log.append((ctx.now, message.payload))
        ctx.charge(self.cost)


class DrainingRecorder(Recorder):
    """A :class:`Recorder` whose messages the adaptive plane may drain by kind."""

    def drain_key(self, message: Message):
        return message.kind


class Forwarder(Task):
    """Task that forwards every payload to a destination."""

    def __init__(self, name, destination, machine_id=-1, cost=0.0):
        super().__init__(name, machine_id)
        self.destination = destination
        self.cost = cost

    def handle(self, message: Message, ctx: Context) -> None:
        ctx.charge(self.cost)
        ctx.send(
            self.destination,
            Message(
                kind=message.kind, sender=self.name, payload=message.payload, size=message.size
            ),
        )


def _data(payload, kind=MessageKind.DATA, size=1.0):
    return Message(kind=kind, sender="test", payload=payload, size=size)


class TestScheduling:
    def test_events_processed_in_time_order(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=-1))
        sim.schedule(5.0, "r", _data("late"))
        sim.schedule(1.0, "r", _data("early"))
        sim.run()
        assert [p for _, p in task.log] == ["early", "late"]

    def test_unknown_destination_rejected(self):
        sim = Simulator(num_machines=1)
        with pytest.raises(KeyError):
            sim.schedule(0.0, "nobody", _data("x"))

    def test_duplicate_task_names_rejected(self):
        sim = Simulator(num_machines=1)
        sim.register(Recorder("a"))
        with pytest.raises(ValueError):
            sim.register(Recorder("a"))

    def test_task_on_unknown_machine_rejected(self):
        sim = Simulator(num_machines=1)
        with pytest.raises(ValueError):
            sim.register(Recorder("a", machine_id=5))


class TestMachineQueueing:
    def test_busy_machine_defers_processing(self):
        """Two messages to the same machine are handled back-to-back."""
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        sim.schedule(0.0, "r", _data("a"))
        sim.schedule(1.0, "r", _data("b"))
        finish = sim.run()
        times = [t for t, _ in task.log]
        assert times[0] == pytest.approx(0.0)
        assert times[1] == pytest.approx(10.0)  # waits for the machine
        assert finish == pytest.approx(20.0)

    def test_fifo_order_preserved_under_load(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=1.0))
        for index in range(20):
            sim.schedule(0.0, "r", _data(index))
        sim.run()
        assert [p for _, p in task.log] == list(range(20))

    def test_independent_machines_run_in_parallel(self):
        sim = Simulator(num_machines=2)
        fast = sim.register(Recorder("m0", machine_id=0, cost=5.0))
        slow = sim.register(Recorder("m1", machine_id=1, cost=5.0))
        sim.schedule(0.0, "m0", _data("x"))
        sim.schedule(0.0, "m1", _data("y"))
        finish = sim.run()
        assert finish == pytest.approx(5.0)
        assert sim.machines[0].busy_time == pytest.approx(5.0)
        assert sim.machines[1].busy_time == pytest.approx(5.0)

    def test_priority_control_messages_bypass_backlog(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        for index in range(5):
            sim.schedule(0.0, "r", _data(index))
        sim.schedule(1.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        payloads = [p for _, p in task.log]
        # The control message is handled at its delivery time, long before the
        # data backlog drains.
        assert payloads.index("control") == 1

    def test_max_events_guard(self):
        sim = Simulator(num_machines=1)
        sim.register(Forwarder("a", "b", machine_id=0))
        sim.register(Forwarder("b", "a", machine_id=0))
        sim.schedule(0.0, "a", _data("loop"))
        with pytest.raises(RuntimeError):
            sim.run(max_events=100)


class TestPipelines:
    def test_forwarding_pipeline_and_execution_time(self):
        cost_model = CostModel(network_latency=1.0, per_tuple_network_cost=0.0)
        sim = Simulator(num_machines=2, cost_model=cost_model)
        sink = sim.register(Recorder("sink", machine_id=1, cost=2.0))
        sim.register(Forwarder("hop", "sink", machine_id=0, cost=1.0))
        sim.schedule(0.0, "hop", _data("t1"))
        finish = sim.run()
        # hop: work [0,1); network +1; sink starts at 2, works 2 units.
        assert sink.log[0][0] == pytest.approx(2.0)
        assert finish == pytest.approx(4.0)

    def test_feed_schedule_sets_arrival_times(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0))
        items = [StreamTuple(relation="R", record={"i": i}) for i in range(3)]
        schedule = ArrivalSchedule(items=items, inter_arrival=2.0)
        sim.feed_schedule(schedule, destination_picker=lambda item: "r")
        sim.run()
        assert [item.arrival_time for item in items] == [0.0, 2.0, 4.0]
        assert len(task.log) == 3

    def test_storage_summaries(self):
        sim = Simulator(num_machines=2)
        sim.machines[0].add_stored(5.0)
        sim.machines[1].add_stored(9.0)
        assert sim.max_machine_storage() == 9.0
        assert sim.total_storage() == 14.0
        assert not sim.any_spilled()


class TestPriorityStart:
    def test_control_message_waits_for_running_handler(self):
        """A priority message bypasses the inbox but not the busy CPU: it
        starts at max(delivery time, machine.busy_until)."""
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=10.0))
        sim.schedule(0.0, "r", _data("data"))
        sim.schedule(1.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        times = {payload: time for time, payload in task.log}
        assert times["data"] == pytest.approx(0.0)
        # Delivered at t=1 while the data handler occupies [0, 10); starts at 10.
        assert times["control"] == pytest.approx(10.0)

    def test_control_message_on_idle_machine_starts_at_delivery(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0, cost=1.0))
        sim.schedule(3.0, "r", _data("control", kind=MessageKind.MAPPING_CHANGE, size=0.0))
        sim.run()
        assert task.log[0][0] == pytest.approx(3.0)


class TestFeed:
    def _items(self, count):
        return [StreamTuple(relation="R", record={"i": i}, size=2.0) for i in range(count)]

    def test_feed_is_one_source_message_per_tuple(self):
        sim = Simulator(num_machines=1)
        task = sim.register(Recorder("r", machine_id=0))
        items = self._items(10)
        schedule = ArrivalSchedule(items=items, inter_arrival=1.0)
        sim.feed_schedule(schedule, destination_picker=lambda item: "r")
        sim.run()
        assert [payload for _, payload in task.log] == items
        # Each tuple is stamped and delivered at its own arrival time.
        assert [item.arrival_time for item in items] == [float(i) for i in range(10)]
        assert [time for time, _ in task.log] == [float(i) for i in range(10)]

    def test_drained_feed_reproduces_the_per_tuple_busy_chain(self):
        """A backlog drained in runs starts every member at the virtual time
        the per-tuple plane starts it, and finishes at the same time."""

        items = self._items(12)

        def run(adaptive):
            sim = Simulator(num_machines=1)
            if adaptive:
                sim.install_batching()
            task = sim.register(DrainingRecorder("r", machine_id=0, cost=1.5))
            schedule = ArrivalSchedule(items=items, inter_arrival=0.5)
            sim.feed_schedule(schedule, destination_picker=lambda item: "r")
            return sim.run(), task.log, sim.events_processed

        per_tuple_end, per_tuple_log, per_tuple_events = run(adaptive=False)
        drained_end, drained_log, drained_events = run(adaptive=True)
        assert drained_log == per_tuple_log
        assert drained_end == per_tuple_end
        assert drained_events < per_tuple_events

    def test_network_accounting_is_per_message(self):
        """Every transfer counts one message and its size as volume."""
        sim = Simulator(num_machines=2)
        sim.register(Recorder("sink", machine_id=1))
        sim.register(Forwarder("hop", "sink", machine_id=0))
        for item in self._items(5):
            sim.schedule(0.0, "hop", _data(item, size=item.size))
        sim.run()
        assert sim.network.messages[TrafficCategory.ROUTING] == 5
        assert sim.network.volume[TrafficCategory.ROUTING] == pytest.approx(10.0)
