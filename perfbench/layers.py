"""Per-layer tracing from outside the program.

:class:`Tracer` patches timing wrappers onto the public functions of each
layer at run time and removes them afterwards; nothing under ``src/``
changes.  Each wrapped call records a span (layer, start, end, parent span)
in flat in-memory arrays.  A layer's self time is the time of its spans minus
the time their child spans cover; calls are its span count.  Time spent in
unwrapped code counts toward the nearest wrapped caller.

The wrappers cost under a microsecond per call, but the local-join functions
alone are called over 200,000 times per full-size run, so the benchmark
reports ``trace.overhead`` (traced over untraced wall time) next to the layer
times instead of hiding it.
"""

from __future__ import annotations

import functools
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.api.session import JoinSession
from repro.core import elasticity, migration, tasks
from repro.core.decision import MigrationController
from repro.core.epochs import EpochJoinerState
from repro.core.recovery import JoinerJournal, RecoveryManager, ReshufflerJournal
from repro.data import queries, tpch
from repro.engine.metrics import MetricsCollector
from repro.engine.network import Network, ReliableWire
from repro.engine.simulator import Simulator
from repro.joins.local import LocalJoiner
from repro.storage.checkpoint_store import CheckpointStore

#: (layer, owner, attribute names).  An owner is a class, or a module whose
#: global function is wrapped; ``plan_migration`` is wrapped in every module
#: that imported it by name.
LAYERS = (
    ("data.generate", tpch, ("generate_dataset",)),
    ("data.query", queries, ("make_query",)),
    ("api.build", JoinSession, ("__init__", "operator")),
    ("api.run", JoinSession, ("run",)),
    ("api.push", JoinSession, ("push",)),
    ("api.finish", JoinSession, ("finish",)),
    ("core.reshuffler", tasks.ReshufflerTask, ("handle", "handle_drained")),
    ("core.joiner", tasks.JoinerTask, ("handle", "handle_drained")),
    (
        "core.epochs",
        EpochJoinerState,
        ("handle_data", "handle_data_batch", "handle_migrated", "handle_signal", "finalize"),
    ),
    ("core.decision", MigrationController, ("check",)),
    ("core.migration", migration, ("plan_migration",)),
    ("core.migration", tasks, ("plan_migration",)),
    ("core.migration", elasticity, ("plan_migration",)),
    ("core.recovery", RecoveryManager, ("on_crash", "on_restart")),
    ("core.recovery", JoinerJournal, ("maybe_snapshot",)),
    ("core.recovery", ReshufflerJournal, ("maybe_snapshot",)),
    ("engine.simulator", Simulator, ("run",)),
    (
        "engine.simulator.post",
        Simulator,
        ("post", "post_fanout", "schedule", "schedule_data", "feed_schedule"),
    ),
    ("engine.network", Network, ("transfer",)),
    ("engine.wire", ReliableWire, ("on_send", "partitioned")),
    ("engine.metrics", MetricsCollector, ("record_output", "record_outputs")),
    (
        "joins.local",
        LocalJoiner,
        ("insert", "bulk_insert", "probe", "raw_probe", "keyed_raw_probe", "keyed_candidate_count"),
    ),
    ("joins.probe_batch", LocalJoiner, ("probe_batch",)),
    ("storage.checkpoint", CheckpointStore, ("log", "snapshot", "load", "flush", "close")),
)

LAYER_NAMES = tuple(dict.fromkeys(layer for layer, _, _ in LAYERS))


class Tracer:
    """Records spans of the wrapped layer functions while installed."""

    def __init__(self) -> None:
        self.clear()
        self._originals: list[tuple[object, str, object]] = []

    def clear(self) -> None:
        """Forget every recorded span."""
        self.layers = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.current = -1

    def _wrap(self, function, layer_id: int):
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(tracer.layers)
            parent = tracer.current
            tracer.layers.append(layer_id)
            tracer.parents.append(parent)
            tracer.ends.append(0.0)
            tracer.current = index
            tracer.starts.append(perf_counter())
            try:
                return function(*args, **kwargs)
            finally:
                tracer.ends[index] = perf_counter()
                tracer.current = parent

        return traced

    def __enter__(self) -> "Tracer":
        for layer, owner, names in LAYERS:
            layer_id = LAYER_NAMES.index(layer)
            for name in names:
                original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
                self._originals.append((owner, name, original))
                setattr(owner, name, self._wrap(original, layer_id))
        return self

    def __exit__(self, *exc_info) -> None:
        while self._originals:
            owner, name, original = self._originals.pop()
            setattr(owner, name, original)

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """``{layer: (calls, self seconds)}`` over the recorded spans."""
        layers = np.frombuffer(self.layers, dtype=np.int32)
        parents = np.frombuffer(self.parents, dtype=np.int64)
        duration = np.frombuffer(self.ends) - np.frombuffer(self.starts)
        self_time = duration.copy()
        child = parents >= 0
        np.subtract.at(self_time, parents[child], duration[child])
        count = len(LAYER_NAMES)
        calls = np.bincount(layers, minlength=count)
        seconds = np.bincount(layers, weights=self_time, minlength=count)
        return {
            name: (int(calls[i]), float(seconds[i])) for i, name in enumerate(LAYER_NAMES)
        }

    def write(self, path: Path) -> None:
        """Write the recorded spans to ``path`` as a NumPy ``.npz`` archive."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(
            path,
            layer_names=np.array(LAYER_NAMES),
            layer=np.frombuffer(self.layers, dtype=np.int32),
            parent=np.frombuffer(self.parents, dtype=np.int64),
            start=np.frombuffer(self.starts),
            end=np.frombuffer(self.ends),
        )
