"""Receiver-side run sizing of the adaptive data plane.

The operator has one data plane with two settings (``RunConfig.batching``):

* ``"adaptive"`` (the default) keeps the wire per-tuple — every message is
  sent, transferred and delivered exactly as on the reference plane — and
  coalesces at the *receiver*: when a machine starts working and its inbox
  holds a backlog of drainable messages (same task, same kind, same epoch),
  the simulator drains a controller-sized run of them into one handler
  invocation.  Each member is still charged at its own virtual-time boundary
  (see :meth:`repro.engine.task.Context.boundary`), so busy chains, output
  timestamps, migration decisions and network traffic are *bit-identical* to
  the per-tuple plane — batching is a pure simulator-event and
  probe-vectorisation optimisation.  Under paced arrivals the inbox never
  backs up and the plane degenerates to per-tuple processing; around epoch
  edges the drain key changes and the run is force-flushed.

* ``"per_tuple"`` is the reference plane the conformance suites compare
  against: no drain controllers are installed and every message goes through
  ``Task.handle``.  The blocking migration protocol always runs on it.

An :class:`AdaptiveBatchController` decides how many drainable messages one
machine may coalesce per invocation, given its current inbox backlog;
:meth:`repro.engine.simulator.Simulator.install_batching` gives every machine
one.
"""

from __future__ import annotations

#: Largest run the adaptive controller coalesces.
DEFAULT_BATCH_MAX = 64


class AdaptiveBatchController:
    """Backlog-driven sizing: grow under pressure, collapse when paced.

    The ramp doubles while backlog persists (so a standing queue is drained
    in exponentially growing runs up to ``max_run``) and snaps back to
    per-tuple the moment the inbox is (nearly) empty — which is exactly the
    state a paced source keeps the machine in.  The controller never asks
    for more than the observed backlog, so it cannot make a machine wait
    for input that has not arrived.

    Invariants (pinned by the Hypothesis suite in
    ``tests/test_adaptive_conformance.py``):

    * every returned size is in ``[1, max_run]``,
    * a backlog of ``<= 1`` always returns 1 (paced collapse),
    * under a sustained backlog ``>= max_run`` the returned sizes are
      non-decreasing and reach ``max_run``.
    """

    def __init__(self, max_run: int = DEFAULT_BATCH_MAX) -> None:
        if max_run < 1:
            raise ValueError(f"max_run must be >= 1, got {max_run}")
        self.max_run = max_run
        self._size = 1

    def next_run_size(self, backlog: int) -> int:
        """Upper bound on the next drained run, given ``backlog`` queued messages.

        Called once per eligible machine invocation, in deterministic
        simulation order, so the stateful ramp stays reproducible.
        """
        if backlog <= 1:
            self._size = 1
            return 1
        target = min(self.max_run, backlog)
        if self._size < target:
            self._size = min(target, max(2, self._size * 2))
        else:
            self._size = target
        return self._size
