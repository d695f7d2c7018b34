"""Workload × operator execution harness.

The harness is a thin adapter between the experiment drivers and the public
:mod:`repro.api` session layer: :class:`ExperimentConfig` combines the
dataset knobs (scale, skew) with a :class:`~repro.api.config.RunConfig`, and
:func:`run_single` executes through a :class:`~repro.api.session.JoinSession`
— no operator is constructed outside ``repro.api`` anywhere in the bench
layer.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from repro.api import JoinSession, RunConfig, batch_controllers
from repro.api.session import OPERATOR_ONLY_KWARGS
from repro.core.results import RunResult
from repro.data.queries import JoinQuery, make_query
from repro.data.tpch import generate_dataset
from repro.engine.machine import CostModel


@dataclass
class ExperimentConfig:
    """Shared knobs of one experiment run.

    Attributes:
        machines: number of joiners.
        scale: dataset scale factor (1.0 ≈ the paper's 10 GB dataset shrunk).
        skew: Zipf parameter or label ("Z0".."Z4").
        seed: base seed for data generation and simulation.
        memory_capacity: per-machine storage budget (None = unbounded);
            finite values reproduce the disk-spill behaviour of Table 2.
        cost_model: optional cost-model override.
        inter_arrival: source pacing (0 = joiners fully utilised).
        batch_size: fixed-plane micro-batch size.  Defaults to 1 — the
            figure/table drivers regenerate the paper's evaluation, whose
            reference semantics are per-tuple (fixed batching shifts the
            epoch edge by up to batch_size tuples per reshuffler, which moves
            marginal virtual-time comparisons at benchmark scales).  Pass
            ``None`` for the operator's tuned batched default, or an explicit
            size.  Ignored (forced to None) when ``batching="adaptive"``.
        batching: batching plane.  ``"adaptive"`` lets figure drivers run
            batched *at reference semantics*: results and virtual times are
            bit-identical to ``batch_size=1`` (pinned by
            ``tests/test_adaptive_conformance.py``), only wall-clock and
            simulator-event counts change.
        batch_max: adaptive-plane run-size cap (``None`` = controller default).
        operator_kwargs: extra :class:`RunConfig` field overrides (and the
            operator-specific ``adaptive`` / ``initial_mapping``) applied to
            every run under this config — e.g. ``{"probe_engine": "scalar"}``
            to benchmark the scalar probe engine.
    """

    machines: int = 16
    scale: float = 0.5
    skew: float | str = 0.0
    seed: int = 1
    memory_capacity: float | None = None
    cost_model: CostModel | None = None
    inter_arrival: float = 0.0
    batch_size: int | None = 1
    batching: str = "fixed"
    batch_max: int | None = None
    operator_kwargs: dict = field(default_factory=dict)

    def run_config(self) -> RunConfig:
        """The :class:`RunConfig` this experiment configuration denotes.

        ``operator_kwargs`` entries naming RunConfig fields are folded in;
        operator-specific extras (``adaptive``, ``initial_mapping``) are left
        to :meth:`session`'s call-site overrides.
        """
        # Classify the plane by the registered controller's contract (not by
        # name): only draining planes reject batch_size / accept batch_max.
        controller_class = batch_controllers.get(self.batching)
        drains = bool(getattr(controller_class, "drains", False))
        config = RunConfig(
            machines=self.machines,
            seed=self.seed,
            memory_capacity=self.memory_capacity,
            inter_arrival=self.inter_arrival,
            # The adaptive plane sizes its runs dynamically; batch_size is a
            # fixed-plane knob (RunConfig rejects the combination).
            batch_size=None if drains else self.batch_size,
            batching=self.batching,
            batch_max=self.batch_max if drains else None,
        )
        config_overrides = {
            key: value
            for key, value in self.operator_kwargs.items()
            if key not in OPERATOR_ONLY_KWARGS
        }
        return config.with_overrides(**config_overrides)

    def extra_operator_kwargs(self) -> dict:
        """The operator-specific (non-RunConfig) overrides, if any."""
        return {
            key: value
            for key, value in self.operator_kwargs.items()
            if key in OPERATOR_ONLY_KWARGS
        }

    def session(self, query: JoinQuery | None = None, operator: str = "Dynamic") -> JoinSession:
        """A :class:`JoinSession` configured for this experiment."""
        return JoinSession(
            query,
            operator=operator,
            config=self.run_config(),
            cost_model=self.cost_model,
        )


def build_query(name: str, config: ExperimentConfig) -> JoinQuery:
    """Generate the dataset and build query ``name`` for ``config``."""
    dataset = generate_dataset(scale=config.scale, skew=config.skew, seed=config.seed)
    return make_query(name, dataset)


def run_single(
    operator_kind: str,
    query: JoinQuery,
    config: ExperimentConfig,
    **run_kwargs,
) -> RunResult:
    """Run one operator on one query under ``config`` (via :mod:`repro.api`)."""
    session = config.session(query, operator=operator_kind)
    return session.run(**config.extra_operator_kwargs(), **run_kwargs)


def run_matrix(
    operator_kinds: Sequence[str],
    query_names: Sequence[str],
    config: ExperimentConfig,
    skews: Iterable[float | str] | None = None,
    **run_kwargs,
) -> list[RunResult]:
    """Run the cross product operators × queries × skews.

    SHJ is skipped automatically for non-equi queries (the paper's Table 2
    and figures only report it where applicable).
    """
    results: list[RunResult] = []
    skew_values = list(skews) if skews is not None else [config.skew]
    for skew in skew_values:
        local_config = ExperimentConfig(
            machines=config.machines,
            scale=config.scale,
            skew=skew,
            seed=config.seed,
            memory_capacity=config.memory_capacity,
            cost_model=config.cost_model,
            inter_arrival=config.inter_arrival,
            batch_size=config.batch_size,
            batching=config.batching,
            batch_max=config.batch_max,
            operator_kwargs=dict(config.operator_kwargs),
        )
        for query_name in query_names:
            query = build_query(query_name, local_config)
            for operator_kind in operator_kinds:
                if operator_kind == "SHJ" and query.predicate.kind != "equi":
                    continue
                result = run_single(operator_kind, query, local_config, **run_kwargs)
                result.query = f"{query_name}@{skew}" if len(skew_values) > 1 else query_name
                results.append(result)
    return results
