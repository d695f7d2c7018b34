"""Command-line entry point for the experiment drivers.

Run any table/figure of the paper's evaluation directly, without pytest::

    python -m repro.bench table2 --scale 0.5 --machines 16
    python -m repro.bench fig6a fig6d --scale 0.4
    python -m repro.bench all --scale 0.25 --machines 8
    python -m repro.bench fig7a --config run-config.json

The output is the same plain-text report the corresponding benchmark prints.

``--config`` loads a serialised :class:`repro.api.RunConfig` (the format
:meth:`RunConfig.to_dict` emits, e.g. a ``run_config`` block of a CI
``perf-breadcrumb.json``): its ``machines`` / ``seed`` become the drivers'
defaults, overridable by the explicit ``--machines`` / ``--seed`` flags.
The figure drivers pin their remaining knobs themselves (they regenerate the
paper's evaluation on the ``batching="per_tuple"`` reference plane), so any other
non-default field in the file is reported as ignored; to run an arbitrary
config programmatically, use :class:`repro.api.JoinSession` directly.
"""

from __future__ import annotations

import argparse
import inspect
from typing import Callable

from repro.api import RunConfig
from repro.bench import experiments

#: Experiment name -> driver function.
DRIVERS: dict[str, Callable[..., experiments.ExperimentReport]] = {
    "table2": experiments.table2_skew_resilience,
    "fig6a": experiments.fig6a_ilf_growth,
    "fig6b": experiments.fig6b_final_ilf,
    "fig6c": experiments.fig6c_execution_progress,
    "fig6d": experiments.fig6d_total_execution_time,
    "fig7a": experiments.fig7a_throughput,
    "fig7b": experiments.fig7b_latency,
    "fig7cd": experiments.fig7cd_mapping_sweep,
    "fig8ab": experiments.fig8ab_weak_scaling,
    "fig8cd": experiments.fig8cd_fluctuations,
    "ablation-epsilon": experiments.ablation_epsilon,
    "ablation-migration": experiments.ablation_migration_strategy,
    "ablation-blocking": experiments.ablation_blocking,
    "recovery": experiments.recovery_sweep,
    "lossy-wire": experiments.lossy_wire_sweep,
}


def _supported_kwargs(driver: Callable, candidate_kwargs: dict) -> dict:
    """Keep only the keyword arguments the driver actually accepts."""
    parameters = inspect.signature(driver).parameters
    return {key: value for key, value in candidate_kwargs.items() if key in parameters}


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables/figures of 'Scalable and Adaptive Online Joins' (VLDB 2014).",
    )
    parser.add_argument(
        "experiments",
        nargs="+",
        metavar="EXPERIMENT",
        help=f"experiments to run: {', '.join(sorted(DRIVERS))}, or 'all'",
    )
    parser.add_argument("--scale", type=float, default=0.4, help="dataset scale factor")
    parser.add_argument(
        "--machines", type=int, default=None, help="number of joiners (power of two)"
    )
    parser.add_argument("--seed", type=int, default=None, help="random seed")
    parser.add_argument(
        "--config",
        metavar="FILE.json",
        default=None,
        help="load a serialised repro.api.RunConfig; explicit flags override it",
    )
    return parser


def run(argv: list[str] | None = None) -> list[experiments.ExperimentReport]:
    """Parse ``argv``, run the requested experiments and print their reports."""
    parser = build_parser()
    args = parser.parse_args(argv)

    names = list(args.experiments)
    if "all" in names:
        names = sorted(DRIVERS)
    unknown = [name for name in names if name not in DRIVERS]
    if unknown:
        parser.error(f"unknown experiment(s): {', '.join(unknown)}")

    base = RunConfig(machines=16, seed=1)
    if args.config is not None:
        try:
            base = RunConfig.from_file(args.config)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot load --config {args.config}: {exc}")
        ignored = {
            name: value
            for name, value in base.to_dict().items()
            if name not in ("machines", "seed") and value != getattr(RunConfig(), name)
        }
        if ignored:
            print(
                "note: the figure drivers pin their own run knobs; ignoring "
                f"non-default --config field(s): {', '.join(sorted(ignored))}"
            )
    machines = args.machines if args.machines is not None else base.machines
    seed = args.seed if args.seed is not None else base.seed
    shared = {"scale": args.scale, "machines": machines, "seed": seed}
    reports = []
    for name in names:
        driver = DRIVERS[name]
        if name == "fig8ab":
            # weak scaling is parameterised by its base configuration
            kwargs = _supported_kwargs(
                driver,
                {"base_scale": args.scale / 2, "base_machines": max(4, machines // 2), "seed": seed},
            )
        else:
            kwargs = _supported_kwargs(driver, shared)
        report = driver(**kwargs)
        print(report.text)
        print()
        reports.append(report)
    return reports


def main() -> None:  # pragma: no cover - thin wrapper
    run()


if __name__ == "__main__":  # pragma: no cover
    main()
