"""Experiment runner: regenerate every table and figure from the command line.

``python -m repro.experiments.runner --preset quick`` prints the data behind
each table and figure of the paper's evaluation, formatted as plain-text
tables.  The ``default`` preset is the reproduction's scale; the ``quick``
preset is a smaller, faster sanity pass, and the one
``tests/experiments/test_paper_claims.py`` checks the paper's claims on.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict, Optional, Sequence, TextIO

from ..analysis.report import format_series, format_speedup_table, format_table
from .ablation import figure12_num_jobs, figure13_num_tiers, figure14_fairness_knob
from .accuracy import figure4_contention_accuracy, figure9_accuracy_over_time
from .breakdown import figure11_component_breakdown, figure5_jct_breakdown
from .config import ExperimentConfig, get_config
from .endtoend import (
    table1_average_jct,
    table2_demand_percentiles,
    table3_categories,
    table4_biased_workloads,
)
from .figures import (
    figure10_overhead,
    figure2a_availability_curve,
    figure2b_capacity_heterogeneity,
    figure3_toy_example,
    figure8a_category_shares,
    figure8b_job_demand_stats,
)


def _print(out: TextIO, text: str) -> None:
    out.write(text + "\n\n")
    out.flush()


def run_characterisation(out: TextIO) -> None:
    """Figures 2 and 8: trace characterisation."""
    times, frac = figure2a_availability_curve(num_devices=1000)
    peak, trough = float(frac.max()), float(frac[frac > 0].min()) if (frac > 0).any() else 0.0
    _print(
        out,
        format_table(
            ["statistic", "value"],
            [
                ["peak online fraction", peak],
                ["trough online fraction", trough],
                ["peak / trough", peak / max(trough, 1e-9)],
            ],
            title="Figure 2a — diurnal availability",
        ),
    )
    _print(
        out,
        format_table(
            ["model", "qualified fraction"],
            list(figure2b_capacity_heterogeneity(num_devices=1000).items()),
            title="Figure 2b — device capacity heterogeneity",
        ),
    )
    _print(
        out,
        format_table(
            ["category", "eligible fraction"],
            list(figure8a_category_shares(num_devices=1000).items()),
            title="Figure 8a — eligibility categories",
        ),
    )
    _print(
        out,
        format_table(
            ["statistic", "value"],
            list(figure8b_job_demand_stats().items()),
            title="Figure 8b — job demand trace",
        ),
    )


def run_toy_example(out: TextIO) -> None:
    """Figure 3: toy example."""
    toy = figure3_toy_example()
    _print(
        out,
        format_table(
            ["strategy", "average JCT (time units)"],
            [
                ["random", toy.random_jct],
                ["SRSF", toy.srsf_jct],
                ["Venn", toy.venn_jct],
                ["optimal (ILP)", toy.optimal_jct],
            ],
            title="Figure 3 — toy example (paper: random 12, SRSF 11, optimal 9.3)",
        ),
    )


def run_endtoend(config: ExperimentConfig, out: TextIO) -> None:
    """Tables 1-4."""
    _print(
        out,
        format_speedup_table(
            table1_average_jct(config),
            title="Table 1 — average JCT speed-up over random matching",
        ),
    )
    table2 = {
        scenario: {f"p{int(p)}": v for p, v in row.items()}
        for scenario, row in table2_demand_percentiles(config).items()
    }
    _print(
        out,
        format_speedup_table(
            table2, title="Table 2 — Venn speed-up by total-demand percentile"
        ),
    )
    _print(
        out,
        format_speedup_table(
            table3_categories(config),
            title="Table 3 — Venn speed-up by eligibility category",
        ),
    )
    _print(
        out,
        format_speedup_table(
            table4_biased_workloads(config),
            title="Table 4 — speed-up on biased workloads",
        ),
    )


def run_breakdowns(config: ExperimentConfig, out: TextIO) -> None:
    """Figures 5 and 11."""
    rows = []
    for n, row in figure5_jct_breakdown(config).items():
        rows.append([f"{n} jobs", row.scheduling_delay, row.response_time, row.total])
    _print(
        out,
        format_table(
            ["contention", "scheduling delay (s)", "response time (s)", "total (s)"],
            rows,
            title="Figure 5 — JCT breakdown under random matching",
        ),
    )
    _print(
        out,
        format_speedup_table(
            figure11_component_breakdown(config),
            title="Figure 11 — component breakdown (improvement over random)",
        ),
    )


def run_ablations(config: ExperimentConfig, out: TextIO) -> None:
    """Figures 12, 13 and 14."""
    fig12 = {str(n): row for n, row in figure12_num_jobs(config).items()}
    _print(
        out,
        format_speedup_table(
            fig12, row_label="num jobs", title="Figure 12 — impact of number of jobs"
        ),
    )
    fig13 = figure13_num_tiers(config)
    _print(
        out,
        format_table(
            ["tiers", "speed-up over random"],
            [[v, s] for v, s in fig13.items()],
            title="Figure 13 — impact of number of tiers",
        ),
    )
    fig14 = figure14_fairness_knob(config)
    _print(
        out,
        format_table(
            ["epsilon", "speed-up", "fair-share ratio"],
            [[eps, s, f] for eps, (s, f) in fig14.items()],
            title="Figure 14 — fairness knob",
        ),
    )


def run_accuracy(config: ExperimentConfig, out: TextIO, quick: bool = False) -> None:
    """Figures 4 and 9."""
    job_counts = (1, 5, 10) if quick else (1, 5, 10, 20)
    rounds = 10 if quick else 30
    curves = figure4_contention_accuracy(job_counts=job_counts, num_rounds=rounds)
    rows = [[k, series[-1]] for k, series in curves.items()]
    _print(
        out,
        format_table(
            ["concurrent jobs", "final accuracy"],
            rows,
            precision=3,
            title="Figure 4 — impact of resource contention on accuracy",
        ),
    )
    times, acc = figure9_accuracy_over_time(config)
    _print(
        out,
        format_series(
            [t / 3600.0 for t in times],
            acc,
            x_label="time (h)",
            title="Figure 9 — average test accuracy over time",
        ),
    )


def run_overhead(out: TextIO) -> None:
    """Figure 10."""
    rows = [
        [m, n, latency]
        for (m, n), latency in figure10_overhead(
            job_counts=(100, 500, 1000), group_counts=(20, 100)
        ).items()
    ]
    _print(
        out,
        format_table(
            ["jobs", "groups", "latency (ms)"],
            rows,
            precision=3,
            title="Figure 10 — scheduler overhead",
        ),
    )


def run_all(
    preset: str = "quick", seed: int = 7, out: Optional[TextIO] = None
) -> None:
    """Run every experiment and print the resulting tables."""
    out = out or sys.stdout
    config = get_config(preset, seed=seed)
    run_characterisation(out)
    run_toy_example(out)
    run_endtoend(config, out)
    run_breakdowns(config, out)
    run_ablations(config, out)
    run_accuracy(config, out, quick=preset == "quick")
    run_overhead(out)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--preset",
        default="quick",
        choices=["quick", "default", "large"],
        help="experiment scale preset",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--section",
        default="all",
        choices=[
            "all",
            "characterisation",
            "toy",
            "endtoend",
            "breakdown",
            "ablation",
            "accuracy",
            "overhead",
        ],
        help="run only one section of the evaluation",
    )
    args = parser.parse_args(argv)
    config = get_config(args.preset, seed=args.seed)
    out = sys.stdout
    sections: Dict[str, Callable[[], None]] = {
        "characterisation": lambda: run_characterisation(out),
        "toy": lambda: run_toy_example(out),
        "endtoend": lambda: run_endtoend(config, out),
        "breakdown": lambda: run_breakdowns(config, out),
        "ablation": lambda: run_ablations(config, out),
        "accuracy": lambda: run_accuracy(config, out, quick=args.preset == "quick"),
        "overhead": lambda: run_overhead(out),
    }
    if args.section == "all":
        run_all(args.preset, seed=args.seed, out=out)
    else:
        sections[args.section]()
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())


__all__ = [
    "main",
    "run_all",
    "run_ablations",
    "run_accuracy",
    "run_breakdowns",
    "run_characterisation",
    "run_endtoend",
    "run_overhead",
    "run_toy_example",
]
