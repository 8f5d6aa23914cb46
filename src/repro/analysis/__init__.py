"""Metrics analysis and plain-text reporting helpers."""

from .aggregate import (
    AggregateRow,
    CoSimAggregateRow,
    TargetAggregate,
    aggregate_cosim_rows,
    aggregate_rows,
    format_aggregates,
    format_cosim_aggregates,
    metrics_row,
)
from .report import (
    format_cell,
    format_series,
    format_speedup_table,
    format_table,
)
from .stats import (
    BreakdownRow,
    average_jct_speedup,
    fairness_satisfaction,
    jct_breakdown,
    jct_speedup_by_category,
    jct_speedup_by_demand_percentile,
    mean_confidence_interval,
    summarize_run,
)

__all__ = [
    "AggregateRow",
    "BreakdownRow",
    "CoSimAggregateRow",
    "TargetAggregate",
    "aggregate_cosim_rows",
    "aggregate_rows",
    "average_jct_speedup",
    "fairness_satisfaction",
    "format_cell",
    "format_series",
    "format_aggregates",
    "format_cosim_aggregates",
    "format_speedup_table",
    "format_table",
    "mean_confidence_interval",
    "metrics_row",
    "jct_breakdown",
    "jct_speedup_by_category",
    "jct_speedup_by_demand_percentile",
    "summarize_run",
]
