"""Metrics and experiment-series generators.

:mod:`repro.analysis.experiments` regenerates the paper's Figure 3 (average
parallel read accesses) and Figure 4 (average recovery speed) series and the
Sec. V/VI aggregate improvement numbers.
"""

from repro.analysis.metrics import (
    improvement_percent,
    load_balance_ratio,
    parallel_read_accesses,
)
from repro.analysis.experiments import (
    FIGURE_ALGORITHMS,
    FIGURE_DISK_RANGE,
    SchemeCache,
    aggregate_improvements,
    figure3_series,
    figure4_series,
)
from repro.analysis.ascii_plot import ascii_plot
from repro.analysis.export import (
    read_series_csv,
    series_to_csv,
    write_series_csv,
)
from repro.analysis.loadmap import (
    balance_summary,
    load_matrix,
    load_matrix_for_algorithm,
    render_load_map,
)
from repro.analysis.tables import render_improvement_summary, render_series_table
from repro.analysis.theory import (
    evenodd_naive_reads,
    evenodd_optimal_reads,
    rdp_balanced_max_load,
    rdp_naive_reads,
    rdp_optimal_reads,
)

__all__ = [
    "FIGURE_ALGORITHMS",
    "FIGURE_DISK_RANGE",
    "SchemeCache",
    "ascii_plot",
    "balance_summary",
    "load_matrix",
    "load_matrix_for_algorithm",
    "render_load_map",
    "evenodd_naive_reads",
    "evenodd_optimal_reads",
    "rdp_balanced_max_load",
    "rdp_naive_reads",
    "rdp_optimal_reads",
    "read_series_csv",
    "render_improvement_summary",
    "series_to_csv",
    "write_series_csv",
    "aggregate_improvements",
    "figure3_series",
    "figure4_series",
    "improvement_percent",
    "load_balance_ratio",
    "parallel_read_accesses",
    "render_series_table",
]
