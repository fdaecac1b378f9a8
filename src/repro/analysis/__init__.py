"""Structural and resiliency analysis (paper §III).

- :mod:`repro.analysis.distance` — diameter and average shortest-path
  distance (§III-A, §III-B, Fig 1, Table II).
- :mod:`repro.analysis.bisection` — bisection bandwidth via spectral +
  Kernighan–Lin partitioning, the METIS substitute (§III-C, Fig 5c).
- :mod:`repro.analysis.connectivity` — fast connectivity predicates on
  adjacency structures.
- :mod:`repro.analysis.resiliency` — Monte-Carlo link-failure studies:
  disconnection (Table III), diameter increase (§III-D2), average path
  length increase (§III-D3).
- :mod:`repro.analysis.channel_load` — fluid traffic-matrix channel
  loads (generalises §II-B2; predicts worst-case saturation bounds).
- :mod:`repro.analysis.paths` — path diversity, edge-disjoint paths,
  spectral gap (the §III-D/§IX expander arguments).
- :mod:`repro.analysis.faults` — fault injection: degraded topologies
  and reroute reports.

Plus the reporting pipeline (DESIGN.md, Layer 6) that turns campaign
output back into the paper's deliverables:

- :mod:`repro.analysis.frames` — campaign JSONL -> tidy, schema-checked
  row tables with group/aggregate helpers (mean ± CI, saturation-point
  detection).
- :mod:`repro.analysis.claims` — the paper's qualitative results as
  one table of claims, each judged reproduced, not reproduced,
  inconclusive or untested over rows or experiment results.
- :mod:`repro.analysis.figures` — figure renderers for the paper's
  families: byte-deterministic builtin SVG backend, optional matplotlib
  PNG backend.
- :mod:`repro.analysis.report` — campaign files + analytic experiments
  -> ``REPORT.md`` with the claims' verdicts, embedded figures and
  per-figure provenance (``python -m repro.experiments report``).
"""

from repro.analysis.distance import (
    bfs_distances,
    diameter_and_average_distance,
    average_distance,
    diameter,
    distance_matrix,
)
from repro.analysis.bisection import bisection_bandwidth, spectral_bisection
from repro.analysis.connectivity import is_connected, largest_component_fraction
from repro.analysis.resiliency import (
    disconnection_resiliency,
    diameter_resiliency,
    pathlength_resiliency,
    ResiliencyResult,
)
from repro.analysis.channel_load import (
    channel_loads,
    saturation_throughput,
    uniform_demands,
    permutation_demands,
)
from repro.analysis.paths import (
    edge_disjoint_paths,
    min_edge_connectivity,
    shortest_path_diversity,
    spectral_gap,
)
from repro.analysis.faults import (
    DegradedTopology,
    fail_random_links,
    fail_router_links,
    degraded_routing_report,
)
from repro.analysis.frames import (
    Curve,
    RowTable,
    mean_ci,
    provenance,
    saturation_point,
    summarize,
)
from repro.analysis.figures import (
    BarFigure,
    GroupedBarFigure,
    HAVE_MATPLOTLIB,
    LineFigure,
    LineSeries,
    save_figure,
)
from repro.analysis.report import (
    FigureArtifact,
    ReportResult,
    build_report,
    default_campaigns,
)

__all__ = [
    "BarFigure",
    "Curve",
    "FigureArtifact",
    "GroupedBarFigure",
    "HAVE_MATPLOTLIB",
    "LineFigure",
    "LineSeries",
    "ReportResult",
    "RowTable",
    "build_report",
    "default_campaigns",
    "mean_ci",
    "provenance",
    "saturation_point",
    "save_figure",
    "summarize",
    "channel_loads",
    "saturation_throughput",
    "uniform_demands",
    "permutation_demands",
    "edge_disjoint_paths",
    "min_edge_connectivity",
    "shortest_path_diversity",
    "spectral_gap",
    "DegradedTopology",
    "fail_random_links",
    "fail_router_links",
    "degraded_routing_report",
    "bfs_distances",
    "diameter_and_average_distance",
    "average_distance",
    "diameter",
    "distance_matrix",
    "bisection_bandwidth",
    "spectral_bisection",
    "is_connected",
    "largest_component_fraction",
    "disconnection_resiliency",
    "diameter_resiliency",
    "pathlength_resiliency",
    "ResiliencyResult",
]
