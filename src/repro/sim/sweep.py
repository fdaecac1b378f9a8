"""Latency-vs-offered-load curves (the x-axes of Figs 6 and 8).

:func:`latency_vs_load` is the serial entry point of the one load-sweep
walk, :func:`repro.sim.parallel.parallel_latency_vs_load`: past
saturation the open-loop latency diverges, so once a point saturates
the walk marks the remaining loads saturated instead of burning cycles
on them (``stop_after_saturation``).  The helpers below read
statistics off the resulting :class:`~repro.sim.stats.LoadPoint` rows.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.sim.config import SimConfig
from repro.sim.parallel import default_loads, parallel_latency_vs_load
from repro.sim.stats import LoadPoint

__all__ = [
    "default_loads", "find_saturation_load", "latency_vs_load", "max_accepted",
]


def latency_vs_load(
    topology,
    routing_factory: Callable[[], object],
    traffic,
    loads: Sequence[float] | None = None,
    config: SimConfig | None = None,
    stop_after_saturation: int = 1,
) -> list[LoadPoint]:
    """Simulate each offered load on the cycle engine, in-process.

    ``routing_factory`` builds a fresh routing instance per load so
    stateful RNG streams do not leak between runs (determinism per
    point).  ``stop_after_saturation`` counts how many consecutive
    saturated points to simulate before short-circuiting the rest.
    """
    return parallel_latency_vs_load(
        topology, routing_factory, traffic, loads, config, workers=1,
        stop_after_saturation=stop_after_saturation,
    )


def find_saturation_load(points: list[LoadPoint]) -> float | None:
    """First offered load marked saturated, or None if never saturated.

    This is the "accepted bandwidth" statistic of §V-E (the offered
    uniform load that saturates the network).
    """
    for pt in points:
        if pt.saturated:
            return pt.load
    return None


def max_accepted(points: list[LoadPoint]) -> float:
    """Largest accepted throughput seen along the curve."""
    vals = [pt.accepted for pt in points if pt.accepted is not None]
    return max(vals) if vals else 0.0
