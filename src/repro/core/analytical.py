"""Analytical performance model: closed-form latency/throughput estimates.

The paper's simulations are backed by simple queueing-free reasoning:
zero-load latency follows hop counts; saturation throughput follows
channel load (§II-B2).  This module packages those estimates so users
can sanity-check simulator output and sweep design spaces without
simulating — the same role the paper's balanced-concentration algebra
plays.

All estimates are *idealised* (no contention below saturation, perfect
load balance at it); the test-suite cross-validates them against the
cycle simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.balance import channel_load
from repro.sim.config import SimConfig
from repro.topologies.base import Topology


@dataclass(frozen=True)
class PerformanceEstimate:
    """Closed-form predictions for one (topology, routing) pair."""

    zero_load_latency_cycles: float
    saturation_load: float
    average_hops: float


def zero_load_latency(
    average_hops: float, config: SimConfig | None = None
) -> float:
    """Cycles from injection to tail-flit ejection with no contention:
    ``hop_latency`` per router hop plus ``packet_length`` for the flits
    to follow the head.  ``average_hops`` is the mean over endpoint
    pairs, same-router pairs (0 hops) included, as :func:`estimate`
    computes it."""
    cfg = config or SimConfig()
    return average_hops * cfg.hop_latency + cfg.packet_length


def _endpoint_hops(topology: Topology) -> float:
    """Mean router hops between two distinct uniform-random endpoints
    (0 on one router; routers without endpoints carry no weight)."""
    import numpy as np

    from repro.analysis.distance import distance_matrix

    weight = np.bincount(topology.endpoint_map, minlength=topology.num_routers)
    n = topology.num_endpoints
    return float(weight @ distance_matrix(topology.adjacency) @ weight) / (n * (n - 1))


def uniform_saturation_load(topology: Topology, average_hops: float | None = None) -> float:
    """Uniform-traffic saturation estimate for minimal routing.

    Channel-load argument (§II-B2): each endpoint at rate r generates
    ``r · h̄`` channel traversals spread over k'·N_r directed channels;
    saturation when the average channel hits 1 flit/cycle:

        r_sat = k' · N_r / (h̄ · p · N_r) = k' / (h̄ · p)

    capped at 1.0 (injection line rate).  ``h̄`` defaults to the mean
    over endpoint pairs, as in :func:`estimate`.  For a balanced Slim
    Fly this lands at ≈0.9 — matching the measured ~87.5% (§V-E)
    within the idealisation error.
    """
    p = topology.concentration
    if p == 0:
        return 1.0
    if average_hops is None:
        average_hops = _endpoint_hops(topology)
    return min(1.0, topology.network_radix / (average_hops * p))


def valiant_saturation_load(topology: Topology) -> float:
    """VAL doubles expected path length: ≈ half the minimal saturation."""
    return uniform_saturation_load(topology, average_hops=2 * _endpoint_hops(topology))


def estimate(topology: Topology, routing: str = "min", config: SimConfig | None = None) -> PerformanceEstimate:
    """Bundle the closed-form numbers for MIN or VAL routing, with hops
    averaged over the endpoint pairs uniform traffic draws (VAL's two
    legs double them)."""
    if routing not in ("min", "val"):
        raise ValueError(f"routing must be 'min' or 'val', got {routing!r}")
    hops = _endpoint_hops(topology) * (2 if routing == "val" else 1)
    sat = uniform_saturation_load(topology, average_hops=hops)
    return PerformanceEstimate(
        zero_load_latency_cycles=zero_load_latency(hops, config),
        saturation_load=sat,
        average_hops=hops,
    )


def slimfly_channel_load_at(q: int, concentration: int) -> float:
    """The §II-B2 channel-load l for a given SF configuration."""
    from repro.core.mms import MMSParams

    params = MMSParams.from_q(q)
    return channel_load(params.num_routers, params.network_radix, concentration)
