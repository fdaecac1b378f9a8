"""Tests for the bisection partitioner and resiliency Monte-Carlo sweeps."""

import numpy as np
import pytest

from repro.analysis.bisection import bisection_bandwidth, spectral_bisection
from repro.analysis.connectivity import (
    is_connected,
    largest_component_fraction,
)
from repro.analysis.resiliency import (
    default_fractions,
    diameter_resiliency,
    disconnection_resiliency,
    pathlength_resiliency,
    samples_for_ci,
)
from repro.topologies import Hypercube, SlimFly


class TestConnectivity:
    def test_connected_ring(self):
        edges = np.array([[i, (i + 1) % 6] for i in range(6)])
        assert is_connected(6, edges)

    def test_disconnected(self):
        edges = np.array([[0, 1], [2, 3]])
        assert not is_connected(4, edges)
        assert largest_component_fraction(4, edges) == 0.5

    def test_no_edges(self):
        assert not is_connected(3, np.empty((0, 2), dtype=int))
        assert is_connected(1, np.empty((0, 2), dtype=int))


class TestBisection:
    def test_balanced_split(self):
        hc = Hypercube(5)
        side, cut = spectral_bisection(hc.adjacency, seed=0)
        assert abs(side.sum() - len(side) / 2) <= 1

    def test_hypercube_optimal_cut(self):
        """HC bisection is exactly N/2 links; heuristic must find it."""
        hc = Hypercube(5)
        bb = bisection_bandwidth(hc.adjacency, link_bandwidth_gbps=1.0, seed=0)
        assert bb == pytest.approx(hc.num_routers / 2)

    def test_complete_bipartite_like(self):
        # Two cliques joined by one edge: minimum bisection = 1.
        k = 6
        adj = [[] for _ in range(2 * k)]
        for side in (0, k):
            for i in range(k):
                for j in range(i + 1, k):
                    adj[side + i].append(side + j)
                    adj[side + j].append(side + i)
        adj[0].append(k)
        adj[k].append(0)
        bb = bisection_bandwidth(adj, link_bandwidth_gbps=1.0, tries=3, seed=0)
        assert bb == pytest.approx(1.0)

    def test_slimfly_bisection_band(self, sf5, sf7):
        """SF q=5 and q=7 cuts should be high (expander-like), well above
        N/4 links."""
        for sf, tries in ((sf5, 2), (sf7, 1)):
            bb = bisection_bandwidth(sf.adjacency, link_bandwidth_gbps=1.0,
                                     tries=tries, seed=0)
            assert bb >= sf.num_endpoints / 4


class TestResiliency:
    def test_fractions_default(self):
        fr = default_fractions()
        assert fr[0] == pytest.approx(0.05)
        assert fr[-1] == pytest.approx(0.95)
        assert len(fr) == 19

    def test_samples_for_ci_paper(self):
        assert samples_for_ci(width=2) >= 9000  # ≈ 9604

    def test_disconnection_monotone_trend(self, sf5):
        res = disconnection_resiliency(
            sf5.adjacency, fractions=[0.1, 0.5, 0.9], samples=10, seed=0
        )
        assert res.survival_probability[0] >= res.survival_probability[-1]
        assert res.metric == "disconnection"

    def test_disconnection_extremes(self, sf5):
        res = disconnection_resiliency(
            sf5.adjacency, fractions=[0.05, 0.95], samples=8, seed=1
        )
        assert res.survival_probability[0] == 1.0  # k'=7-regular survives 5%
        assert res.survival_probability[1] == 0.0  # 95% removal kills it

    def test_diameter_resiliency(self, sf5):
        res = diameter_resiliency(
            sf5.adjacency, max_increase=2, fractions=[0.05, 0.8], samples=5, seed=0
        )
        assert res.survival_probability[0] >= res.survival_probability[1]

    def test_pathlength_resiliency(self, sf5):
        res = pathlength_resiliency(
            sf5.adjacency, max_increase=1.0, fractions=[0.05, 0.8], samples=5, seed=0
        )
        assert res.survival_probability[0] == 1.0

    def test_summary_threshold(self):
        from repro.analysis.resiliency import ResiliencyResult

        r = ResiliencyResult("x", [0.1, 0.2, 0.3], [1.0, 0.6, 0.2], 10)
        assert r.summarise(threshold=0.5) == pytest.approx(0.2)
        assert r.summarise(threshold=0.9) == pytest.approx(0.1)

    def test_deterministic_with_seed(self, sf5):
        a = disconnection_resiliency(sf5.adjacency, fractions=[0.5], samples=6, seed=3)
        b = disconnection_resiliency(sf5.adjacency, fractions=[0.5], samples=6, seed=3)
        assert a.survival_probability == b.survival_probability
