"""Tests for the §VII extensions, path diversity, faults, and the
analytical model."""

import pytest

from repro.analysis.distance import diameter_and_average_distance
from repro.analysis.faults import (
    DegradedTopology,
    degraded_routing_report,
    fail_random_links,
    fail_router_links,
)
from repro.analysis.paths import (
    edge_disjoint_paths,
    min_edge_connectivity,
    shortest_path_diversity,
    spectral_gap,
    two_hop_diversity,
)
from repro.core.analytical import (
    estimate,
    slimfly_channel_load_at,
    uniform_saturation_load,
    valiant_saturation_load,
    zero_load_latency,
)
from repro.topologies import Dragonfly, SlimFly
from repro.topologies.augmented import AugmentedSlimFly
from repro.topologies.sf_dragonfly import SlimFlyGroupedDragonfly


class TestAugmentedSlimFly:
    def test_radix_grows(self):
        aug = AugmentedSlimFly(5, extra_ports=2, seed=0)
        base = SlimFly.from_q(5)
        assert aug.network_radix == base.network_radix + 2
        assert aug.num_endpoints == base.num_endpoints

    def test_latency_improves_or_holds(self):
        """§VII-A: random channels should improve average distance."""
        aug = AugmentedSlimFly(5, extra_ports=2, seed=0)
        base = SlimFly.from_q(5)
        assert aug.average_distance() <= base.average_distance()

    def test_intra_rack_only(self):
        from repro.layout.racks import slimfly_racks

        aug = AugmentedSlimFly(5, extra_ports=1, intra_rack_only=True, seed=0)
        base = SlimFly.from_q(5)
        racks = slimfly_racks(base)
        base_edges = set(base.edges())
        for u, v in set(aug.edges()) - base_edges:
            assert racks.rack_of[u] == racks.rack_of[v]

    def test_deterministic(self):
        a = AugmentedSlimFly(5, extra_ports=2, seed=7)
        b = AugmentedSlimFly(5, extra_ports=2, seed=7)
        assert a.adjacency == b.adjacency


class TestSFGroupedDragonfly:
    def test_structure(self):
        net = SlimFlyGroupedDragonfly(3, num_groups=4, global_width=2)
        assert net.num_routers == 4 * 18
        d, _ = diameter_and_average_distance(net.adjacency)
        assert d <= net.analytic_diameter_bound()

    def test_group_of(self):
        net = SlimFlyGroupedDragonfly(3, num_groups=3)
        assert net.group_of(0) == 0
        assert net.group_of(net.group_size) == 1

    def test_cable_saving_vs_clique_groups(self):
        """§VII-B: MMS groups use ≈50% fewer local cables than cliques."""
        net = SlimFlyGroupedDragonfly(5, num_groups=3)
        assert net.intra_group_cables() < 0.2 * net.dragonfly_equivalent_local_cables()

    def test_rejects_single_group(self):
        with pytest.raises(ValueError):
            SlimFlyGroupedDragonfly(3, num_groups=1)


class TestPathDiversity:
    def test_moore_graph_unique_min_paths(self, sf5, sf5_tables):
        assert shortest_path_diversity(sf5_tables, pairs=100, seed=0) == pytest.approx(
            1.0
        )

    def test_edge_disjoint_paths_regular(self, sf5):
        """k'-regular expander: k' edge-disjoint paths between any pair."""
        assert edge_disjoint_paths(sf5.adjacency, 0, 27) == sf5.network_radix

    def test_edge_disjoint_rejects_same(self, sf5):
        with pytest.raises(ValueError):
            edge_disjoint_paths(sf5.adjacency, 3, 3)

    def test_min_edge_connectivity(self, sf5):
        assert min_edge_connectivity(sf5.adjacency, samples=10, seed=0) == 7

    def test_edge_connectivity_attains_degree(self, sf5, df3):
        """Both SF and DF attain their minimum degree — the resiliency
        difference in §III-D is about *relative* redundancy (SF keeps
        full connectivity with far fewer cables), not raw connectivity."""
        assert min_edge_connectivity(sf5.adjacency, samples=10, seed=0) == 7
        df_conn = min_edge_connectivity(df3.adjacency, samples=10, seed=0)
        df_min_degree = min(len(n) for n in df3.adjacency)
        assert df_conn <= df_min_degree
        assert two_hop_diversity(sf5.adjacency) >= 0.0

    def test_spectral_gap_positive(self, sf5):
        gap = spectral_gap(sf5.adjacency)
        # Hoffman–Singleton: eigenvalues 7, 2, −3 -> gap 5.
        assert gap == pytest.approx(5.0, abs=1e-6)


class TestFaults:
    def test_fail_random_links(self, sf5):
        deg = fail_random_links(sf5, 0.1, seed=0)
        assert deg.base is sf5
        assert len(deg.failed_links) == round(0.1 * sf5.num_links)
        assert deg.num_links == sf5.num_links - len(deg.failed_links)
        assert deg.failure_fraction == pytest.approx(0.1, abs=0.01)

    def test_fail_router_links(self, sf5):
        deg = fail_router_links(sf5, 0)
        assert deg.adjacency[0] == []
        assert len(deg.failed_links) == 7

    def test_rejects_nonexistent_link(self, sf5):
        not_edge = None
        adj0 = set(sf5.adjacency[0])
        for v in range(1, sf5.num_routers):
            if v not in adj0:
                not_edge = (0, v)
                break
        with pytest.raises(ValueError):
            DegradedTopology(sf5, {not_edge})

    def test_degraded_report(self, sf5):
        report = degraded_routing_report(sf5, 0.1, seed=0)
        assert report["connected"]
        assert report["diameter"] >= 2
        assert report["dfsssp_vcs"] >= 1

    def test_rejects_total_failure(self, sf5):
        with pytest.raises(ValueError):
            fail_random_links(sf5, 1.0, seed=0)


class TestAnalyticalModel:
    def test_zero_load_latency(self):
        # 2 hops × 4 cycles (channel, SA, VC, crossbar) + 1 cycle for
        # the 1-flit packet = 9.
        assert zero_load_latency(2.0) == pytest.approx(9.0)

    def test_estimate_matches_simulation_zero_load(self, sf5, sf5_tables):
        from repro.routing import MinimalRouting
        from repro.sim import SimConfig, simulate
        from repro.traffic import UniformRandom

        est = estimate(sf5, "min")
        # Endpoint pairs: 3 same-router, 28 one hop, 168 two hops of 199.
        assert est.average_hops == pytest.approx(364 / 199)
        assert est.zero_load_latency_cycles == pytest.approx(4 * 364 / 199 + 1)
        cfg = SimConfig(warmup_cycles=150, measure_cycles=300, drain_cycles=1200)
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.05, cfg)
        assert res.avg_latency == pytest.approx(est.zero_load_latency_cycles, rel=0.02)

    def test_saturation_ordering(self, sf5):
        # One hop average throughout: the defaults agree with estimate().
        assert uniform_saturation_load(sf5) == estimate(sf5, "min").saturation_load
        assert valiant_saturation_load(sf5) == estimate(sf5, "val").saturation_load
        assert valiant_saturation_load(sf5) < uniform_saturation_load(sf5)

    def test_sf_balanced_saturation_near_90pct(self):
        sf = SlimFly.from_q(19)
        # avoid the expensive exact average distance: analytic ~1.96
        sat = uniform_saturation_load(sf, average_hops=1.96)
        assert 0.8 <= sat <= 1.0  # paper: accepted ~87.5%

    def test_channel_load_wrapper(self):
        assert slimfly_channel_load_at(19, 15) == pytest.approx(
            (2 * 722 - 29 - 2) * 225 / 29
        )

    def test_estimate_rejects_unknown(self, sf5):
        with pytest.raises(ValueError):
            estimate(sf5, "teleport")
