"""Tests for the cycle simulator: conservation, latency, flow control."""

import pytest

from repro.routing import MinimalRouting, RoutingTables, UGALRouting, ValiantRouting
from repro.routing.fattree_routing import ANCARouting
from repro.sim import SimConfig, SimEngine, simulate
from repro.sim.engine import ClosedLoopEngine
from repro.sim.engine_vec import VecEngine
from repro.sim.network import SimNetwork
from repro.topologies import FatTree3
from repro.traffic import FixedPermutation, UniformRandom
from repro.workloads.registry import make_placed_workload

QUICK = SimConfig(warmup_cycles=100, measure_cycles=300, drain_cycles=1500, seed=5)


class TestConfig:
    def test_paper_defaults(self):
        cfg = SimConfig()
        assert cfg.buffer_per_port == 64
        assert cfg.credit_delay == 2
        assert cfg.speedup == 2
        assert cfg.hop_latency == 4  # channel + SA + VC + crossbar

    def test_buffer_split(self):
        assert SimConfig(buffer_per_port=64, num_vcs=3).buffer_per_vc == 21
        assert SimConfig(buffer_per_port=2, num_vcs=4).buffer_per_vc == 1

    def test_with_vcs(self):
        cfg = SimConfig().with_vcs(5)
        assert cfg.num_vcs == 5
        assert cfg.buffer_per_port == 64


class TestNetworkState:
    def test_initial_credits(self, sf5):
        cfg = SimConfig(num_vcs=2, buffer_per_port=16)
        net = SimNetwork(sf5, cfg)
        # Flat layout: credits is the (num_channels, num_vcs) view.
        assert net.credits.shape == (net.num_channels, 2)
        assert (net.credits == 8).all()
        assert net.queue_length(0, sf5.adjacency[0][0]) == 0
        assert net.total_buffered() == 0

    def test_flat_channel_ids(self, sf5):
        net = SimNetwork(sf5, SimConfig())
        # Channel c runs (chan_src[c] -> chan_dst[c]); port_base slices
        # each router's outgoing channels in adjacency order.
        for r, nbrs in enumerate(sf5.adjacency):
            lo, hi = net.port_base_list[r], net.port_base_list[r + 1]
            assert net.chan_dst_list[lo:hi] == nbrs
            assert all(net.chan_src_list[c] == r for c in range(lo, hi))

    def test_arrival_buffers_flit_and_activates_router(self, sf5, sf5_tables):
        """An arrival event lands in the flat FIFO via the engine's
        wheel (the production delivery path) and activates the router."""
        eng = SimEngine(
            sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.0, QUICK
        )
        net = eng.net
        upstream = sf5.adjacency[3][0]
        chan = net.port_base_list[upstream] + net.port_index[upstream][3]
        b = chan * net.num_vcs
        eng._arr_wheel[eng.now % eng._arr_horizon].append((b, 3, object()))
        eng._pending_arrivals += 1
        eng._phase_arrivals()
        assert net.total_buffered() == 1
        assert 3 in net.active_routers
        assert eng._pending_arrivals == 0


class TestPacketDelivery:
    def test_all_packets_delivered_uniform(self, sf5, sf5_tables):
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.2, QUICK)
        assert res.injected > 0
        assert res.delivered == res.injected
        assert not res.saturated

    def test_latency_at_least_zero_load_path(self, sf5, sf5_tables):
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.05, QUICK)
        # 1-2 hops at 4 cycles/hop + eject: latency in [5, ~14] at near-zero load.
        assert 5.0 <= res.avg_latency <= 16.0

    def test_permutation_traffic(self, sf5, sf5_tables):
        n = sf5.num_endpoints
        perm = FixedPermutation({e: (e + 37) % n for e in range(n)})
        res = simulate(sf5, MinimalRouting(sf5_tables), perm, 0.2, QUICK)
        assert res.delivered == res.injected
        assert not res.saturated

    def test_accepted_tracks_offered_below_saturation(self, sf5, sf5_tables):
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.4, QUICK)
        assert res.accepted_load == pytest.approx(0.4, abs=0.05)

    def test_saturation_flag_at_overload(self, sf5, sf5_tables):
        res = simulate(
            sf5, ValiantRouting(sf5_tables, seed=1), UniformRandom(200), 0.9, QUICK
        )
        assert res.saturated
        assert res.accepted_load < 0.9

    def test_deterministic_given_seed(self, sf5, sf5_tables):
        a = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.3, QUICK)
        b = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.3, QUICK)
        assert a.avg_latency == b.avg_latency
        assert a.delivered == b.delivered

    def test_zero_load(self, sf5, sf5_tables):
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.0, QUICK)
        assert res.injected == 0
        assert res.delivered == 0


class TestVCHonouring:
    def test_engine_raises_vc_count_for_routing(self, sf5, sf5_tables):
        routing = ValiantRouting(sf5_tables, seed=0)  # needs 4 VCs
        eng = SimEngine(sf5, routing, UniformRandom(200), 0.1,
                        SimConfig(num_vcs=2, warmup_cycles=50, measure_cycles=100))
        assert eng.config.num_vcs == routing.num_vcs

    def test_engine_keeps_larger_config(self, sf5, sf5_tables):
        routing = MinimalRouting(sf5_tables)  # needs 2
        eng = SimEngine(sf5, routing, UniformRandom(200), 0.1,
                        SimConfig(num_vcs=3, warmup_cycles=50, measure_cycles=100))
        assert eng.config.num_vcs == 3


class TestBackpressure:
    def test_tiny_buffers_still_deliver(self, sf5, sf5_tables):
        cfg = SimConfig(
            buffer_per_port=4, num_vcs=2,
            warmup_cycles=100, measure_cycles=200, drain_cycles=3000, seed=2,
        )
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.15, cfg)
        assert res.delivered == res.injected

    def test_buffer_size_tradeoff_matches_fig8a(self, sf5, sf5_tables):
        """§V-D: smaller buffers -> lower latency (stiff backpressure) at
        sustainable loads, but bigger buffers enable higher bandwidth."""
        results = {}
        for buf in (8, 256):
            cfg = SimConfig(
                buffer_per_port=buf, warmup_cycles=150, measure_cycles=400,
                drain_cycles=3000, seed=2,
            )
            results[buf] = {
                load: simulate(
                    sf5, MinimalRouting(sf5_tables), UniformRandom(200), load, cfg
                )
                for load in (0.3, 0.8)
            }
        # At a load both sustain, both deliver everything at sane latency
        # (credit stalls make tiny buffers a bit slower at LOW load; the
        # paper's lower-latency effect appears near saturation and is
        # checked by the fig8a experiment's shape note).
        for buf in (8, 256):
            assert results[buf][0.3].delivered == results[buf][0.3].injected
            assert results[buf][0.3].avg_latency < 60
        # Big buffers accept at least as much traffic at high load.
        assert results[256][0.8].accepted_load >= results[8][0.8].accepted_load - 1e-9


class TestSweep:
    def test_latency_monotone_in_load(self, sf5, sf5_tables):
        from repro.sim.sweep import latency_vs_load

        pts = latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), UniformRandom(200),
            loads=[0.1, 0.4, 0.7], config=QUICK,
        )
        lats = [p.latency for p in pts if p.latency is not None]
        assert lats == sorted(lats)

    def test_saturation_short_circuit(self, sf5, sf5_tables):
        from repro.sim.sweep import find_saturation_load, latency_vs_load

        pts = latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), UniformRandom(200),
            loads=[0.3, 0.6, 0.8, 0.9], config=QUICK, stop_after_saturation=1,
        )
        sat = find_saturation_load(pts)
        assert sat is not None and sat <= 0.8
        # Points after the first saturated one are marked, not simulated.
        tail = [p for p in pts if p.load > sat]
        assert all(p.saturated for p in tail)


class TestLatencyBreakdown:
    def test_queue_vs_network_split(self, sf5, sf5_tables):
        """Source queueing is near zero at low load; network latency
        carries the pipeline cost."""
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.05, QUICK)
        assert res.avg_queue_latency < 1.0
        assert res.avg_network_latency == pytest.approx(
            res.avg_latency - res.avg_queue_latency
        )
        assert res.avg_network_latency >= 5.0

    def test_queueing_grows_near_saturation(self, sf5, sf5_tables):
        low = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.1, QUICK)
        high = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.85, QUICK)
        assert high.avg_queue_latency > low.avg_queue_latency


class TestQueueViews:
    """The queue views planners read equal the engine's live state."""

    SHORT = SimConfig(warmup_cycles=10, measure_cycles=20, drain_cycles=300, seed=3)

    @staticmethod
    def _checked_plans(routing, engine, peaks):
        """Check every plan call's view against ``net.queue_length``."""
        plan = routing.plan
        net = engine.net
        channels = [
            (u, v) for u, nbrs in enumerate(engine.topology.adjacency) for v in nbrs
        ]

        def checked(src, dst, view):
            live = [net.queue_length(u, v) for u, v in channels]
            assert [view.queue_length(u, v) for u, v in channels] == live
            peaks.append(max(live))
            return plan(src, dst, view)

        routing.plan = checked

    def test_flat_open_loop_snapshot(self, sf5, sf5_tables):
        routing = UGALRouting(sf5_tables, "global", seed=3)
        engine = SimEngine(
            sf5, routing, UniformRandom(sf5.num_endpoints), 0.5, self.SHORT
        )
        peaks = []
        self._checked_plans(routing, engine, peaks)
        engine.run()
        assert len(peaks) > 1000 and max(peaks) > 0

    # An alltoall posts every send at cycle 0, into an empty network; a
    # ring allreduce plans each step while earlier steps are in flight.
    @pytest.mark.parametrize("kind", ["alltoall", "ring-allreduce"])
    def test_flat_closed_loop_snapshot(self, sf5, sf5_tables, kind):
        routing = UGALRouting(sf5_tables, "global", seed=3)
        workload = make_placed_workload(kind, sf5, 16, size_flits=8)
        engine = ClosedLoopEngine(sf5, routing, workload, self.SHORT)
        peaks = []
        self._checked_plans(routing, engine, peaks)
        result = engine.run()
        assert result.finished and len(peaks) >= 480
        assert max(peaks) > 0 or kind == "alltoall"

    def test_vec_anca_live_view(self):
        topo = FatTree3(6)
        routing = ANCARouting(topo, seed=0)
        next_hop = routing.next_hop
        calls = []

        def checked(at, dst, packet, view):
            calls.append(at)
            if len(calls) % 500 == 0:
                # Mid-scan: grants earlier in this cycle already moved
                # credits and stage lengths.
                V, cap = engine.num_vcs, engine._cap
                credits = engine.credits.reshape(engine.num_channels, V)
                expected = engine._stage_len + cap * V - credits.sum(axis=1)
                got = [
                    view.queue_length(u, v)
                    for u, v in zip(engine._chan_src.tolist(), engine._chan_dst.tolist())
                ]
                assert got == expected.tolist()
                assert max(got) > 0
            return next_hop(at, dst, packet, view)

        routing.next_hop = checked
        engine = VecEngine(
            topo, routing, UniformRandom(topo.num_endpoints), 0.5, self.SHORT
        )
        engine.run()
        assert len(calls) >= 2000
