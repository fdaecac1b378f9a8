"""Tests for routing tables, MIN/VAL/UGAL, DF and FT protocols."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.faults import apply_fault
from repro.routing import (
    ANCARouting,
    DragonflyMinimal,
    DragonflyUGAL,
    MinimalRouting,
    RoutingTables,
    UGALRouting,
    ValiantRouting,
)
from repro.topologies import Dragonfly, FatTree3, SlimFly
from repro.topologies.fattree import AGG, CORE, EDGE


class FakeNetwork:
    """Minimal queue-length oracle for UGAL decisions outside the sim."""

    def __init__(self, lengths=None, default=0):
        self.lengths = lengths or {}
        self.default = default

    def queue_length(self, u, v):
        return self.lengths.get((u, v), self.default)


class TestTables:
    def test_distance_symmetry(self, sf5_tables):
        t = sf5_tables
        assert (t.dist == t.dist.T).all()
        assert (t.dist.diagonal() == 0).all()

    def test_sf_max_distance_two(self, sf5_tables, sf7):
        assert sf5_tables.diameter() == 2
        assert RoutingTables(sf7.adjacency).diameter() == 2

    def test_next_hop_candidates_shrink_distance(self, sf5_tables):
        t = sf5_tables
        for src in range(0, 50, 7):
            for dst in range(0, 50, 11):
                if src == dst:
                    continue
                for cand in t.next_hop_candidates(src, dst):
                    assert t.distance(cand, dst) == t.distance(src, dst) - 1

    def test_min_path_is_shortest(self, sf5_tables):
        t = sf5_tables
        for src in range(0, 50, 5):
            for dst in range(0, 50, 13):
                path = t.min_path(src, dst)
                assert len(path) - 1 == t.distance(src, dst)
                assert path[0] == src and path[-1] == dst

    def test_min_path_deterministic(self, sf5_tables):
        assert sf5_tables.min_path(0, 37) == sf5_tables.min_path(0, 37)

    def test_count_min_paths_unique_in_moore_graph(self, sf5_tables):
        """Hoffman–Singleton: exactly one shortest path between any pair."""
        t = sf5_tables
        for src in range(0, 50, 3):
            for dst in range(50):
                if src != dst:
                    assert t.count_min_paths(src, dst) == 1

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            RoutingTables([[1], [0], []])

    def test_average_distance(self, sf5_tables, sf5):
        assert sf5_tables.average_distance() == pytest.approx(
            sf5.average_distance(), rel=1e-6
        )


class TestMinimal:
    def test_plan_matches_tables(self, sf5_tables):
        r = MinimalRouting(sf5_tables)
        assert r.plan(0, 42, None) == sf5_tables.min_path(0, 42)
        assert r.num_vcs == 2  # SF diameter

    def test_source_routed_flag(self, sf5_tables):
        r = MinimalRouting(sf5_tables)
        assert r.source_routed
        with pytest.raises(NotImplementedError):
            r.next_hop(0, 1, None, None)


class TestValiant:
    def test_paths_valid_and_bounded(self, sf5_tables):
        r = ValiantRouting(sf5_tables, seed=0)
        for dst in range(1, 50, 7):
            path = r.plan(0, dst, None)
            assert path[0] == 0 and path[-1] == dst
            # SF: VAL paths have 2..4 hops.
            assert 1 <= len(path) - 1 <= 4
            for u, v in zip(path, path[1:]):
                assert v in sf5_tables.adjacency[u]

    def test_max_hops_constraint(self, sf5_tables):
        r = ValiantRouting(sf5_tables, seed=0, max_hops=3)
        for dst in range(1, 50, 5):
            assert len(r.plan(0, dst, None)) - 1 <= 3

    def test_stitch_validates(self):
        assert stitch([1, 2], [2, 3]) == [1, 2, 3]
        with pytest.raises(ValueError):
            stitch([1, 2], [5, 3])

    def test_self_path(self, sf5_tables):
        r = ValiantRouting(sf5_tables, seed=0)
        assert r.plan(4, 4, None) == [4]

    def test_randomised_intermediates(self, sf5_tables):
        r = ValiantRouting(sf5_tables, seed=0)
        mids = {tuple(r.plan(0, 30, None)) for _ in range(20)}
        assert len(mids) > 3  # genuinely random path choices


class TestUGAL:
    def test_empty_network_prefers_min(self, sf5_tables):
        r = UGALRouting(sf5_tables, "local", seed=0)
        net = FakeNetwork(default=0)
        for dst in range(1, 50, 9):
            path = r.plan(0, dst, net)
            assert len(path) - 1 == sf5_tables.distance(0, dst)

    def test_congested_min_port_diverts(self, sf5_tables):
        r = UGALRouting(sf5_tables, "local", seed=1)
        dst = 37
        min_path = sf5_tables.min_path(0, dst)
        # Saturate the local queue toward the minimal first hop.
        net = FakeNetwork({(0, min_path[1]): 500}, default=0)
        path = r.plan(0, dst, net)
        assert path[1] != min_path[1], "UGAL-L should avoid the hot output"

    def test_global_mode_uses_whole_path(self, sf5_tables):
        r = UGALRouting(sf5_tables, "global", seed=2)
        dst = 42
        min_path = sf5_tables.min_path(0, dst)
        # Congest a *downstream* link of the min path: UGAL-G sees it,
        # UGAL-L does not.
        hot = {(min_path[-2], min_path[-1]): 500}
        g_path = r.plan(0, dst, FakeNetwork(hot))
        assert g_path[-2] != min_path[-2] or len(g_path) != len(min_path)

    def test_mode_validation(self, sf5_tables):
        with pytest.raises(ValueError):
            UGALRouting(sf5_tables, "sideways")


class TestPlannerParameters:
    """Parameters a planner cannot use fail at construction, naming the
    parameter, instead of inside the engine or by silently routing MIN."""

    def test_valiant_max_resample(self, sf5_tables):
        with pytest.raises(ValueError, match="max_resample"):
            ValiantRouting(sf5_tables, seed=0, max_resample=0)

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_ugal_num_candidates(self, sf5_tables, mode):
        with pytest.raises(ValueError, match="num_candidates"):
            UGALRouting(sf5_tables, mode, num_candidates=-1, seed=0)

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_dragonfly_ugal_num_candidates(self, df3, mode):
        tables = RoutingTables(df3.adjacency)
        with pytest.raises(ValueError, match="num_candidates"):
            DragonflyUGAL(df3, tables, num_candidates=-1, mode=mode, seed=0)

    def test_zero_candidates_route_minimally(self, sf5_tables):
        r = UGALRouting(sf5_tables, "local", num_candidates=0, seed=0)
        before = r.rng.bit_generator.state
        assert r.plan(0, 23, FakeNetwork()) == sf5_tables.min_path(0, 23)
        assert r.rng.bit_generator.state == before

    def test_val_spec_fails_before_simulating(self):
        from repro.scenarios import RoutingSpec, Scenario, TopologySpec, TrafficSpec, resolve
        from repro.sim.config import SimConfig

        scenario = Scenario(
            topology=TopologySpec("SF", params={"q": 5}),
            routing=RoutingSpec("val", {"seed": 0, "max_resample": 0}),
            sim=SimConfig(warmup_cycles=10, measure_cycles=10, drain_cycles=50),
            traffic=TrafficSpec("uniform"),
            loads=[0.1],
        )
        with pytest.raises(ValueError, match="max_resample"):
            resolve(scenario).routing_factory()


class TestDragonflyRouting:
    def test_minimal_lgl(self, df3):
        tables = RoutingTables(df3.adjacency)
        r = DragonflyMinimal(df3, tables)
        for src in range(0, df3.num_routers, 13):
            for dst in range(0, df3.num_routers, 17):
                if src == dst:
                    continue
                path = r.plan(src, dst, None)
                # Canonical DF minimal: at most local-global-local.
                assert len(path) - 1 <= 3
                for u, v in zip(path, path[1:]):
                    assert v in df3.adjacency[u]
                groups = [df3.group_of(x) for x in path]
                changes = sum(1 for a, b in zip(groups, groups[1:]) if a != b)
                assert changes == (0 if groups[0] == groups[-1] else 1)

    def test_valiant_goes_through_third_group(self, df3):
        tables = RoutingTables(df3.adjacency)
        r = DragonflyUGAL(df3, tables, seed=0)
        src, dst = 0, df3.num_routers - 1
        seen_mid_groups = set()
        for _ in range(30):
            path = stitch(*next(r._candidates(src, dst, 1)))
            groups = {df3.group_of(x) for x in path}
            seen_mid_groups |= groups - {df3.group_of(src), df3.group_of(dst)}
        assert seen_mid_groups, "VAL-group paths should visit intermediate groups"

    def test_ugal_prefers_min_when_idle(self, df3):
        tables = RoutingTables(df3.adjacency)
        r = DragonflyUGAL(df3, tables, seed=0)
        net = FakeNetwork(default=0)
        path = r.plan(0, df3.num_routers - 1, net)
        assert len(path) - 1 <= 3


class TestANCA:
    def test_same_pod_two_hops(self, ft4):
        r = ANCARouting(ft4, seed=0)
        # Two edge switches in pod 0.
        src, dst = 0, 1
        at = src
        hops = 0
        while at != dst:
            at = r.next_hop(at, dst, None, None)
            hops += 1
            assert hops <= 4
        assert hops == 2  # edge -> agg -> edge

    def test_cross_pod_four_hops_via_core(self, ft4):
        r = ANCARouting(ft4, seed=0)
        src, dst = 0, ft4.p * ft4.p - 1  # first pod vs last pod edge switch
        at, hops, levels = src, 0, [ft4.level(src)]
        while at != dst:
            at = r.next_hop(at, dst, None, None)
            levels.append(ft4.level(at))
            hops += 1
            assert hops <= 4
        assert hops == 4
        assert levels == [EDGE, AGG, CORE, AGG, EDGE]

    def test_adaptive_choice_uses_queues(self, ft4):
        r = ANCARouting(ft4, seed=0)
        ups = ft4.up_neighbors(0)
        # All but one uplink congested.
        hot = {(0, u): 99 for u in ups[1:]}
        net = FakeNetwork(hot, default=99)
        net.lengths[(0, ups[0])] = 0
        chosen = r.next_hop(0, ft4.p * ft4.p - 1, None, net)
        assert chosen == ups[0]

    def test_plan_returns_none(self, ft4):
        assert ANCARouting(ft4).plan(0, 5, None) is None


# -- planner output and RNG use pinned against reference bodies -------------
#
# The reference functions below are the planners written without
# shortcuts: every next-hop set is rescanned from the neighbour list per
# hop, every DF minimal path is rebuilt per call, and the DF intermediate
# group is picked from an explicit ``choices`` list.  The library planners
# may memoize or compute these, but must return identical paths and leave
# the shared Generator in an identical state after every call.


def stitch(first_leg, second_leg):
    """Concatenate two router paths sharing their junction vertex."""
    if first_leg[-1] != second_leg[0]:
        raise ValueError("legs do not share the intermediate router")
    return first_leg + second_leg[1:]


def reference_path_cost_local(path, network):
    """UGAL-L cost: path length × local output queue at the source."""
    if len(path) < 2:
        return 0.0
    hops = len(path) - 1
    return hops * (1.0 + network.queue_length(path[0], path[1]))


def reference_path_cost_global(path, network):
    """UGAL-G cost: sum of output-queue lengths along the whole path."""
    total = 0.0
    for u, v in zip(path, path[1:]):
        total += network.queue_length(u, v)
    return len(path) - 1 + total


class ReferenceTables:
    """Neighbour-rescanning next-hop sets over a tables' distances."""

    def __init__(self, tables):
        self.adjacency = tables.adjacency
        self.num_routers = tables.num_routers
        self.dist = tables.dist.tolist()

    def next_hop_candidates(self, at, dst):
        if at == dst:
            return []
        dist = self.dist
        target = dist[at][dst] - 1
        return [v for v in self.adjacency[at] if dist[v][dst] == target]

    def min_path(self, src, dst):
        path = [src]
        at = src
        while at != dst:
            at = self.next_hop_candidates(at, dst)[0]
            path.append(at)
        return path

    def sample_min_path(self, src, dst, rng):
        path = [src]
        at = src
        while at != dst:
            cands = self.next_hop_candidates(at, dst)
            at = cands[int(rng.integers(len(cands)))] if len(cands) > 1 else cands[0]
            path.append(at)
        return path


def reference_valiant_plan(ref, rng, src, dst, max_hops=None, max_resample=32):
    if src == dst:
        return [src]
    n = ref.num_routers
    for _ in range(max_resample):
        while True:
            mid = int(rng.integers(n))
            if mid != src and mid != dst:
                break
        path = stitch(
            ref.sample_min_path(src, mid, rng),
            ref.sample_min_path(mid, dst, rng),
        )
        if max_hops is None or len(path) - 1 <= max_hops:
            return path
    return path


def _reference_pick(cands, network, mode):
    cost = (
        reference_path_cost_local
        if mode == "local"
        else reference_path_cost_global
    )
    return min(cands, key=lambda p: (cost(p, network), len(p)))


def reference_ugal_plan(ref, rng, src, dst, network, mode, num_candidates=4):
    if src == dst:
        return [src]
    cands = [ref.min_path(src, dst)]
    for _ in range(num_candidates):
        cands.append(reference_valiant_plan(ref, rng, src, dst))
    return _reference_pick(cands, network, mode)


def reference_canonical_path(topo, src, dst):
    g_src, g_dst = topo.group_of(src), topo.group_of(dst)
    if g_src == g_dst:
        return [src] if src == dst else [src, dst]
    gw_s = topo.gateway_router(g_src, g_dst)
    gw_d = topo.gateway_router(g_dst, g_src)
    path = [src]
    if gw_s != src:
        path.append(gw_s)
    path.append(gw_d)
    if gw_d != dst:
        path.append(dst)
    return path


def reference_valiant_group_path(topo, ref, rng, src, dst):
    g_src, g_dst = topo.group_of(src), topo.group_of(dst)
    choices = [g for g in range(topo.g) if g not in (g_src, g_dst)]
    if not choices:
        return ref.sample_min_path(src, dst, rng)
    mid_group = choices[int(rng.integers(len(choices)))]
    routers = topo.routers_of_group(mid_group)
    mid = routers[int(rng.integers(len(routers)))]
    return stitch(
        reference_canonical_path(topo, src, mid),
        reference_canonical_path(topo, mid, dst),
    )


def reference_df_ugal_plan(topo, ref, rng, src, dst, network, mode,
                           num_candidates=4):
    if src == dst:
        return [src]
    cands = [reference_canonical_path(topo, src, dst)]
    for _ in range(num_candidates):
        cands.append(reference_valiant_group_path(topo, ref, rng, src, dst))
    return _reference_pick(cands, network, mode)


def reference_least_loaded(rng, at, candidates, network):
    if network is not None:
        queues = [network.queue_length(at, v) for v in candidates]
        candidates = [v for v, q in zip(candidates, queues) if q == min(queues)]
    return candidates[int(rng.integers(len(candidates)))]


def reference_anca_next_hop(topo, rng, at, dst, network):
    level = topo.level(at)
    if level == CORE:
        return next(v for v in topo.down_neighbors(at) if topo.pod(v) == topo.pod(dst))
    if level == AGG and topo.pod(at) == topo.pod(dst):
        return dst
    return reference_least_loaded(rng, at, topo.up_neighbors(at), network)


PINNED_TOPOLOGIES = {
    "SF-q5": lambda: SlimFly.from_q(5),
    "SF-q7": lambda: SlimFly.from_q(7),
    # Irregular degrees, diameter 4.
    "SF-q7-faulted": lambda: apply_fault(
        SlimFly.from_q(7), link_fraction=0.1, seed=2
    ),
    "DF-h2": lambda: Dragonfly.balanced(2),
    "DF-h3": lambda: Dragonfly.balanced(3),
    # Cross-group pairs have no third group: the minimal-sampling fallback.
    "DF-g2": lambda: Dragonfly(a=2, p=1, h=1, num_groups=2),
}
DF_TOPOLOGIES = ("DF-h2", "DF-h3", "DF-g2")
PINNED_PAIRS = 2000


@functools.lru_cache(maxsize=None)
def _pinned_case(name):
    """(topology, tables, (src, dst) pairs, random-occupancy view)."""
    topo = PINNED_TOPOLOGIES[name]()
    tables = RoutingTables(topo.adjacency)
    n = topo.num_routers
    pairs = np.random.default_rng(2024).integers(n, size=(PINNED_PAIRS, 2))
    # Random occupancy for every directed link (the UGAL queue signal).
    occ_rng = np.random.default_rng(7)
    lengths = {
        (u, v): int(occ_rng.integers(0, 40))
        for u, nbrs in enumerate(topo.adjacency)
        for v in nbrs
    }
    return topo, tables, pairs.tolist(), FakeNetwork(lengths)


@pytest.fixture(params=sorted(PINNED_TOPOLOGIES))
def pinned(request):
    return _pinned_case(request.param)


@pytest.fixture(params=DF_TOPOLOGIES)
def pinned_df(request):
    return _pinned_case(request.param)


def _run_pinned(pairs, plan, reference, planner_rng, reference_rng):
    for src, dst in pairs:
        assert plan(src, dst) == reference(src, dst), (src, dst)
        assert (
            planner_rng.bit_generator.state == reference_rng.bit_generator.state
        ), (src, dst)


class TestPlannersPinnedToReference:
    """Every source-routed planner returns the reference path and makes
    the reference draws, call for call, on regular, faulted and
    Dragonfly topologies."""

    def test_next_hop_sets_and_min_paths(self, pinned):
        topo, tables, pairs, _ = pinned
        ref = ReferenceTables(tables)
        for src, dst in pairs:
            assert tables.next_hop_candidates(src, dst) == ref.next_hop_candidates(
                src, dst
            )
            assert tables.min_path(src, dst) == ref.min_path(src, dst)

    def test_next_hop_candidates_returns_a_fresh_list(self, pinned):
        topo, tables, pairs, _ = pinned
        src, dst = next((s, d) for s, d in pairs if s != d)
        first = tables.next_hop_candidates(src, dst)
        expected = list(first)
        first.append(-1)
        assert tables.next_hop_candidates(src, dst) == expected

    def test_sample_min_path(self, pinned):
        topo, tables, pairs, _ = pinned
        ref = ReferenceTables(tables)
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        _run_pinned(
            pairs,
            lambda s, d: tables.sample_min_path(s, d, rng),
            lambda s, d: ref.sample_min_path(s, d, ref_rng),
            rng, ref_rng,
        )

    # max_hops=1: every Valiant path has at least two hops, so all 32
    # resamples fail and the last path drawn comes back.
    @pytest.mark.parametrize("max_hops", [None, 3, 1])
    def test_valiant(self, pinned, max_hops):
        topo, tables, pairs, _ = pinned
        ref = ReferenceTables(tables)
        r = ValiantRouting(tables, seed=11, max_hops=max_hops)
        ref_rng = np.random.default_rng(11)
        _run_pinned(
            pairs,
            lambda s, d: r.plan(s, d, None),
            lambda s, d: reference_valiant_plan(ref, ref_rng, s, d, max_hops),
            r.rng, ref_rng,
        )

    @staticmethod
    def _check_ugal(pinned, mode, num_candidates):
        topo, tables, pairs, net = pinned
        ref = ReferenceTables(tables)
        r = UGALRouting(tables, mode, num_candidates=num_candidates, seed=13)
        ref_rng = np.random.default_rng(13)
        _run_pinned(
            pairs,
            lambda s, d: r.plan(s, d, net),
            lambda s, d: reference_ugal_plan(
                ref, ref_rng, s, d, net, mode, num_candidates
            ),
            r.rng, ref_rng,
        )

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_ugal(self, pinned, mode):
        self._check_ugal(pinned, mode, 4)

    # The ablate-ugal grid's other candidate counts.
    @pytest.mark.parametrize("num_candidates", [1, 2, 8])
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_ugal_candidate_counts(self, pinned, mode, num_candidates):
        self._check_ugal(pinned, mode, num_candidates)

    def test_dragonfly_canonical_path(self, pinned_df):
        topo, tables, pairs, _ = pinned_df
        r = DragonflyMinimal(topo, tables)
        for src, dst in pairs:
            assert r.canonical_path(src, dst) == reference_canonical_path(
                topo, src, dst
            )
            assert r.plan(src, dst, None) == reference_canonical_path(
                topo, src, dst
            )

    def test_dragonfly_valiant_group_path(self, pinned_df):
        topo, tables, pairs, _ = pinned_df
        ref = ReferenceTables(tables)
        r = DragonflyUGAL(topo, tables, seed=17)
        ref_rng = np.random.default_rng(17)
        _run_pinned(
            pairs,
            lambda s, d: list(stitch(*next(r._candidates(s, d, 1)))),
            lambda s, d: reference_valiant_group_path(topo, ref, ref_rng, s, d),
            r.rng, ref_rng,
        )

    @staticmethod
    def _check_dragonfly_ugal(pinned_df, mode, num_candidates):
        topo, tables, pairs, net = pinned_df
        ref = ReferenceTables(tables)
        r = DragonflyUGAL(
            topo, tables, num_candidates=num_candidates, mode=mode, seed=19
        )
        ref_rng = np.random.default_rng(19)
        _run_pinned(
            pairs,
            lambda s, d: r.plan(s, d, net),
            lambda s, d: reference_df_ugal_plan(
                topo, ref, ref_rng, s, d, net, mode, num_candidates
            ),
            r.rng, ref_rng,
        )

    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_dragonfly_ugal(self, pinned_df, mode):
        self._check_dragonfly_ugal(pinned_df, mode, 4)

    @pytest.mark.parametrize("num_candidates", [1, 2, 8])
    @pytest.mark.parametrize("mode", ["local", "global"])
    def test_dragonfly_ugal_candidate_counts(self, pinned_df, mode, num_candidates):
        self._check_dragonfly_ugal(pinned_df, mode, num_candidates)

    @pytest.mark.parametrize("p", [4, 6])
    @pytest.mark.parametrize("with_network", [True, False])
    def test_anca_next_hop(self, p, with_network):
        topo = FatTree3(p)
        occ_rng = np.random.default_rng(7)
        # Occupancies in {0, 1, 2}: least-loaded sets of one member
        # (a draw from range(1), which consumes nothing) and of several.
        net = FakeNetwork({
            (u, v): int(occ_rng.integers(0, 3))
            for u, nbrs in enumerate(topo.adjacency)
            for v in nbrs
        }) if with_network else None
        r = ANCARouting(topo, seed=23)
        ref_rng = np.random.default_rng(23)
        pairs = np.random.default_rng(2024).integers(topo.n_edge, size=(PINNED_PAIRS, 2))
        singles = 0
        for src, dst in pairs.tolist():
            at = src
            while at != dst:
                going_up = topo.level(at) == EDGE or (
                    topo.level(at) == AGG and topo.pod(at) != topo.pod(dst)
                )
                if going_up and net is not None:
                    ups = topo.up_neighbors(at)
                    queues = [net.queue_length(at, v) for v in ups]
                    singles += queues.count(min(queues)) == 1
                hop = r.next_hop(at, dst, None, net)
                assert hop == reference_anca_next_hop(topo, ref_rng, at, dst, net), (
                    src, dst, at,
                )
                assert r.rng.bit_generator.state == ref_rng.bit_generator.state
                at = hop
        assert singles > 0 or net is None


class TestTwoRouterValiant:
    """Two routers leave no Valiant intermediate outside {src, dst}: VAL
    and UGAL must route minimally without drawing, not spin forever.
    An alarm turns a regression into a failure instead of a hung suite."""

    @pytest.fixture(autouse=True)
    def alarm(self):
        import signal

        def expire(signum, frame):
            raise TimeoutError("planning on a 2-router topology did not return")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(30)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    def test_plans_are_minimal_and_draw_nothing(self):
        tables = RoutingTables([[1], [0]])
        val = ValiantRouting(tables, seed=1)
        before = val.rng.bit_generator.state
        assert val.plan(0, 1, None) == [0, 1]
        assert val.plan(1, 0, None) == [1, 0]
        assert val.rng.bit_generator.state == before
        with pytest.raises(ValueError, match="3 routers"):
            next(val.candidates(0, 1, 1))
        for mode in ("local", "global"):
            ugal = UGALRouting(tables, mode, seed=1)
            assert ugal.plan(0, 1, FakeNetwork()) == [0, 1]

    @pytest.mark.parametrize("routing", ["val", "ugal-l"])
    def test_hc2_campaign_finishes(self, routing):
        from repro.scenarios import (
            Campaign,
            RoutingSpec,
            Scenario,
            TopologySpec,
            TrafficSpec,
            run_campaign,
        )
        from repro.sim.config import SimConfig

        scenario = Scenario(
            topology=TopologySpec("HC", target_endpoints=2),
            routing=RoutingSpec(routing, {"seed": 1}),
            sim=SimConfig(warmup_cycles=20, measure_cycles=60, drain_cycles=300),
            traffic=TrafficSpec("uniform"),
            loads=[0.2, 0.5],
            label=f"hc2/{routing}",
        )
        report = run_campaign(Campaign("hc2", [scenario]))
        assert report.simulated == 1
        assert [r["label"] for r in report.rows] == [f"hc2/{routing}"] * 2
