"""Flow-level backend: demand model, water-filling, backend registry."""

from __future__ import annotations

import dataclasses
import functools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.faults import apply_fault
from repro.routing import MinimalRouting, RoutingTables
from repro.routing.fattree_routing import ANCARouting
from repro.routing.registry import SEEDED, make_routing
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting
from repro.scenarios import TopologySpec
from repro.scenarios.resolve import resolve_topology
from repro.scenarios.spec import canonical_json
from repro.sim import SimConfig, TelemetrySpec, flowlevel
from repro.sim.backends import (
    BACKEND_KINDS,
    ENGINE_BACKENDS,
    get_backend,
)
from repro.sim.flowlevel import (
    FlowModel,
    flow_simulate,
    flow_sweep,
    router_demands,
    waterfill,
)
from repro.sim.parallel import parallel_latency_vs_load
from repro.topologies import Dragonfly, FatTree3, SlimFly
from repro.traffic import UniformRandom
from repro.traffic.adversarial import worst_case_for
from repro.traffic.permutations import BitReversalPattern, ShiftPattern
from repro.traffic.patterns import FixedPermutation
from repro.traffic.registry import make_pattern

CFG = SimConfig(warmup_cycles=50, measure_cycles=100, drain_cycles=400)


# -- reference hot paths --------------------------------------------------------
# The flow solver's hot paths as first written: per-matrix ECMP passes,
# Valiant loads recomputed per model, a fresh stable sort per p99 and
# np.unique to freeze flows.  The optimised paths must reproduce every
# SimResult field bit for bit against them.


def reference_waterfill(demands, ent_flow, ent_chan, num_channels,
                        capacity=flowlevel.CAPACITY):
    rate = np.zeros(len(demands))
    active = demands > 0
    for _ in range(flowlevel.MAX_FILL_ROUNDS):
        if not active.any():
            break
        act_entries = active[ent_flow]
        load = np.bincount(
            ent_chan, weights=rate[ent_flow], minlength=num_channels
        )
        cnt = np.bincount(ent_chan[act_entries], minlength=num_channels)
        used = cnt > 0
        headroom = capacity - load
        t_link = (
            float(np.min(headroom[used] / cnt[used])) if used.any() else np.inf
        )
        t_demand = float(np.min(demands[active] - rate[active]))
        t = max(0.0, min(t_link, t_demand))
        rate[active] += t
        saturated = used & (headroom - t * cnt <= 1e-12)
        if saturated.any():
            blocked = np.unique(ent_flow[act_entries & saturated[ent_chan]])
            active[blocked] = False
        active &= demands - rate > 1e-12
    return rate


def reference_ecmp_loads(model, D):
    n = model.n
    dist = model.tables.dist
    flat_src, flat_dst = model.cmap.flat_src, model.cmap.flat_dst
    loads = np.zeros(model.cmap.num_channels)
    for d in range(n):
        x = D[:, d]
        if not x.any():
            continue
        dcol = dist[:, d]
        src_level = dcol[flat_src]
        dst_level = dcol[flat_dst]
        x = x.astype(np.float64, copy=True)
        for k in range(int(dcol[x > 0].max()), 0, -1):
            edges = np.nonzero((src_level == k) & (dst_level == k - 1))[0]
            if not edges.size:
                continue
            srcs = flat_src[edges]
            cnt = np.bincount(srcs, minlength=n)
            contrib = (x / np.maximum(cnt, 1))[srcs]
            loads[edges] += contrib
            x = x + np.bincount(
                flat_dst[edges], weights=contrib, minlength=n
            )
    return loads


def reference_val_unit_loads(model):
    D, n = model.D, model.n
    denominator = max(1, n - 2)
    D1 = (D.sum(axis=1)[:, None] - D) / denominator
    np.fill_diagonal(D1, 0.0)
    D2 = (D.sum(axis=0)[None, :] - D) / denominator
    np.fill_diagonal(D2, 0.0)
    return reference_ecmp_loads(model, D1) + reference_ecmp_loads(model, D2)


def reference_weighted_percentile(values, weights, q):
    order = np.argsort(values, kind="stable")
    cum = np.cumsum(weights[order])
    total = cum[-1]
    if total <= 0:
        return float("nan")
    idx = int(np.searchsorted(cum, (q / 100.0) * total, side="left"))
    return float(values[order[min(idx, len(order) - 1)]])


class ReferenceFlowModel(FlowModel):
    """:class:`FlowModel` on the reference hot paths (solve it under
    :func:`reference_results`, which also swaps in the reference
    water-filling)."""

    def _ecmp_loads(self, D):
        return reference_ecmp_loads(self, D)

    def _val_unit_loads(self):
        return reference_val_unit_loads(self)

    def _p99(self, latency, rates):
        return reference_weighted_percentile(latency, rates, 99.0)


def result_bits(value):
    """Every field of a result, floats as ``type:hex`` (exact, typed)."""
    if isinstance(value, float):
        return f"{type(value).__name__}:{value.hex()}"
    if isinstance(value, (tuple, list)):
        return [result_bits(v) for v in value]
    if dataclasses.is_dataclass(value):
        return {
            f.name: result_bits(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    return value


def _solve(model, loads):
    return [
        result_bits(model.simulate(load, CFG, TelemetrySpec.full()))
        for load in loads
    ]


def reference_results(topology, routing, traffic, loads):
    with mock.patch.object(flowlevel, "waterfill", reference_waterfill):
        return _solve(ReferenceFlowModel(topology, routing, traffic), loads)


def compare_with_reference(topology, routings, pattern, loads, seed=0):
    """Solve each routing on ``topology`` under ``pattern`` with the
    optimised and the reference hot paths; assert equal bits.

    The routings share one tables object, in the order given, so a
    UGAL model after a VAL model reads the memoized Valiant loads."""
    tables = RoutingTables(topology.adjacency)
    traffic = make_pattern(pattern, topology, tables=tables, seed=seed)
    for name in routings:
        params = {"seed": seed} if name in SEEDED else {}
        routing = make_routing(name, topology, tables=tables, **params)
        expected = reference_results(topology, routing, traffic, loads)
        got = _solve(FlowModel(topology, routing, traffic), loads)
        for load, g, e in zip(loads, got, expected):
            assert g == e, (name, pattern, load)


@pytest.fixture(scope="module")
def sf():
    return SlimFly.from_q(5)


@pytest.fixture(scope="module")
def tables(sf):
    return RoutingTables(sf.adjacency)


class TestRouterDemands:
    def test_uniform_mass_and_symmetry(self, sf):
        D, intra, n_active = router_demands(
            UniformRandom(sf.num_endpoints), sf
        )
        # Every endpoint offers exactly 1 flit/cycle in total.
        assert math.isclose(D.sum() + intra, sf.num_endpoints)
        assert n_active == sf.num_endpoints
        assert np.allclose(D, D.T)  # uniform is symmetric
        assert np.all(np.diag(D) == 0)

    def test_permutation_demand(self, sf):
        pat = FixedPermutation({0: 7, 7: 0, 1: 9}, name="toy")
        D, intra, n_active = router_demands(pat, sf)
        assert n_active == 3
        assert math.isclose(D.sum() + intra, 3.0)
        emap = sf.endpoint_map
        assert D[emap[0], emap[7]] >= 1.0

    def test_shift_splits_half_rate(self, sf):
        D, intra, n_active = router_demands(
            ShiftPattern(sf.num_endpoints), sf
        )
        size = ShiftPattern(sf.num_endpoints).size
        assert n_active == size
        # Every source has a self-directed outcome on one of its two
        # coin sides, so exactly half the offered mass enters the
        # pattern (the other half idles, as in the cycle engine).
        assert math.isclose(D.sum() + intra, size / 2)

    def test_bit_pattern_drops_fixed_points(self, sf):
        pat = BitReversalPattern(sf.num_endpoints)
        D, intra, n_active = router_demands(pat, sf)
        fixed = sum(1 for s in range(pat.size) if pat._map(s) == s)
        assert math.isclose(D.sum() + intra, pat.size - fixed)

    def test_unsupported_pattern_rejected(self, sf):
        class Mystery:
            pass

        with pytest.raises(ValueError, match="no demand model"):
            router_demands(Mystery(), sf)


class TestWaterfill:
    def _fill(self, demands, paths, channels):
        ent_flow = np.asarray(
            [f for f, chans in enumerate(paths) for _ in chans]
        )
        ent_chan = np.asarray([c for chans in paths for c in chans])
        return waterfill(np.asarray(demands, float), ent_flow, ent_chan, channels)

    def test_shared_bottleneck_splits_fairly(self):
        rates = self._fill([1.0, 1.0], [[0], [0]], 1)
        assert np.allclose(rates, [0.5, 0.5])

    def test_demand_cap_frees_capacity(self):
        # Flow 0 wants only 0.2; flow 1 takes the rest of the channel.
        rates = self._fill([0.2, 1.0], [[0], [0]], 1)
        assert np.allclose(rates, [0.2, 0.8])

    def test_disjoint_flows_meet_demand(self):
        rates = self._fill([0.7, 0.4], [[0], [1]], 2)
        assert np.allclose(rates, [0.7, 0.4])

    def test_multi_hop_bottleneck(self):
        # Flow 0 crosses both channels; flow 1 only the second.  The
        # second channel is the bottleneck; max-min gives 0.5 each.
        rates = self._fill([1.0, 1.0], [[0, 1], [1]], 2)
        assert np.allclose(rates, [0.5, 0.5])

    def test_max_min_dominates_proportional(self):
        # Classic 3-flow line network: the long flow shares both
        # links; max-min gives the short flows the freed headroom.
        rates = self._fill([1.0, 1.0, 1.0], [[0, 1], [0], [1]], 2)
        assert np.allclose(rates, [0.5, 0.5, 0.5])

    def test_never_exceeds_capacity(self, sf, tables):
        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        demands = 2.0 * model.flow_demand  # far past saturation
        rates = waterfill(
            demands, model.ent_flow, model.ent_chan, model.cmap.num_channels
        )
        loads = np.bincount(
            model.ent_chan,
            weights=rates[model.ent_flow],
            minlength=model.cmap.num_channels,
        )
        assert loads.max() <= 1.0 + 1e-9
        assert np.all(rates <= demands + 1e-12)


class TestFlowModel:
    def test_model_kind_per_routing(self, sf, tables):
        uni = UniformRandom(sf.num_endpoints)
        assert FlowModel(sf, MinimalRouting(tables), uni).kind == "min"
        assert FlowModel(sf, ValiantRouting(tables, seed=0), uni).kind == "val"
        assert (
            FlowModel(sf, UGALRouting(tables, "local", seed=0), uni).kind
            == "ugal"
        )
        ft = FatTree3(4)
        assert (
            FlowModel(ft, ANCARouting(ft, seed=0), UniformRandom(
                ft.num_endpoints)).kind
            == "spread"
        )

    def test_unsupported_routing_rejected(self, sf):
        class Teleport:
            pass

        with pytest.raises(ValueError, match="no path-set model"):
            FlowModel(sf, Teleport(), UniformRandom(sf.num_endpoints))

    def test_ecmp_matches_analysis_fluid_model(self, sf, tables):
        """The vectorised ECMP spread equals the dict-based reference
        fluid model in repro.analysis.channel_load."""
        from repro.analysis.channel_load import channel_loads, uniform_demands

        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        loads = model._ecmp_loads(model.D)
        reference = channel_loads(sf, uniform_demands(sf), tables=tables)
        for (u, v), value in reference.items():
            c = model.cmap.chan_of[u, v]
            assert math.isclose(loads[c], value, rel_tol=1e-9)
        assert math.isclose(loads.sum(), sum(reference.values()), rel_tol=1e-9)

    def test_valiant_loads_routed_once_per_tables_and_pattern(self, sf, tables):
        uni = UniformRandom(sf.num_endpoints)
        val = FlowModel(sf, ValiantRouting(tables, seed=0), uni)
        ugal = FlowModel(sf, UGALRouting(tables, "global", seed=1), uni)
        assert ugal.val_loads is val.unit_loads
        assert not val.unit_loads.flags.writeable
        worst = worst_case_for(sf, tables=tables, seed=0)
        assert FlowModel(sf, ValiantRouting(tables), worst).unit_loads is not (
            val.unit_loads
        )
        fresh = FlowModel(sf, ValiantRouting(RoutingTables(sf.adjacency)), uni)
        assert fresh.unit_loads is not val.unit_loads
        assert np.array_equal(fresh.unit_loads, val.unit_loads)

    def test_min_collapses_on_worstcase(self, sf, tables):
        """The Fig 6d structure: MIN collapses near 1/(2p) offered load
        while VAL sustains several times more."""
        wc = worst_case_for(sf, tables=tables, seed=0)
        loads = [round(0.05 * i, 4) for i in range(1, 20)]
        min_sat = FlowModel(sf, MinimalRouting(tables), wc).saturation_load(loads)
        val_sat = FlowModel(
            sf, ValiantRouting(tables, seed=0), wc
        ).saturation_load(loads)
        assert min_sat is not None and min_sat <= 0.3
        assert val_sat is None or val_sat >= 2 * min_sat

    def test_latency_monotone_below_saturation(self, sf, tables):
        model = FlowModel(
            sf, MinimalRouting(tables), UniformRandom(sf.num_endpoints)
        )
        lats = []
        for load in (0.1, 0.3, 0.5, 0.7):
            res = model.simulate(load, CFG)
            assert not res.saturated
            lats.append(res.avg_latency)
            assert res.p99_latency >= res.avg_latency
        assert lats == sorted(lats)

    def test_saturated_point_contract(self, sf, tables):
        wc = worst_case_for(sf, tables=tables, seed=0)
        res = FlowModel(sf, MinimalRouting(tables), wc).simulate(0.9, CFG)
        assert res.saturated
        assert res.delivered == 0  # the sweep layer nulls the latency
        assert math.isnan(res.avg_latency)
        assert 0 < res.accepted_load < 0.9

    def test_sweep_marks_past_saturation(self, sf, tables):
        wc = worst_case_for(sf, tables=tables, seed=0)
        points = flow_sweep(
            sf, lambda: MinimalRouting(tables), wc,
            [0.1, 0.3, 0.5, 0.7, 0.9], CFG,
        )
        saturated = [p.saturated for p in points]
        first = saturated.index(True)
        assert all(saturated[first:])
        # Fill rows carry the plateau accepted value, latency None.
        assert points[-1].latency is None
        assert points[-1].accepted == points[first].accepted

    def test_deterministic_across_runs(self, sf, tables):
        def rows():
            pts = flow_sweep(
                sf,
                lambda: UGALRouting(tables, "local", seed=0),
                UniformRandom(sf.num_endpoints),
                [0.2, 0.5, 0.8],
                CFG,
            )
            return canonical_json([
                [p.load, p.latency, p.accepted, p.saturated] for p in pts
            ])

        assert rows() == rows()


PINNED_SHAPES = {
    "SF-q5": (lambda: SlimFly.from_q(5), ("min", "val", "ugal-l", "ugal-g")),
    "SF-q7": (lambda: SlimFly.from_q(7), ("min", "val", "ugal-l", "ugal-g")),
    # Irregular degrees, diameter 4.
    "SF-q7-faulted": (
        lambda: apply_fault(SlimFly.from_q(7), link_fraction=0.1, seed=2),
        ("min", "val", "ugal-l", "ugal-g"),
    ),
    "DF-h3": (lambda: Dragonfly.balanced(3), ("min", "val", "ugal-l", "df-ugal-l")),
    "FT3-p4": (lambda: FatTree3(4), ("min", "val", "ft-anca")),
    "FT3-p6": (lambda: FatTree3(6), ("min", "val", "ft-anca")),
}
#: Both sides of saturation for every routing and pattern above.
PINNED_LOADS = (0.05, 0.15, 0.3, 0.5, 0.7, 0.85, 1.0, 1.3)


@functools.lru_cache(maxsize=None)
def _pinned_topology(shape):
    return PINNED_SHAPES[shape][0]()


class TestHotPathsPinnedToReference:
    """The optimised water-filling, ECMP pass, Valiant memo and p99
    order reuse reproduce the reference hot paths bit for bit."""

    @pytest.mark.parametrize("pattern", ["uniform", "worstcase", "shift"])
    @pytest.mark.parametrize("shape", sorted(PINNED_SHAPES))
    def test_results_bit_identical(self, shape, pattern):
        compare_with_reference(
            _pinned_topology(shape), PINNED_SHAPES[shape][1], pattern, PINNED_LOADS
        )

    def test_loads_reach_both_branches(self, monkeypatch):
        """The pinned loads fill past one water-filling round, and a
        kept order is both reused and re-sorted."""
        topology = _pinned_topology("SF-q7")
        verdicts = []
        check = flowlevel._is_stable_order

        def recording(values, order):
            verdicts.append(check(values, order))
            return verdicts[-1]

        monkeypatch.setattr(flowlevel, "_is_stable_order", recording)
        compare_with_reference(topology, ("min",), "uniform", PINNED_LOADS)
        assert True in verdicts and False in verdicts

        model = FlowModel(
            topology,
            MinimalRouting(RoutingTables(topology.adjacency)),
            UniformRandom(topology.num_endpoints),
        )
        fill = functools.partial(
            waterfill,
            max(PINNED_LOADS) * model.flow_demand,
            model.ent_flow,
            model.ent_chan,
            model.cmap.num_channels,
        )
        full = fill()
        monkeypatch.setattr(flowlevel, "MAX_FILL_ROUNDS", 1)
        assert not np.array_equal(fill(), full)


class TestOrderReuse:
    @given(
        values=st.lists(
            st.one_of(
                # A small pool forces ties (signed zeros included).
                st.sampled_from([0.0, -0.0, 1.0, 2.5, math.inf]),
                st.floats(allow_nan=False),
            ),
            min_size=1,
            max_size=40,
        ),
        data=st.data(),
    )
    def test_check_accepts_exactly_the_stable_sort(self, values, data):
        x = np.asarray(values)
        n = len(x)
        stable = np.argsort(x, kind="stable")
        other = data.draw(st.lists(st.sampled_from(values), min_size=n, max_size=n))
        candidates = [
            stable,
            # Stale: the order of another point's latencies.
            np.argsort(np.asarray(other), kind="stable"),
            np.asarray(data.draw(st.permutations(range(n)))),
            # Sorted, but ties in descending index.
            np.lexsort((-np.arange(n), x)),
        ]
        for order in candidates:
            assert flowlevel._is_stable_order(x, order) == np.array_equal(
                order, stable
            )


class TestFewerThanThreeRouters:
    """Two routers leave no Valiant intermediate outside {s, d}: flow
    VAL and UGAL route minimally, as the cycle planners do."""

    @pytest.mark.parametrize("routing", ["val", "ugal-l", "ugal-g"])
    def test_matches_min(self, routing):
        hc = resolve_topology(TopologySpec("HC", target_endpoints=2))
        assert hc.num_routers == 2
        tables = RoutingTables(hc.adjacency)
        uniform = UniformRandom(hc.num_endpoints)
        full = TelemetrySpec.full()
        minimal = FlowModel(hc, MinimalRouting(tables), uniform)
        model = FlowModel(hc, make_routing(routing, hc, tables=tables, seed=1), uniform)
        for load in (0.2, 0.5, 0.9):
            got = model.simulate(load, CFG, full)
            want = minimal.simulate(load, CFG, full)
            assert math.isclose(got.avg_latency, want.avg_latency, rel_tol=1e-12)
            assert math.isclose(got.accepted_load, want.accepted_load, rel_tol=1e-12)
            assert np.allclose(
                got.telemetry.channel_load, want.telemetry.channel_load,
                rtol=1e-12, atol=0,
            )
            assert min(got.telemetry.channel_load) > 0
            assert got.telemetry.route_diverted_frac == 0.0


class TestBackendRegistry:
    def test_registry_contents(self):
        assert BACKEND_KINDS == ("cycle", "cycle-vec", "flow")
        assert ENGINE_BACKENDS["cycle"].supports_closed_loop
        assert ENGINE_BACKENDS["cycle-vec"].supports_closed_loop
        assert not ENGINE_BACKENDS["flow"].supports_closed_loop
        for backend in ENGINE_BACKENDS.values():
            assert backend.fidelity and backend.determinism

    def test_unknown_backend_rejected(self):
        with pytest.raises(KeyError, match="unknown engine backend"):
            get_backend("warp")

    def test_unknown_backend_error_lists_choices(self):
        """The error text enumerates every registered backend."""
        with pytest.raises(KeyError) as exc:
            get_backend("warp")
        message = str(exc.value)
        for name in ("cycle", "cycle-vec", "flow"):
            assert name in message

    def test_cycle_vec_backend_matches_cycle(self, sf, tables):
        from repro.sim.engine import simulate

        uni = UniformRandom(sf.num_endpoints)
        direct = simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("cycle-vec").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    def test_cycle_backend_matches_direct_engine(self, sf, tables):
        from repro.sim.engine import simulate

        uni = UniformRandom(sf.num_endpoints)
        direct = simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("cycle").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    def test_flow_backend_matches_direct_solver(self, sf, tables):
        uni = UniformRandom(sf.num_endpoints)
        direct = flow_simulate(sf, MinimalRouting(tables), uni, 0.4, CFG)
        via = get_backend("flow").simulate(
            sf, MinimalRouting(tables), uni, 0.4, CFG
        )
        assert direct == via

    @pytest.mark.parametrize("workers", [1, 2])
    def test_parallel_dispatch_worker_independent(self, sf, tables, workers):
        """parallel_latency_vs_load(backend='flow') yields identical
        rows at any worker count (the flow determinism contract)."""
        uni = UniformRandom(sf.num_endpoints)
        points = parallel_latency_vs_load(
            sf,
            lambda: MinimalRouting(tables),
            uni,
            loads=[0.2, 0.5, 0.8],
            config=CFG,
            workers=workers,
            backend="flow",
        )
        expected = flow_sweep(
            sf, lambda: MinimalRouting(tables), uni, [0.2, 0.5, 0.8], CFG
        )
        assert points == expected

    def test_parallel_dispatch_unknown_backend(self, sf, tables):
        with pytest.raises(KeyError, match="unknown engine backend"):
            parallel_latency_vs_load(
                sf,
                lambda: MinimalRouting(tables),
                UniformRandom(sf.num_endpoints),
                loads=[0.2],
                backend="warp",
            )
