"""The cycle-vec differential suite: batched numpy vs the flat engine.

Mirror of ``test_sim_reference_equivalence.py`` one layer up: the
vectorised engine (:mod:`repro.sim.engine_vec`) must reproduce the
flat ``cycle`` engine *bit for bit* across its supported scope — it
replays the same RNG draw sequence, the same switch-allocation
tie-breaks (rank, buffer first-use order, endpoint order) and the same
event orderings, so every :class:`~repro.sim.stats.SimResult` field
matches exactly.  The matrix covers MIN/VAL/UGAL-L (+UGAL-G) ×
uniform/worst-case at q=5 and q=7, vectorised fixed patterns, and
multi-flit packets.

The documented fallback contract — saturation point within one 0.1
load-grid step, mean latency within 2% below saturation — is pinned by
the sweep-level test; with the current engine it holds trivially
because the per-point results are exact.

Closed-loop workloads and per-hop adaptive routing (FT ANCA) are in
scope since the cycle-vec-everywhere PR: the closed-loop matrix pins
every per-message ready/completion timestamp bit-exact, the adaptive
cells replay the flat engine's shared-RNG ``next_hop`` scan, and the
campaign-level tests pin byte-identical rows across worker counts and
through the service execution path (which exercises the q>=7
cycle->cycle-vec auto-default).
"""

import pytest

from repro.routing import (
    DragonflyUGAL,
    MinimalRouting,
    UGALRouting,
    ValiantRouting,
)
from repro.routing.fattree_routing import ANCARouting
from repro.routing.tables import RoutingTables
from repro.sim import (
    SimConfig,
    TelemetrySpec,
    VecEngine,
    simulate,
    simulate_workload,
    vec_simulate,
    vec_simulate_workload,
)
from repro.topologies import SlimFly
from repro.traffic import ShiftPattern, ShufflePattern, SlimFlyWorstCase, UniformRandom
from repro.traffic.adversarial import DragonflyWorstCase
from repro.workloads.registry import make_placed_workload

CFG = SimConfig(warmup_cycles=120, measure_cycles=300, drain_cycles=1500, seed=11)
#: Shorter window for the q=7 cells — same code paths, CI-sized.
CFG7 = SimConfig(warmup_cycles=80, measure_cycles=150, drain_cycles=1000, seed=11)


@pytest.fixture(scope="module")
def sf7_tables(sf7):
    return RoutingTables(sf7.adjacency)


class TestBitwiseEquivalenceQ5:
    @pytest.mark.parametrize("load", [0.05, 0.3, 0.6, 0.9])
    def test_min_uniform(self, sf5, sf5_tables, load):
        traffic = UniformRandom(sf5.num_endpoints)
        flat = simulate(sf5, MinimalRouting(sf5_tables), traffic, load, CFG)
        vec = vec_simulate(sf5, MinimalRouting(sf5_tables), traffic, load, CFG)
        assert flat == vec

    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: MinimalRouting(t),
            lambda t: ValiantRouting(t, seed=3),
            lambda t: UGALRouting(t, "local", seed=3),
            lambda t: UGALRouting(t, "global", seed=3),
        ],
        ids=["MIN", "VAL", "UGAL-L", "UGAL-G"],
    )
    @pytest.mark.parametrize("pattern", ["uniform", "worstcase"])
    def test_routing_traffic_matrix(self, sf5, sf5_tables, make_routing, pattern):
        if pattern == "uniform":
            traffic = UniformRandom(sf5.num_endpoints)
            load = 0.4
        else:
            traffic = SlimFlyWorstCase(sf5, sf5_tables, seed=2)
            load = 0.3
        flat = simulate(sf5, make_routing(sf5_tables), traffic, load, CFG)
        vec = vec_simulate(sf5, make_routing(sf5_tables), traffic, load, CFG)
        assert flat == vec

    @pytest.mark.parametrize("make_pattern", [
        lambda n: ShufflePattern(n),
        lambda n: ShiftPattern(n),
    ], ids=["shuffle", "shift"])
    def test_vectorised_fixed_patterns(self, sf5, sf5_tables, make_pattern):
        pat = make_pattern(sf5.num_endpoints)
        flat = simulate(sf5, MinimalRouting(sf5_tables), pat, 0.4, CFG)
        vec = vec_simulate(sf5, MinimalRouting(sf5_tables), pat, 0.4, CFG)
        assert flat == vec

    @pytest.mark.parametrize("length", [2, 4])
    def test_multiflit(self, sf5, sf5_tables, length):
        cfg = SimConfig(
            packet_length=length, warmup_cycles=120, measure_cycles=300,
            drain_cycles=2500, seed=4,
        )
        traffic = UniformRandom(sf5.num_endpoints)
        flat = simulate(sf5, MinimalRouting(sf5_tables), traffic, 0.3, cfg)
        vec = vec_simulate(sf5, MinimalRouting(sf5_tables), traffic, 0.3, cfg)
        assert flat == vec


class TestBitwiseEquivalenceQ7:
    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: MinimalRouting(t),
            lambda t: ValiantRouting(t, seed=3),
            lambda t: UGALRouting(t, "local", seed=3),
        ],
        ids=["MIN", "VAL", "UGAL-L"],
    )
    @pytest.mark.parametrize("pattern", ["uniform", "worstcase"])
    def test_routing_traffic_matrix(self, sf7, sf7_tables, make_routing, pattern):
        if pattern == "uniform":
            traffic = UniformRandom(sf7.num_endpoints)
        else:
            traffic = SlimFlyWorstCase(sf7, sf7_tables, seed=2)
        flat = simulate(sf7, make_routing(sf7_tables), traffic, 0.4, CFG7)
        vec = vec_simulate(sf7, make_routing(sf7_tables), traffic, 0.4, CFG7)
        assert flat == vec

    def test_min_uniform_high_load(self, sf7, sf7_tables):
        traffic = UniformRandom(sf7.num_endpoints)
        flat = simulate(sf7, MinimalRouting(sf7_tables), traffic, 0.9, CFG7)
        vec = vec_simulate(sf7, MinimalRouting(sf7_tables), traffic, 0.9, CFG7)
        assert flat == vec


class TestTelemetryEquivalence:
    """Armed probes must read identically off both engines: same bin
    edges, same flat channel numbering, same running-max bookkeeping —
    so every TelemetryResult field compares equal, not just close."""

    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: MinimalRouting(t),
            lambda t: UGALRouting(t, "local", seed=3),
        ],
        ids=["MIN", "UGAL-L"],
    )
    @pytest.mark.parametrize("pattern", ["uniform", "worstcase"])
    def test_full_probe_plane_matches(self, sf5, sf5_tables, make_routing,
                                      pattern):
        if pattern == "uniform":
            traffic = UniformRandom(sf5.num_endpoints)
            load = 0.4
        else:
            traffic = SlimFlyWorstCase(sf5, sf5_tables, seed=2)
            load = 0.3
        tele = TelemetrySpec.full()
        flat = simulate(
            sf5, make_routing(sf5_tables), traffic, load, CFG, telemetry=tele
        )
        vec = vec_simulate(
            sf5, make_routing(sf5_tables), traffic, load, CFG, telemetry=tele
        )
        assert flat == vec
        ft, vt = flat.telemetry, vec.telemetry
        assert ft is not None and vt is not None
        assert ft.cycles == vt.cycles
        assert tuple(ft.latency_hist) == tuple(vt.latency_hist)
        assert tuple(ft.channel_flits) == tuple(vt.channel_flits)
        assert tuple(ft.channel_load) == tuple(vt.channel_load)
        assert tuple(ft.max_queue) == tuple(vt.max_queue)
        assert ft.route_packets == vt.route_packets
        assert ft.route_diverted == vt.route_diverted
        assert ft.route_diverted_frac == vt.route_diverted_frac

    def test_probes_leave_results_bit_exact(self, sf5, sf5_tables):
        """Telemetry-on scalar results equal the telemetry-off run on
        both engines (the zero-perturbation contract, vec side)."""
        traffic = UniformRandom(sf5.num_endpoints)
        for sim_fn in (simulate, vec_simulate):
            off = sim_fn(sf5, MinimalRouting(sf5_tables), traffic, 0.4, CFG)
            on = sim_fn(
                sf5, MinimalRouting(sf5_tables), traffic, 0.4, CFG,
                telemetry=TelemetrySpec.full(),
            )
            assert off.telemetry is None and on.telemetry is not None
            assert on.avg_latency == off.avg_latency
            assert on.delivered == off.delivered
            assert on.accepted_load == off.accepted_load


class TestSweepContract:
    """The pinned-tolerance fallback contract, measured at sweep level:
    saturation within one 0.1 load-grid step, latency within 2% below
    saturation.  (Held exactly today — the assertions keep the curve
    contract alive even if a future engine change trades exactness.)"""

    def test_saturation_and_latency_agree(self, sf5, sf5_tables):
        loads = [round(0.1 * i, 1) for i in range(1, 10)]
        traffic = SlimFlyWorstCase(sf5, sf5_tables, seed=2)
        flat = [
            simulate(sf5, MinimalRouting(sf5_tables), traffic, ld, CFG7)
            for ld in loads
        ]
        vec = [
            vec_simulate(sf5, MinimalRouting(sf5_tables), traffic, ld, CFG7)
            for ld in loads
        ]

        def sat_index(rows):
            for i, r in enumerate(rows):
                if r.saturated:
                    return i
            return len(rows)

        assert abs(sat_index(flat) - sat_index(vec)) <= 1
        for f, v in zip(flat, vec):
            if f.saturated or v.saturated:
                break
            assert v.avg_latency == pytest.approx(f.avg_latency, rel=0.02)


def _assert_workload_equal(flat, vec):
    """Full WorkloadResult equality plus named per-field diagnostics."""
    assert flat.message_completions == vec.message_completions
    assert flat.message_ready == vec.message_ready
    assert flat.cycles == vec.cycles
    assert flat.makespan == vec.makespan
    assert flat == vec


class TestClosedLoopEquivalence:
    """The closed-loop differential matrix: vec vs flat, bit-exact down
    to every per-message ready/completion timestamp.  Kinds span the
    dependency shapes (one dense wave, ring chains, butterfly stages,
    sparse neighbour exchange); routings span no-RNG tables and the
    queue-reading shared-RNG UGAL-L path."""

    KINDS = ["alltoall", "ring-allreduce", "rd-allreduce", "halo2d"]

    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: MinimalRouting(t),
            lambda t: UGALRouting(t, "local", seed=3),
        ],
        ids=["MIN", "UGAL-L"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_workload_matrix_q5(self, sf5, sf5_tables, make_routing, kind):
        wl = make_placed_workload(
            kind, sf5, 16, size_flits=4, iterations=1, placement="spread"
        )
        cfg = SimConfig(seed=11)
        flat = simulate_workload(sf5, make_routing(sf5_tables), wl, cfg)
        vec = vec_simulate_workload(sf5, make_routing(sf5_tables), wl, cfg)
        _assert_workload_equal(flat, vec)

    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: MinimalRouting(t),
            lambda t: UGALRouting(t, "local", seed=3),
        ],
        ids=["MIN", "UGAL-L"],
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_workload_matrix_q7(self, sf7, sf7_tables, make_routing, kind):
        wl = make_placed_workload(
            kind, sf7, 24, size_flits=4, iterations=1, placement="spread"
        )
        cfg = SimConfig(seed=11)
        flat = simulate_workload(sf7, make_routing(sf7_tables), wl, cfg)
        vec = vec_simulate_workload(sf7, make_routing(sf7_tables), wl, cfg)
        _assert_workload_equal(flat, vec)

    def test_alltoall_smoke_q11(self):
        """q=11 smoke: cycle-vec finishes a small alltoall bit-exact
        against the flat engine (CI also runs this cell alone under a
        wall-clock budget)."""
        sf = SlimFly.from_q(11)
        tables = RoutingTables(sf.adjacency)
        wl = make_placed_workload("alltoall", sf, 48, size_flits=8, placement="spread")
        cfg = SimConfig(seed=1)
        vec = vec_simulate_workload(sf, MinimalRouting(tables), wl, cfg)
        flat = simulate_workload(sf, MinimalRouting(tables), wl, cfg)
        assert vec.finished
        _assert_workload_equal(flat, vec)

    def test_ugal_global_workload(self, sf5, sf5_tables):
        wl = make_placed_workload(
            "ring-allreduce", sf5, 16, size_flits=4, iterations=1,
            placement="spread",
        )
        cfg = SimConfig(seed=11)
        flat = simulate_workload(
            sf5, UGALRouting(sf5_tables, "global", seed=3), wl, cfg
        )
        vec = vec_simulate_workload(
            sf5, UGALRouting(sf5_tables, "global", seed=3), wl, cfg
        )
        _assert_workload_equal(flat, vec)

    def test_multiflit_workload(self, sf5, sf5_tables):
        """packet_length=2 segments messages and delays tail ejection —
        release timing (now + L) must still match the flat engine."""
        wl = make_placed_workload(
            "ring-allreduce", sf5, 16, size_flits=5, iterations=2,
            placement="spread",
        )
        cfg = SimConfig(seed=11, packet_length=2)
        flat = simulate_workload(sf5, MinimalRouting(sf5_tables), wl, cfg)
        vec = vec_simulate_workload(sf5, MinimalRouting(sf5_tables), wl, cfg)
        _assert_workload_equal(flat, vec)

    def test_max_cycles_cap(self, sf5, sf5_tables):
        """A cycle cap truncates both engines to the identical partial
        run (same completions, same unfinished set)."""
        wl = make_placed_workload(
            "alltoall", sf5, 16, size_flits=4, iterations=4, placement="spread"
        )
        cfg = SimConfig(seed=11)
        flat = simulate_workload(
            sf5, MinimalRouting(sf5_tables), wl, cfg, max_cycles=60
        )
        vec = vec_simulate_workload(
            sf5, MinimalRouting(sf5_tables), wl, cfg, max_cycles=60
        )
        assert not flat.finished
        _assert_workload_equal(flat, vec)

    def test_run_cap_above_span_rejected(self, sf5, sf5_tables):
        """run(max_cycles) beyond the constructor's packed-key span must
        raise instead of silently overflowing the sort keys."""
        from repro.sim import VecClosedLoopEngine

        wl = make_placed_workload(
            "alltoall", sf5, 8, size_flits=1, iterations=1, placement="spread"
        )
        eng = VecClosedLoopEngine(
            sf5, MinimalRouting(sf5_tables), wl, SimConfig(seed=11),
            max_cycles=100,
        )
        with pytest.raises(ValueError, match="packed sort-key span"):
            eng.run(max_cycles=200)


class TestAdaptiveEquivalence:
    """Per-hop adaptive routing (FT ANCA): the vec engine replays the
    flat engine's per-request ``next_hop`` scan — one shared-RNG draw
    per upward head request per cycle, reading live queue lengths — so
    open- and closed-loop results stay bit-exact."""

    @pytest.mark.parametrize("pattern", ["uniform", "shuffle"])
    @pytest.mark.parametrize("load", [0.2, 0.5])
    def test_open_loop(self, ft4, pattern, load):
        if pattern == "uniform":
            traffic = UniformRandom(ft4.num_endpoints)
        else:
            traffic = ShufflePattern(ft4.num_endpoints)
        flat = simulate(ft4, ANCARouting(ft4, seed=3), traffic, load, CFG)
        vec = vec_simulate(ft4, ANCARouting(ft4, seed=3), traffic, load, CFG)
        assert flat == vec

    def test_open_loop_multiflit(self, ft4):
        cfg = SimConfig(
            packet_length=2, warmup_cycles=120, measure_cycles=300,
            drain_cycles=2500, seed=4,
        )
        traffic = UniformRandom(ft4.num_endpoints)
        flat = simulate(ft4, ANCARouting(ft4, seed=3), traffic, 0.3, cfg)
        vec = vec_simulate(ft4, ANCARouting(ft4, seed=3), traffic, 0.3, cfg)
        assert flat == vec

    def test_open_loop_worstcase_load(self, ft4):
        """High load keeps upward queues busy, exercising the live
        queue-length reads inside the same-cycle allocation scan."""
        traffic = UniformRandom(ft4.num_endpoints)
        flat = simulate(ft4, ANCARouting(ft4, seed=3), traffic, 0.9, CFG7)
        vec = vec_simulate(ft4, ANCARouting(ft4, seed=3), traffic, 0.9, CFG7)
        assert flat == vec

    @pytest.mark.parametrize("kind", ["alltoall", "halo2d"])
    def test_closed_loop(self, ft4, kind):
        wl = make_placed_workload(
            kind, ft4, 16, size_flits=4, iterations=1, placement="spread"
        )
        cfg = SimConfig(seed=11)
        flat = simulate_workload(ft4, ANCARouting(ft4, seed=3), wl, cfg)
        vec = vec_simulate_workload(ft4, ANCARouting(ft4, seed=3), wl, cfg)
        _assert_workload_equal(flat, vec)

    def test_telemetry_open_loop(self, ft4):
        """Armed probes must read identically off the adaptive scalar
        allocation path (occupancy decrements happen per grant there)."""
        tele = TelemetrySpec.full()
        traffic = UniformRandom(ft4.num_endpoints)
        flat = simulate(
            ft4, ANCARouting(ft4, seed=3), traffic, 0.4, CFG, telemetry=tele
        )
        vec = vec_simulate(
            ft4, ANCARouting(ft4, seed=3), traffic, 0.4, CFG, telemetry=tele
        )
        assert flat == vec
        assert tuple(flat.telemetry.channel_flits) == tuple(
            vec.telemetry.channel_flits
        )
        assert tuple(flat.telemetry.max_queue) == tuple(vec.telemetry.max_queue)


class TestDragonflyUGALEquivalence:
    """Dragonfly UGAL on DF h=3: 114 routers, so campaigns auto-upgrade
    these scenarios to ``cycle-vec``.  The group-Valiant candidates and
    canonical minimal paths must plan identically on both engines, off
    the same shared RNG and the same queue signal."""

    @pytest.fixture(scope="class")
    def df3_tables(self, df3):
        return RoutingTables(df3.adjacency)

    @pytest.mark.parametrize("telemetry", [None, TelemetrySpec.full()],
                             ids=["tele-off", "tele-full"])
    @pytest.mark.parametrize("pattern", ["uniform", "worstcase"])
    @pytest.mark.parametrize("mode", ["local", "global"],
                             ids=["DF-UGAL-L", "DF-UGAL-G"])
    def test_open_loop(self, df3, df3_tables, mode, pattern, telemetry):
        if pattern == "uniform":
            traffic = UniformRandom(df3.num_endpoints)
        else:
            traffic = DragonflyWorstCase(df3)

        def run(sim_fn):
            return sim_fn(
                df3, DragonflyUGAL(df3, df3_tables, mode=mode, seed=3),
                traffic, 0.3, CFG7, telemetry=telemetry,
            )

        flat, vec = run(simulate), run(vec_simulate)
        assert flat == vec
        if telemetry is not None:
            ft, vt = flat.telemetry, vec.telemetry
            assert tuple(ft.latency_hist) == tuple(vt.latency_hist)
            assert tuple(ft.channel_flits) == tuple(vt.channel_flits)
            assert tuple(ft.max_queue) == tuple(vt.max_queue)
            assert ft.route_packets == vt.route_packets
            assert ft.route_diverted == vt.route_diverted

    def test_closed_loop_alltoall(self, df3, df3_tables):
        wl = make_placed_workload(
            "alltoall", df3, 16, size_flits=4, iterations=1, placement="spread"
        )
        cfg = SimConfig(seed=11)

        def run(sim_fn):
            return sim_fn(
                df3, DragonflyUGAL(df3, df3_tables, mode="local", seed=3),
                wl, cfg,
            )

        _assert_workload_equal(
            run(simulate_workload), run(vec_simulate_workload)
        )


class TestScope:
    def test_per_hop_adaptive_constructs(self, ft4):
        """ANCA (neither table-driven nor source-routed) is in scope:
        construction selects the per-hop adaptive allocation path."""
        eng = VecEngine(
            ft4, ANCARouting(ft4, seed=0), UniformRandom(ft4.num_endpoints),
            0.3, CFG,
        )
        assert eng._adaptive is not None


def _closed_campaign():
    """A two-scenario closed-loop campaign at SF q=7 (98 routers — the
    cycle->cycle-vec auto-default threshold)."""
    from repro.scenarios import (
        Campaign,
        RoutingSpec,
        Scenario,
        TopologySpec,
        WorkloadSpec,
    )

    def scen(kind, routing, params):
        return Scenario(
            topology=TopologySpec("SF", params={"q": 7}),
            routing=RoutingSpec(routing, params),
            sim=SimConfig(seed=11),
            workload=WorkloadSpec(kind, ranks=16, size_flits=4, iterations=1),
            max_cycles=20_000,
            label=f"sf7/{kind}/{routing}",
        )

    return Campaign(
        "vec-closed",
        [scen("halo2d", "min", {}), scen("alltoall", "ugal-l", {"seed": 3})],
    )


class TestCampaignAndService:
    """Campaign-level byte identity through the auto-default: at q=7 a
    default-``cycle`` closed-loop scenario resolves to ``cycle-vec``
    execution, and the rows must stay byte-identical for any worker
    count and through the service execution path — with the published
    ``fidelity`` key still reporting the spec's backend."""

    def test_auto_upgrade_resolves_to_vec(self):
        from repro.scenarios.resolve import resolve

        for s in _closed_campaign().scenarios:
            assert s.backend == "cycle"
            assert resolve(s).backend == "cycle-vec"

    def test_worker_count_byte_identity(self, tmp_path):
        from repro.scenarios import run_campaign

        campaign = _closed_campaign()
        a = tmp_path / "w1.jsonl"
        b = tmp_path / "w2.jsonl"
        run_campaign(campaign, workers=1, out=a)
        run_campaign(campaign, workers=2, out=b)
        assert a.read_bytes() == b.read_bytes()

    def test_rows_report_spec_fidelity(self, tmp_path):
        import json

        from repro.scenarios import run_campaign

        out = tmp_path / "rows.jsonl"
        run_campaign(_closed_campaign(), out=out)
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert rows
        assert all(r["fidelity"] == "cycle" for r in rows)

    def test_service_unit_byte_identity(self):
        from repro.service.units import UnitEntry, execute_unit

        scenarios = _closed_campaign().scenarios
        entries = [
            UnitEntry(index=i, of=len(scenarios), scenario=s)
            for i, s in enumerate(scenarios)
        ]
        p1, n1 = execute_unit("vec-closed", "closed", entries, workers=1)
        p2, n2 = execute_unit("vec-closed", "closed", entries, workers=2)
        assert p1 == p2
        assert n1 == n2 == len(scenarios)

    def test_vec_backend_task_matches_cycle_task(self, sf5, sf5_tables):
        """CompletionTask.backend dispatch: the same batch run on both
        fidelities returns identical WorkloadResults."""
        from repro.sim import CompletionTask, parallel_workload_completion

        wl = make_placed_workload(
            "ring-allreduce", sf5, 16, size_flits=4, iterations=1,
            placement="spread",
        )
        cfg = SimConfig(seed=11)

        def tasks(backend):
            return [
                CompletionTask(
                    topology=sf5,
                    routing_factory=lambda: UGALRouting(
                        sf5_tables, "local", seed=3
                    ),
                    workload=wl,
                    config=cfg,
                    backend=backend,
                )
            ]

        (flat,) = parallel_workload_completion(tasks("cycle"), workers=1)
        (vec,) = parallel_workload_completion(tasks("cycle-vec"), workers=1)
        _assert_workload_equal(flat, vec)
