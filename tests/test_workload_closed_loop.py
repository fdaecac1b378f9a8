"""Closed-loop engine tests: dependency-gated injection, completion
accounting, determinism across worker counts, and the completion-time
experiment (the ISSUE 2 acceptance criteria)."""

import pytest

from repro.analysis import claims
from repro.experiments.common import Scale
from repro.experiments.runner import EXPERIMENTS, run_experiment
from repro.routing import ANCARouting, MinimalRouting, UGALRouting, ValiantRouting
from repro.sim import (
    ClosedLoopEngine,
    CompletionTask,
    SimConfig,
    SimEngine,
    simulate_workload,
    parallel_workload_completion,
)
from repro.traffic import UniformRandom
from repro.workloads import (
    AllToAll,
    BroadcastTree,
    Message,
    RingAllReduce,
    TraceWorkload,
    make_workload,
    read_trace,
    write_trace,
)

CFG = SimConfig(seed=9)


class TestClosedLoopBasics:
    def test_alltoall_completes(self, sf5, sf5_tables):
        wl = AllToAll(16, 4)
        res = simulate_workload(sf5, MinimalRouting(sf5_tables), wl, CFG)
        assert res.finished
        assert res.completed_messages == res.num_messages == 16 * 15
        assert res.delivered_flits == 16 * 15 * 4
        assert set(res.message_completions) == {m.mid for m in wl.messages()}
        assert res.makespan == max(res.message_completions.values())
        assert res.makespan <= res.cycles
        assert res.avg_message_latency > 0

    def test_dependencies_gate_injection(self, sf5, sf5_tables):
        """No message becomes ready before every dependency completed."""
        wl = RingAllReduce(12, 24)
        res = simulate_workload(sf5, MinimalRouting(sf5_tables), wl, CFG)
        assert res.finished
        for m in wl.messages():
            for d in m.deps:
                assert res.message_completions[d] <= res.message_ready[m.mid]

    def test_deterministic_across_runs(self, sf5, sf5_tables):
        wl = AllToAll(16, 4)
        a = simulate_workload(sf5, UGALRouting(sf5_tables, "local", seed=3), wl, CFG)
        b = simulate_workload(sf5, UGALRouting(sf5_tables, "local", seed=3), wl, CFG)
        assert a == b

    def test_multiflit_segmentation(self, sf5, sf5_tables):
        """A 10-flit message under 4-flit packets is 3 packets; the
        injected packet count shows the segmentation."""
        cfg = SimConfig(seed=9, packet_length=4)
        msgs = [Message(0, 0, 60, 10), Message(1, 60, 0, 10, deps=(0,))]
        engine = ClosedLoopEngine(sf5, MinimalRouting(sf5_tables), msgs, cfg)
        res = engine.run()
        assert res.finished
        assert engine.measured_injected == 6  # 2 messages x 3 packets
        # A dependent may not start before the dependency's tail flit
        # fully ejected, and the run must account the final tail.
        assert res.message_completions[0] <= res.message_ready[1]
        assert res.makespan <= res.cycles

    def test_loopback_messages_complete_instantly(self, sf5, sf5_tables):
        msgs = [
            Message(0, 5, 5, 8),  # same endpoint: no network traversal
            Message(1, 5, 50, 8, deps=(0,)),
        ]
        res = simulate_workload(sf5, MinimalRouting(sf5_tables), msgs, CFG)
        assert res.finished
        assert res.message_completions[0] == res.message_ready[0]

    def test_unsatisfiable_deps_reported_not_hung(self, sf5, sf5_tables):
        """A dependency cycle (only expressible via raw messages)
        stalls: the engine detects quiescence and reports a partial,
        unfinished run instead of spinning to the cycle cap."""
        msgs = [
            Message(0, 0, 9, 4, deps=(1,)),
            Message(1, 9, 0, 4, deps=(0,)),
        ]
        res = simulate_workload(sf5, MinimalRouting(sf5_tables), msgs, CFG)
        assert not res.finished
        assert res.completed_messages == 0
        assert res.cycles < 1000
        # Determinism equality must survive the NaN latency fields of
        # a run where nothing completed.
        again = simulate_workload(sf5, MinimalRouting(sf5_tables), msgs, CFG)
        assert res == again

    def test_open_loop_engine_untouched(self, sf5, sf5_tables):
        """The hook that powers closed-loop stays disabled open-loop."""
        eng = SimEngine(
            sf5, MinimalRouting(sf5_tables), UniformRandom(sf5.num_endpoints),
            0.3, SimConfig(warmup_cycles=50, measure_cycles=100, drain_cycles=500),
        )
        assert eng._deliver_hook is None
        eng.run()


class TestRoutingProtocols:
    @pytest.mark.parametrize("make_routing", [
        lambda t, topo: MinimalRouting(t),
        lambda t, topo: ValiantRouting(t, seed=1),
        lambda t, topo: UGALRouting(t, "local", seed=1),
    ], ids=["MIN", "VAL", "UGAL-L"])
    def test_slimfly_protocols_complete(self, sf5, sf5_tables, make_routing):
        wl = BroadcastTree(20, 16)
        res = simulate_workload(
            sf5, make_routing(sf5_tables, sf5), wl, CFG
        )
        assert res.finished

    def test_per_hop_adaptive_fattree(self, ft4):
        wl = AllToAll(12, 4)
        res = simulate_workload(ft4, ANCARouting(ft4, seed=1), wl, CFG)
        assert res.finished


class TestWorkerDeterminism:
    """Acceptance: per-message completion times identical for any
    ``--workers`` count."""

    def _tasks(self, sf5, sf5_tables):
        return [
            CompletionTask(
                sf5, lambda: MinimalRouting(sf5_tables), AllToAll(16, 4), CFG,
                label="min/alltoall",
            ),
            CompletionTask(
                sf5, lambda: UGALRouting(sf5_tables, "local", seed=3),
                RingAllReduce(12, 24), CFG, label="ugal/ring",
            ),
            CompletionTask(
                sf5, lambda: ValiantRouting(sf5_tables, seed=3),
                BroadcastTree(20, 16), CFG, label="val-broadcast",
            ),
        ]

    def test_results_identical_for_any_worker_count(self, sf5, sf5_tables):
        runs = [
            parallel_workload_completion(self._tasks(sf5, sf5_tables), workers=w)
            for w in (1, 2, 3)
        ]
        assert runs[0] == runs[1] == runs[2]
        # Equality covers every per-message completion timestamp.
        assert runs[0][0].message_completions

    def test_empty_task_list(self):
        assert parallel_workload_completion([], workers=4) == []


class TestTraceReplayThroughEngine:
    def test_recorded_run_reexports_and_replays(self, sf5, sf5_tables, tmp_path):
        wl = make_workload("gather", 12, 4)
        res = simulate_workload(sf5, MinimalRouting(sf5_tables), wl, CFG)
        path = tmp_path / "run.jsonl"
        write_trace(wl, path, completions=res.message_completions)
        replay = read_trace(path)
        res2 = simulate_workload(sf5, MinimalRouting(sf5_tables), replay, CFG)
        # Same DAG on the same network: identical schedule.
        assert res2.message_completions == res.message_completions
        assert res2.makespan == res.makespan


class TestCompletionExperiment:
    def test_registered_with_runner(self):
        assert "workload_completion" in EXPERIMENTS

    def test_quick_run_all_protocols(self):
        result = run_experiment(
            "workload_completion", Scale.QUICK, seed=0,
            workload="broadcast", workers=2, ranks=12, message_flits=4,
        )
        assert {
            v.claim.id: v.status
            for v in map(claims.parse, result.notes) if v is not None
        } == {
            "workload.sf-min-trees": claims.REPRODUCED,
            "workload.ugal-beats-val": claims.REPRODUCED,
            "workload.ft-alltoall": claims.UNTESTED,  # broadcast only
        }
        headers, rows = result.tables[0]
        assert len(rows) == 5  # SF-MIN/VAL/UGAL-L, DF-UGAL-L, FT-ANCA
        assert all(row[-1] for row in rows)  # every protocol finished

    def test_workers_do_not_change_experiment_output(self):
        kw = dict(workload="alltoall", ranks=10, message_flits=2)
        a = run_experiment("workload_completion", Scale.QUICK, seed=0, workers=1, **kw)
        b = run_experiment("workload_completion", Scale.QUICK, seed=0, workers=3, **kw)
        assert a.tables == b.tables

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload"):
            run_experiment(
                "workload_completion", Scale.QUICK, seed=0, workload="fft"
            )
