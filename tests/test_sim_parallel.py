"""Tests for the parallel sweep orchestrator (repro.sim.parallel).

Covers the sweep-behavior checklist: serial-vs-parallel row equality,
seed determinism across worker counts, the saturation short-circuit,
replica aggregation, and the walk's simulation count on every backend.
"""

import pytest

from repro.routing import MinimalRouting, ValiantRouting
from repro.sim import (
    SimConfig,
    TelemetrySpec,
    latency_vs_load,
    parallel_latency_vs_load,
    replica_seed,
    simulations_started,
)
from repro.sim.parallel import resolve_workers
from repro.traffic import UniformRandom

CFG = SimConfig(warmup_cycles=100, measure_cycles=250, drain_cycles=1200, seed=5)
LOADS = [0.1, 0.35, 0.6, 0.85]


@pytest.fixture
def uniform(sf5):
    return UniformRandom(sf5.num_endpoints)


#: VAL curves on SF q=5, memoized across the short-circuit cases.
_VAL_CURVES: dict = {}


def val_curve(sf5, tables, traffic, loads, workers, replicas=1, stop=1):
    """A memoized VAL curve; ``workers=None`` is the serial sweep."""
    key = (tuple(loads), workers, replicas, stop)
    if key not in _VAL_CURVES:
        factory = lambda: ValiantRouting(tables, seed=1)  # noqa: E731
        if workers is None:
            curve = latency_vs_load(
                sf5, factory, traffic, loads=loads, config=CFG,
                stop_after_saturation=stop,
            )
        else:
            curve = parallel_latency_vs_load(
                sf5, factory, traffic, loads=loads, config=CFG,
                workers=workers, replicas=replicas, stop_after_saturation=stop,
            )
        _VAL_CURVES[key] = curve
    return _VAL_CURVES[key]


#: Every short-circuit case runs at each of these fan-outs.
_FAN_OUT_CASES = [(w, r, s) for w in (1, 2, 3, 4) for r in (1, 2) for s in (1, 2)]
FAN_OUTS = pytest.mark.parametrize(
    "workers,replicas,stop", _FAN_OUT_CASES,
    ids=[f"w{w}-r{r}-stop{s}" for w, r, s in _FAN_OUT_CASES],
)


class TestSerialParallelEquivalence:
    def test_rows_identical_to_serial_sweep(self, sf5, sf5_tables, uniform):
        serial = latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS, config=CFG
        )
        parallel = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=3,
        )
        assert serial == parallel

    def test_deterministic_across_worker_counts(self, sf5, sf5_tables, uniform):
        curves = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
                config=CFG, workers=w,
            )
            for w in (1, 2, 4)
        ]
        assert curves[0] == curves[1] == curves[2]

    def test_unpicklable_routing_factory_is_fine(self, sf5, sf5_tables, uniform):
        """Closures fan out via fork inheritance, not pickling."""
        tables = sf5_tables
        factory = lambda: MinimalRouting(tables)  # noqa: E731 - the point
        points = parallel_latency_vs_load(
            sf5, factory, uniform, loads=[0.2, 0.5], config=CFG, workers=2
        )
        assert len(points) == 2
        assert not points[0].saturated


class TestCycleVecDispatch:
    """backend='cycle-vec' rides the same fork pool as 'cycle': rows
    must be identical across worker counts and equal to the cycle rows
    (the vectorised engine's bit-exactness carried to sweep level)."""

    def test_rows_identical_across_worker_counts(self, sf5, sf5_tables, uniform):
        rows = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
                config=CFG, workers=w, backend="cycle-vec",
            )
            for w in (1, 2, 4)
        ]
        assert rows[0] == rows[1] == rows[2]

    def test_rows_equal_cycle_backend(self, sf5, sf5_tables, uniform):
        vec = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=2, backend="cycle-vec",
        )
        cyc = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform, loads=LOADS,
            config=CFG, workers=2, backend="cycle",
        )
        assert vec == cyc

    def test_replicated_rows_deterministic(self, sf5, sf5_tables, uniform):
        rows = [
            parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=3), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, replicas=2,
                backend="cycle-vec",
            )
            for w in (1, 4)
        ]
        assert rows[0] == rows[1]


class TestSaturationShortCircuit:
    """Each case at workers x replicas x stop_after_saturation, against
    its ``workers=1`` curve (and, at one replica, the serial sweep)."""

    @staticmethod
    def checked_curve(sf5, sf5_tables, uniform, loads, workers, replicas, stop):
        curve = val_curve(sf5, sf5_tables, uniform, loads, workers, replicas, stop)
        baseline = val_curve(sf5, sf5_tables, uniform, loads, 1, replicas, stop)
        assert curve == baseline
        if replicas == 1:
            assert baseline == val_curve(sf5, sf5_tables, uniform, loads, None, 1, stop)
        return curve

    @FAN_OUTS
    def test_tail_marked_not_simulated(
        self, sf5, sf5_tables, uniform, workers, replicas, stop
    ):
        """VAL saturates near 0.5; later loads must come back marked
        (latency None) exactly as the workers=1 sweep reports them."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        curve = self.checked_curve(
            sf5, sf5_tables, uniform, loads, workers, replicas, stop
        )
        marked = [pt for pt in curve if pt.latency is None and pt.saturated]
        assert marked, "expected short-circuited tail points"

    @FAN_OUTS
    def test_stop_after_two(self, sf5, sf5_tables, uniform, workers, replicas, stop):
        loads = [0.55, 0.7, 0.85, 0.95]
        curve = self.checked_curve(
            sf5, sf5_tables, uniform, loads, workers, replicas, stop
        )
        # Every point saturates: exactly ``stop`` are simulated.
        assert [pt.latency is None for pt in curve] == [False] * stop + [True] * (
            len(loads) - stop
        )

    @FAN_OUTS
    def test_fill_rows_carry_last_accepted(
        self, sf5, sf5_tables, uniform, workers, replicas, stop
    ):
        """Short-circuited rows report the last measured accepted
        throughput (the plateau) instead of a hole: fig6/fig8 tables
        render a complete accepted column past the cutoff."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        curve = self.checked_curve(
            sf5, sf5_tables, uniform, loads, workers, replicas, stop
        )
        # The point that completes ``stop`` consecutive saturated points
        # is the last one simulated; every later row is a fill.
        run = 0
        for last, pt in enumerate(curve):
            run = run + 1 if pt.saturated else 0
            if run == stop:
                break
        fills = curve[last + 1 :]
        assert fills, "expected short-circuited tail points"
        assert curve[last].accepted is not None
        for pt in fills:
            assert pt.saturated and pt.latency is None
            assert pt.accepted == curve[last].accepted


class TestSimulationCount:
    """The walk counts what it schedules, whichever entry point runs it."""

    def test_latency_vs_load_counts_its_simulations(self, sf5, sf5_tables, uniform):
        before = simulations_started()
        latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=[0.2, 0.5], config=CFG,
        )
        assert simulations_started() - before == 2

    def test_flow_ignores_workers_and_replicas(self, sf5, sf5_tables, uniform):
        """flow is a pure function of its inputs: one in-process solve
        per load up to the cutoff, at any workers and replicas."""
        runs = []
        for workers, replicas in ((1, 1), (4, 3)):
            before = simulations_started()
            rows = parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
                loads=[0.2, 0.5, 0.8, 0.95, 1.0], config=CFG,
                workers=workers, replicas=replicas, backend="flow",
            )
            runs.append((rows, simulations_started() - before))
        assert runs[0] == runs[1]
        assert runs[0][1] == 3

    def test_without_fork_waves_hold_one_point(
        self, sf5, sf5_tables, uniform, monkeypatch
    ):
        """A platform without ``fork`` runs the serial walk: no wave
        overshoots the cutoff, whatever ``workers`` says."""
        loads = [0.3, 0.55, 0.7, 0.85, 0.95]
        monkeypatch.setattr("repro.sim.parallel._fork_context", lambda: None)
        before = simulations_started()
        curve = parallel_latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=loads, config=CFG, workers=4,
        )
        assert simulations_started() - before == 2  # 0.3, then 0.55 saturates
        assert curve == val_curve(sf5, sf5_tables, uniform, loads, 1)


class TestReplicas:
    def test_replica_seeds_are_stable_and_distinct(self):
        seeds = [replica_seed(5, r) for r in range(4)]
        assert seeds[0] == 5  # replica 0 keeps the config seed
        assert len(set(seeds)) == 4
        assert seeds == [replica_seed(5, r) for r in range(4)]

    def test_replicated_rows_deterministic_across_workers(
        self, sf5, sf5_tables, uniform
    ):
        curves = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, replicas=3,
            )
            for w in (1, 3)
        ]
        assert curves[0] == curves[1]

    def test_replica_mean_close_to_single_seed(self, sf5, sf5_tables, uniform):
        single = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=[0.3], config=CFG, workers=1,
        )[0]
        averaged = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=[0.3], config=CFG, workers=1, replicas=3,
        )[0]
        assert averaged.latency == pytest.approx(single.latency, rel=0.2)
        assert averaged.accepted == pytest.approx(single.accepted, rel=0.1)
        assert not averaged.saturated

    def test_replicas_must_be_positive(self, sf5, sf5_tables, uniform):
        with pytest.raises(ValueError):
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2], config=CFG, replicas=0,
            )


class TestTelemetrySweeps:
    """Telemetry attachments through the fork pool: LoadPoints must
    carry identical probe payloads at any worker count, on both
    batched backends, and replica merging must be deterministic."""

    TELE = TelemetrySpec.full()

    @staticmethod
    def _payload(points):
        return [
            (
                tuple(pt.telemetry.latency_hist),
                tuple(pt.telemetry.channel_flits),
                tuple(pt.telemetry.max_queue),
                pt.telemetry.route_packets,
                pt.telemetry.route_diverted,
            )
            for pt in points
        ]

    @pytest.mark.parametrize("backend", ["cycle", "cycle-vec"])
    def test_identical_across_worker_counts(self, sf5, sf5_tables, uniform,
                                            backend):
        sweeps = [
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=w, backend=backend,
                telemetry=self.TELE,
            )
            for w in (1, 4)
        ]
        assert sweeps[0] == sweeps[1]
        assert self._payload(sweeps[0]) == self._payload(sweeps[1])

    def test_cycle_and_vec_payloads_equal(self, sf5, sf5_tables, uniform):
        cyc, vec = (
            parallel_latency_vs_load(
                sf5, lambda: MinimalRouting(sf5_tables), uniform,
                loads=[0.2, 0.5], config=CFG, workers=2, backend=b,
                telemetry=self.TELE,
            )
            for b in ("cycle", "cycle-vec")
        )
        assert self._payload(cyc) == self._payload(vec)

    def test_replica_merge_deterministic(self, sf5, sf5_tables, uniform):
        sweeps = [
            parallel_latency_vs_load(
                sf5, lambda: ValiantRouting(sf5_tables, seed=3), uniform,
                loads=[0.2], config=CFG, workers=w, replicas=2,
                telemetry=self.TELE,
            )
            for w in (1, 4)
        ]
        assert self._payload(sweeps[0]) == self._payload(sweeps[1])
        merged = sweeps[0][0].telemetry
        # Two replicas merged: histogram counts every delivery of both.
        assert sum(merged.latency_hist) > 0
        assert merged.cycles > 0

    def test_off_mode_rows_unchanged_and_unattached(self, sf5, sf5_tables,
                                                    uniform):
        plain = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=LOADS, config=CFG, workers=2,
        )
        off = parallel_latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), uniform,
            loads=LOADS, config=CFG, workers=2, telemetry=TelemetrySpec(),
        )
        assert plain == off
        assert all(pt.telemetry is None for pt in off)

    def test_short_circuit_fills_carry_no_telemetry(self, sf5, sf5_tables,
                                                    uniform):
        sweep = parallel_latency_vs_load(
            sf5, lambda: ValiantRouting(sf5_tables, seed=1), uniform,
            loads=[0.3, 0.55, 0.7, 0.85, 0.95], config=CFG, workers=2,
            stop_after_saturation=1, telemetry=self.TELE,
        )
        fills = [pt for pt in sweep if pt.latency is None and pt.saturated]
        assert fills, "expected short-circuited tail points"
        assert all(pt.telemetry is None for pt in fills)
        simulated = [pt for pt in sweep if pt.latency is not None]
        assert all(pt.telemetry is not None for pt in simulated)


class TestWorkerResolution:
    def test_auto_sizing(self):
        assert resolve_workers(None, 100) >= 1
        assert resolve_workers(0, 100) >= 1
        assert resolve_workers(8, 3) == 3  # bounded by task count
        assert resolve_workers(2, 100) == 2
