"""The flat engine's determinism contract (DESIGN.md).

The flat struct-of-arrays engine must reproduce the frozen seed
implementation (:mod:`repro.sim.reference`) *bit for bit* for any
seed: same RNG draw order, same switch-allocation tie-breaks, same
event orderings.  These tests run both engines over a matrix of
routing algorithms, traffic patterns, loads and packet lengths and
require identical :class:`~repro.sim.stats.SimResult` rows — the
"latency_vs_load results identical before/after the refactor"
acceptance criterion, kept alive as a regression gate.

Also here: the memory-flatness guarantee.  The seed engine tracked
channel/ejection occupancy in unbounded dicts that grew for the whole
run; the flat engine preallocates fixed-size arrays.
"""

import pytest

from repro.routing import MinimalRouting, UGALRouting, ValiantRouting
from repro.sim import SimConfig, SimEngine, latency_vs_load, simulate
from repro.sim.engine_vec import vec_simulate
from repro.sim.reference import ReferenceEngine, reference_simulate
from repro.traffic import (
    ShiftPattern,
    ShufflePattern,
    SlimFlyWorstCase,
    TrafficPattern,
    UniformRandom,
)

CFG = SimConfig(warmup_cycles=120, measure_cycles=300, drain_cycles=1500, seed=11)


class TestBitwiseEquivalence:
    @pytest.mark.parametrize("load", [0.05, 0.3, 0.6, 0.9])
    def test_min_uniform(self, sf5, sf5_tables, load):
        traffic = UniformRandom(sf5.num_endpoints)
        ref = reference_simulate(sf5, MinimalRouting(sf5_tables), traffic, load, CFG)
        flat = simulate(sf5, MinimalRouting(sf5_tables), traffic, load, CFG)
        assert ref == flat

    def test_min_uniform_sweep_rows(self, sf5, sf5_tables):
        """Whole latency_vs_load curves agree point by point."""
        traffic = UniformRandom(sf5.num_endpoints)
        loads = [0.1, 0.4, 0.7, 0.85]
        flat_points = latency_vs_load(
            sf5, lambda: MinimalRouting(sf5_tables), traffic, loads=loads, config=CFG
        )
        ref_results = [
            reference_simulate(sf5, MinimalRouting(sf5_tables), traffic, load, CFG)
            for load in loads
        ]
        for pt, ref in zip(flat_points, ref_results):
            if not pt.saturated or pt.latency is not None:
                assert pt.latency == ref.avg_latency
                assert pt.accepted == ref.accepted_load
            assert pt.saturated == ref.saturated

    @pytest.mark.parametrize(
        "make_routing",
        [
            lambda t: ValiantRouting(t, seed=3),
            lambda t: UGALRouting(t, "local", seed=3),
            lambda t: UGALRouting(t, "global", seed=3),
        ],
        ids=["VAL", "UGAL-L", "UGAL-G"],
    )
    def test_stochastic_routings(self, sf5, sf5_tables, make_routing):
        traffic = UniformRandom(sf5.num_endpoints)
        ref = reference_simulate(sf5, make_routing(sf5_tables), traffic, 0.4, CFG)
        flat = simulate(sf5, make_routing(sf5_tables), traffic, 0.4, CFG)
        assert ref == flat

    def test_worst_case_pattern(self, sf5, sf5_tables):
        wc = SlimFlyWorstCase(sf5, sf5_tables, seed=2)
        ref = reference_simulate(sf5, MinimalRouting(sf5_tables), wc, 0.3, CFG)
        flat = simulate(sf5, MinimalRouting(sf5_tables), wc, 0.3, CFG)
        assert ref == flat

    @pytest.mark.parametrize("make_pattern", [
        lambda n: ShufflePattern(n),
        lambda n: ShiftPattern(n),
    ], ids=["shuffle", "shift"])
    def test_vectorised_fixed_patterns(self, sf5, sf5_tables, make_pattern):
        """The batched (ndarray) destinations of bit/shift patterns
        feed the flat engine's fast path; results must still match the
        reference engine's scalar per-source draws — including RNG
        stream alignment for the coin-flipping shift pattern."""
        pat = make_pattern(sf5.num_endpoints)
        ref = reference_simulate(sf5, MinimalRouting(sf5_tables), pat, 0.4, CFG)
        flat = simulate(sf5, MinimalRouting(sf5_tables), pat, 0.4, CFG)
        assert ref == flat

    @pytest.mark.parametrize(
        "make_routing",
        [lambda t: MinimalRouting(t), lambda t: UGALRouting(t, "local", seed=3)],
        ids=["MIN", "UGAL-L"],
    )
    def test_scalar_only_pattern_with_idle_slots(self, sf5, sf5_tables, make_routing):
        """A pattern that defines only ``destination`` batches through
        the base class: idle slots come back as ``dst == src`` for the
        engines' self-traffic filter, drawn in the scalar order the
        reference engine uses."""

        class EveryThirdIdle(TrafficPattern):
            def destination(self, src_endpoint, rng):
                if src_endpoint % 3 == 0:
                    return None
                return int(rng.integers(sf5.num_endpoints))  # may be itself

        pat = EveryThirdIdle()
        ref = reference_simulate(sf5, make_routing(sf5_tables), pat, 0.4, CFG)
        assert ref.accepted_load > 0
        assert simulate(sf5, make_routing(sf5_tables), pat, 0.4, CFG) == ref
        assert vec_simulate(sf5, make_routing(sf5_tables), pat, 0.4, CFG) == ref

    @pytest.mark.parametrize("length", [2, 4])
    def test_multiflit(self, sf5, sf5_tables, length):
        cfg = SimConfig(
            packet_length=length, warmup_cycles=120, measure_cycles=300,
            drain_cycles=2500, seed=4,
        )
        traffic = UniformRandom(sf5.num_endpoints)
        ref = reference_simulate(sf5, MinimalRouting(sf5_tables), traffic, 0.3, cfg)
        flat = simulate(sf5, MinimalRouting(sf5_tables), traffic, 0.3, cfg)
        assert ref == flat


class TestMemoryStaysFlat:
    """The busy-until state is fixed-size, however long the run."""

    def _engine(self, sf5, sf5_tables, cycles):
        cfg = SimConfig(
            packet_length=4,
            warmup_cycles=cycles // 2,
            measure_cycles=cycles // 2,
            drain_cycles=2500,
            seed=6,
        )
        return SimEngine(
            sf5, MinimalRouting(sf5_tables), UniformRandom(sf5.num_endpoints),
            0.3, cfg,
        )

    def test_flat_state_sizes_independent_of_run_length(self, sf5, sf5_tables):
        short = self._engine(sf5, sf5_tables, 200)
        long = self._engine(sf5, sf5_tables, 1600)
        sizes = []
        for eng in (short, long):
            eng.run()
            net = eng.net
            sizes.append(
                (
                    len(net.channel_busy_until),
                    len(net.eject_busy_until),
                    len(net.credits_flat),
                    len(net.in_fifo),
                    len(eng._arr_wheel),
                    len(eng._credit_wheel),
                )
            )
        assert sizes[0] == sizes[1]
        assert sizes[0][0] == short.net.num_channels
        assert sizes[0][1] == sf5.num_endpoints
        # The ndarray views expose the same fixed shapes.
        assert long.net.channel_busy_array.shape == (long.net.num_channels,)
        assert long.net.eject_busy_array.shape == (sf5.num_endpoints,)
        assert long.net.credits.shape == (long.net.num_channels, long.net.num_vcs)

    def test_seed_engine_busy_dicts_grew_unboundedly(self, sf5, sf5_tables):
        """Document the leak the refactor removed: the reference's
        busy-until dicts accumulate one entry per channel/endpoint
        ever touched and were never pruned."""
        cfg = SimConfig(
            packet_length=4, warmup_cycles=100, measure_cycles=100,
            drain_cycles=2500, seed=6,
        )
        eng = ReferenceEngine(
            sf5, MinimalRouting(sf5_tables), UniformRandom(sf5.num_endpoints),
            0.3, cfg,
        )
        eng.run()
        assert len(eng._channel_busy_until) > 100
        assert len(eng._eject_busy_until) > 100
