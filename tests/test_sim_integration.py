"""Cross-module integration: full simulations on DF and FT, pattern ×
protocol sweeps, and the paper's §V headline comparisons at small scale."""

import pytest

from repro.routing import (
    ANCARouting,
    DragonflyUGAL,
    MinimalRouting,
    RoutingTables,
    UGALRouting,
    ValiantRouting,
)
from repro.experiments.common import Scale, sim_config_for
from repro.sim import SimConfig, simulate
from repro.traffic import (
    BitReversalPattern,
    DragonflyWorstCase,
    FatTreeWorstCase,
    ShiftPattern,
    ShufflePattern,
    SlimFlyWorstCase,
    UniformRandom,
)

CFG = SimConfig(warmup_cycles=120, measure_cycles=350, drain_cycles=1800, seed=9)
#: The Fig 6 experiments' quick-scale windows.
QUICK = sim_config_for(Scale.QUICK)


class TestDragonflySim:
    def test_df_ugal_delivers(self, df3):
        tables = RoutingTables(df3.adjacency)
        res = simulate(
            df3, DragonflyUGAL(df3, tables, seed=1), UniformRandom(342), 0.2, CFG
        )
        assert res.delivered == res.injected
        assert not res.saturated

    def test_df_worstcase_minimal_collapses(self, df3):
        tables = RoutingTables(df3.adjacency)
        wc = DragonflyWorstCase(df3)
        from repro.routing import DragonflyMinimal

        res = simulate(df3, DragonflyMinimal(df3, tables), wc, 0.3, CFG)
        # All group-i traffic shares one global cable: heavy saturation.
        assert res.saturated
        assert res.accepted_load < 0.2

    def test_df_worstcase_ugal_recovers(self, df3):
        tables = RoutingTables(df3.adjacency)
        wc = DragonflyWorstCase(df3)
        ugal = simulate(df3, DragonflyUGAL(df3, tables, seed=1), wc, 0.15, CFG)
        assert ugal.accepted_load >= 0.10


class TestFatTreeSim:
    def test_anca_uniform(self, ft4):
        res = simulate(ft4, ANCARouting(ft4, seed=0), UniformRandom(64), 0.3, CFG)
        assert res.delivered == res.injected
        assert not res.saturated

    def test_anca_worstcase_sustains_high_load(self, ft4):
        """Full-bisection FT keeps high worst-case bandwidth (§V-C)."""
        wc = FatTreeWorstCase(ft4)
        res = simulate(ft4, ANCARouting(ft4, seed=0), wc, 0.55, CFG)
        assert res.accepted_load >= 0.45


class TestHeadlineComparisons:
    """The §V claims, at reduced scale."""

    def test_sf_lower_latency_than_df_and_ft(self, sf5, sf5_tables, df3, ft4):
        load = 0.2
        sf_lat = simulate(
            sf5, MinimalRouting(sf5_tables), UniformRandom(200), load, CFG
        ).avg_latency
        df_tables = RoutingTables(df3.adjacency)
        df_lat = simulate(
            df3, DragonflyUGAL(df3, df_tables, seed=1), UniformRandom(342), load, CFG
        ).avg_latency
        ft_lat = simulate(
            ft4, ANCARouting(ft4, seed=1), UniformRandom(64), load, CFG
        ).avg_latency
        assert sf_lat < df_lat
        assert sf_lat < ft_lat

    def test_val_saturates_below_half(self, sf5, sf5_tables):
        res = simulate(
            sf5, ValiantRouting(sf5_tables, seed=2), UniformRandom(200), 0.55, CFG
        )
        assert res.saturated

    def test_min_nearly_full_uniform_bandwidth(self, sf5, sf5_tables):
        res = simulate(sf5, MinimalRouting(sf5_tables), UniformRandom(200), 0.7, CFG)
        assert not res.saturated

    def test_worstcase_min_collapse_and_ugal_recovery(self, sf5, sf5_tables):
        wc = SlimFlyWorstCase(sf5, sf5_tables, seed=2)
        p = sf5.concentration
        min_res = simulate(sf5, MinimalRouting(sf5_tables), wc, 0.4, CFG)
        assert min_res.saturated
        assert min_res.accepted_load <= 1.5 / p  # ≈ 1/(2p) bound, slack 3x
        ugal_res = simulate(
            sf5, UGALRouting(sf5_tables, "local", seed=2), wc, 0.4, CFG
        )
        assert ugal_res.accepted_load >= 2 * min_res.accepted_load

    def test_ugal_g_latency_beats_ugal_l(self, sf5, sf5_tables):
        load = 0.5
        lat_l = simulate(
            sf5, UGALRouting(sf5_tables, "local", seed=3), UniformRandom(200), load, CFG
        ).avg_latency
        lat_g = simulate(
            sf5, UGALRouting(sf5_tables, "global", seed=3), UniformRandom(200), load, CFG
        ).avg_latency
        assert lat_g <= lat_l * 1.1  # G sees everything: no worse


class TestPermutationPatternsThroughSim:
    @pytest.mark.parametrize(
        "pattern_cls, seed, cfg",
        [
            pytest.param(ShufflePattern, 4, CFG, id="ShufflePattern"),
            pytest.param(BitReversalPattern, 4, CFG, id="BitReversalPattern"),
            # The Fig 6b and 6c points at quick scale: SF q=5, UGAL-L.
            pytest.param(BitReversalPattern, 0, QUICK, id="fig6b-quick"),
            pytest.param(ShiftPattern, 0, QUICK, id="fig6c-quick"),
        ],
    )
    def test_bit_patterns_deliver(self, sf5, sf5_tables, pattern_cls, seed, cfg):
        tr = pattern_cls(sf5.num_endpoints)  # bit patterns: 128 active of 200
        res = simulate(sf5, UGALRouting(sf5_tables, "local", seed=seed), tr, 0.25, cfg)
        assert res.delivered == res.injected
        assert res.delivered > 0
        assert not res.saturated
