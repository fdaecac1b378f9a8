"""Tests for the cost and power models (§VI-B/C, Table IV)."""

import pytest

from repro.costmodel import (
    CABLE_MODELS,
    analytic_counts,
    analytic_network_cost,
    network_cost,
    network_power_watts,
    power_per_endpoint,
    table4_rows,
)
from repro.costmodel.cables import get_cable_model
from repro.costmodel.counts import (
    dragonfly_counts,
    fattree_counts,
    slimfly_counts,
    sweep_counts,
)
from repro.costmodel.routers import get_router_model, router_cost
from repro.topologies import Dragonfly, SlimFly


class TestCableModel:
    def test_paper_fdr10_fit(self):
        m = get_cable_model("mellanox-fdr10")
        # f(x) at 1 m, exact paper coefficients × 40 Gb/s.
        assert m.electric_cost(1.0) == pytest.approx(40 * (0.4079 + 0.5771))
        assert m.optical_cost(10.0) == pytest.approx(40 * (0.919 + 2.7452))
        assert not m.estimated

    def test_crossover(self):
        m = get_cable_model("mellanox-fdr10")
        x = m.crossover_length()
        # Electric cheaper below, optical cheaper above.
        assert m.electric_cost(x - 1) < m.optical_cost(x - 1)
        assert m.electric_cost(x + 1) > m.optical_cost(x + 1)
        assert 5.0 < x < 10.0  # paper Fig 13a: mid-single-digit meters

    def test_all_models_sane(self):
        for m in CABLE_MODELS.values():
            assert m.electric_cost(1.0) > 0
            assert m.optical_cost(1.0) > 0
            assert m.crossover_length() > 0

    def test_unknown_model(self):
        with pytest.raises(KeyError):
            get_cable_model("nope")


class TestRouterModel:
    def test_paper_fit(self):
        # f(k) = 350.4k − 892.3
        assert router_cost(43) == pytest.approx(350.4 * 43 - 892.3)

    def test_floor_at_tiny_radix(self):
        assert router_cost(1) > 0

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            get_router_model().cost(0)


class TestPower:
    def test_formula(self):
        # Nr·k·4 lanes·0.7 W
        assert network_power_watts(722, 43) == pytest.approx(722 * 43 * 2.8)

    def test_paper_sf_power_per_node(self):
        """Table IV: SF ≈ 8.02 W/node with k=43."""
        assert power_per_endpoint(722, 43, 10830) == pytest.approx(8.02, abs=0.05)

    def test_paper_df_power_per_node(self):
        assert power_per_endpoint(990, 43, 10890) == pytest.approx(10.9, abs=0.1)

    def test_rejects_bad(self):
        with pytest.raises(ValueError):
            power_per_endpoint(1, 1, 0)


class TestCounts:
    def test_dragonfly_exact_cables(self):
        """DF h=7: 9009 electric, 4851 fiber (Table IV's k=27 column)."""
        c = dragonfly_counts(h=7)
        assert c.electric_cables == 9009
        assert c.fiber_cables == 4851
        assert c.num_endpoints == 9702

    def test_slimfly_counts_match_layout_census(self, sf5):
        """Closed-form electric/fiber split equals the measured census."""
        from repro.layout import slimfly_racks

        c = slimfly_counts(5)
        electric, fiber, _ = slimfly_racks(sf5).cable_census(sf5)
        assert c.electric_cables == electric
        assert c.fiber_cables == fiber

    def test_fattree_counts(self):
        c = fattree_counts(22)
        assert c.num_routers == 5 * 22 * 22
        assert c.num_endpoints == 2 * 22**3
        assert c.fiber_cables == 4 * 22**3

    def test_dispatch(self):
        c = analytic_counts("HC", n_dims=8)
        assert c.num_routers == 256
        with pytest.raises(KeyError):
            analytic_counts("NOPE")

    def test_sweeps_monotone(self):
        for name in ("SF", "DF", "FT-3", "FBF-3", "HC", "T3D"):
            sizes = [c.num_endpoints for c in sweep_counts(name, 20000)]
            assert sizes == sorted(sizes)
            assert all(s <= 20000 for s in sizes)


class TestCost:
    def test_exact_vs_analytic_slimfly_close(self, sf5):
        exact = network_cost(sf5)
        analytic = analytic_network_cost(slimfly_counts(5))
        assert exact.total_cost == pytest.approx(analytic.total_cost, rel=0.15)

    def test_report_identities(self, sf5):
        rep = network_cost(sf5)
        assert rep.total_cost == pytest.approx(rep.router_cost + rep.cable_cost)
        assert rep.cost_per_endpoint == pytest.approx(rep.total_cost / 200)
        assert rep.electric_cables + rep.fiber_cables == sf5.num_links

    def test_endpoint_cables_toggle(self, sf5):
        with_e = network_cost(sf5, include_endpoint_cables=True)
        without = network_cost(sf5, include_endpoint_cables=False)
        assert with_e.total_cost > without.total_cost


class TestTable4:
    @pytest.fixture(scope="class")
    def rows(self):
        return table4_rows()

    def test_fourteen_rows(self, rows):
        assert len(rows) == 14

    def test_sf_beats_df_by_about_quarter(self, rows):
        sf = next(r for r in rows if r.counts.name == "SF")
        df_same = [
            r for r in rows
            if r.counts.name == "DF" and r.group == "high-radix same-k"
        ]
        comparable_df = min(df_same, key=lambda r: abs(r.counts.num_endpoints - 10830))
        saving = 1 - sf.cost_per_node / comparable_df.cost_per_node
        assert 0.10 <= saving <= 0.40  # paper: ≈25%

    def test_sf_cheapest(self, rows):
        sf = next(r for r in rows if r.counts.name == "SF")
        assert all(sf.cost_per_node <= r.cost_per_node for r in rows)

    def test_sf_lowest_power(self, rows):
        sf = next(r for r in rows if r.counts.name == "SF")
        for r in rows:
            if r.counts.name != "SF":
                assert sf.power_per_node_w < r.power_per_node_w

    def test_low_radix_expensive(self, rows):
        """Low-radix networks cost much more per node than SF."""
        sf = next(r for r in rows if r.counts.name == "SF")
        for r in rows:
            if r.group == "low-radix":
                assert r.cost_per_node > 1.4 * sf.cost_per_node

    def test_paper_sf_numbers_close(self, rows):
        sf = next(r for r in rows if r.counts.name == "SF")
        assert sf.cost_per_node == pytest.approx(1033, rel=0.15)
        assert sf.power_per_node_w == pytest.approx(8.02, rel=0.05)
