"""Integration tests: every experiment runs at quick scale and notes
the verdict of each of its paper claims (:mod:`repro.analysis.claims`),
pinned at today's quick-scale outcome."""

import pytest

from repro.analysis import claims
from repro.experiments.common import ExperimentResult, Scale
from repro.experiments.runner import ALL_ORDER, EXPERIMENTS, build_parser, run_experiment

FAST_EXPERIMENTS = [
    "fig1", "fig5a", "fig5b", "fig5c", "table2", "table3",
    "table4", "costmodel", "fig11-cost", "fig11-power",
]


def verdicts(result) -> dict[str, str]:
    """Claim id -> verdict, from the claim lines among a result's notes."""
    return {
        v.claim.id: v.status
        for v in (claims.parse(n) for n in result.notes)
        if v is not None
    }


class TestRegistry:
    def test_all_order_registered(self):
        for name in ALL_ORDER:
            assert name in EXPERIMENTS

    def test_parser(self):
        args = build_parser().parse_args(["fig1", "--scale", "quick"])
        assert args.command == "fig1"
        assert args.scale == "quick"

    def test_scale_coercion(self):
        assert Scale.coerce("paper") is Scale.PAPER
        assert Scale.coerce(Scale.QUICK) is Scale.QUICK
        with pytest.raises(ValueError):
            Scale.coerce("huge")


@pytest.mark.parametrize("name", FAST_EXPERIMENTS)
def test_experiment_runs_and_shapes_hold(name):
    result = run_experiment(name, Scale.QUICK, seed=0)
    assert isinstance(result, ExperimentResult)
    assert result.tables or result.bundles
    rendered = result.render()
    assert claims.NOT_REPRODUCED not in rendered
    assert len(rendered) > 100
    # Every claim reading this experiment is noted, and reproduced.
    mine = {c.id for c in claims.CLAIMS if c.reads == result.experiment}
    assert verdicts(result) == dict.fromkeys(mine, claims.REPRODUCED)


@pytest.mark.parametrize(
    "cable", ["mellanox-fdr10", "elpeus-eth10", "mellanox-qdr56"]
)
def test_cost_claim_holds_for_every_cable_product(cable):
    result = run_experiment("fig11-cost", Scale.QUICK, seed=0, cable_model=cable)
    assert verdicts(result) == {"fig11-cost.sf-cheapest": claims.REPRODUCED}


class TestResultRendering:
    def test_render_contains_tables_and_series(self):
        result = run_experiment("fig5a", Scale.QUICK, seed=0)
        text = result.render()
        assert "Moore Bound 2" in text
        assert "Slim Fly MMS" in text
        # Fig 5a: a two-stage fat tree sits far below the bound
        # (paper: ~1.6%).
        ft = result.bundles[0].get("Fat tree")
        assert ft.y[-1] < 0.05 * (1 + ft.x[-1] ** 2)

    def test_fat_tree_and_hypercube_at_full_bisection(self):
        bundle = run_experiment("fig5c", Scale.QUICK, seed=0).bundles[0]
        for name in ("FT-3", "HC"):
            for n, bb in bundle.get(name).as_pairs():
                assert bb == (n // 2) * 10.0

    def test_notes_survive(self):
        result = run_experiment("table2", Scale.QUICK, seed=0)
        assert verdicts(result) == {"table2.diameters": claims.REPRODUCED}
        round_trip = ExperimentResult.from_dict(result.to_dict())
        assert verdicts(round_trip) == verdicts(result)


class TestVCCountsExperiment:
    def test_runs(self):
        result = run_experiment("vc-counts", Scale.QUICK, seed=0)
        assert verdicts(result) == {"vc-counts.sf-few-vcs": claims.REPRODUCED}
        # Gopal columns must all verify.
        headers, rows = result.tables[0]
        for row in rows[:-1]:  # SF rows
            assert row[2] is True
            assert row[3] is True


class TestResiliencyExperiments:
    def test_diameter_variant(self):
        result = run_experiment("res-diameter", Scale.QUICK, seed=0)
        assert result.tables[0][1]  # non-empty rows
        assert verdicts(result) == {"res-diameter.order": claims.REPRODUCED}

    def test_pathlen_variant(self):
        result = run_experiment("res-pathlen", Scale.QUICK, seed=0)
        assert result.tables[0][1]
        assert verdicts(result) == {"res-pathlen.sf-over-df": claims.REPRODUCED}


class TestAblations:
    def test_four_ugal_candidates_within_bound_of_one(self):
        from repro.experiments import ablations

        result = ablations.run_ugal_candidates(Scale.QUICK, seed=0, counts=(1, 4))
        lat = {row[0]: row[1] for row in result.tables[0][1]}
        assert len(lat) == 2
        # More candidates may cost a little latency at moderate load, never
        # much: 11.65 cycles at 4 vs 10.8 at 1 (bound 14.04).  Against the
        # paper, 4 is not the fastest count; pinned so a change shows.
        assert lat[4] <= 1.3 * lat[1]
        assert verdicts(result) == {"ablate-ugal.four-candidates": claims.NOT_REPRODUCED}

    def test_val_cap_ablation(self):
        result = run_experiment("ablate-val", Scale.QUICK, seed=0)
        headers, rows = result.tables[0]
        assert len(rows) == 2
        # At quick scale the 3-hop cap lowers latency (14.0 vs 20.3
        # cycles), against the paper; pinned so a change shows.
        assert verdicts(result) == {"ablate-val.cap-no-gain": claims.NOT_REPRODUCED}
        assert "not reproduced [ablate-val.cap-no-gain]" in result.render()

    def test_primitive_element_ablation(self):
        result = run_experiment("ablate-xi", Scale.QUICK, seed=0)
        assert verdicts(result) == {"ablate-xi.invariant": claims.REPRODUCED}
