"""Scenario/campaign spec layer: round-trip, hashing, grids, validation."""

from __future__ import annotations

import json

import pytest
from hypothesis import example, given, strategies as st

from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    canonical_json,
    scenario_hash,
)
from repro.scenarios.spec import splice_campaign, unsplice_campaign
from repro.sim.config import SimConfig

CFG = SimConfig(warmup_cycles=20, measure_cycles=60, drain_cycles=200)


def open_scenario(**overrides) -> Scenario:
    kw = dict(
        topology=TopologySpec("SF", params={"q": 5}),
        routing=RoutingSpec("ugal-l", {"seed": 3}),
        sim=CFG,
        traffic=TrafficSpec("worstcase", seed=7),
        loads=[0.1, 0.3, 0.5],
        replicas=2,
        label="SF-UGAL-L",
    )
    kw.update(overrides)
    return Scenario(**kw)


def closed_scenario(**overrides) -> Scenario:
    kw = dict(
        topology=TopologySpec("DF", target_endpoints=300),
        routing=RoutingSpec("df-ugal-l", {"seed": 1}),
        sim=CFG,
        workload=WorkloadSpec("halo2d", ranks=16, size_flits=4, iterations=3),
        max_cycles=10_000,
        label="DF/halo2d",
    )
    kw.update(overrides)
    return Scenario(**kw)


class TestRoundTrip:
    @pytest.mark.parametrize("make", [open_scenario, closed_scenario])
    def test_dict_round_trip_is_lossless(self, make):
        s = make()
        assert Scenario.from_dict(s.to_dict()) == s

    @pytest.mark.parametrize("make", [open_scenario, closed_scenario])
    def test_json_round_trip_is_lossless(self, make):
        s = make()
        via_json = Scenario.from_dict(json.loads(json.dumps(s.to_dict())))
        assert via_json == s
        assert scenario_hash(via_json) == scenario_hash(s)

    def test_sim_config_survives_round_trip(self):
        s = open_scenario(sim=SimConfig(buffer_per_port=32, num_vcs=4, seed=9))
        assert Scenario.from_dict(s.to_dict()).sim == s.sim

    def test_campaign_file_round_trip(self, tmp_path):
        campaign = Campaign("rt", [open_scenario(), closed_scenario()])
        path = campaign.save(tmp_path / "c.json")
        loaded = Campaign.load(path)
        assert loaded.name == "rt"
        assert loaded.scenarios == campaign.scenarios


class TestHashing:
    def test_hash_is_stable_across_processes(self):
        # Pinned literal: the serialized form (and therefore resume
        # identity of existing result files) must not drift silently.
        s = Scenario(
            topology=TopologySpec("SF", params={"q": 5}),
            routing=RoutingSpec("min"),
            sim=SimConfig(),
            traffic=TrafficSpec("uniform"),
            loads=[0.5],
        )
        assert scenario_hash(s) == scenario_hash(Scenario.from_dict(s.to_dict()))
        assert scenario_hash(s) == "80269c90cd7f1773"

    def test_hash_depends_on_every_axis(self):
        base = open_scenario()
        variants = [
            open_scenario(loads=[0.1, 0.3]),
            open_scenario(replicas=1),
            open_scenario(label="renamed"),
            open_scenario(routing=RoutingSpec("min")),
            open_scenario(sim=SimConfig(buffer_per_port=32)),
            open_scenario(topology=TopologySpec("SF", params={"q": 7})),
        ]
        hashes = {scenario_hash(v) for v in variants}
        assert scenario_hash(base) not in hashes
        assert len(hashes) == len(variants)

    def test_equal_specs_hash_equal(self):
        assert scenario_hash(open_scenario()) == scenario_hash(open_scenario())

    def test_canonical_json_is_order_independent(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})


#: Row keys: the ones that sort right around "campaign", the real
#: result-row keys on either side of it, non-ASCII, and anything else.
ROW_KEYS = (
    st.sampled_from(
        ["cam", "campaigns", "campaign_", "campaigm", "campaigo", "channel_load",
         "accepted", "avg_message_latency", "", "Z", "é", "ü_load", "\U0001f600"]
    )
    | st.text(max_size=10)
).filter(lambda k: k != "campaign")
LEAVES = (
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
)
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestSpliceCampaign:
    @given(
        row=st.dictionaries(ROW_KEYS, VALUES, max_size=8),
        name=st.text(max_size=12),
    )
    @example(row={}, name="fig6")
    @example(row={"accepted": float("nan"), "cam": None, "campaigns": True}, name="é")
    @example(row={"channel_load": [1e-05, 0.5]}, name="")
    def test_splice_equals_encoding_the_stamped_row(self, row, name):
        stamped = splice_campaign(canonical_json(row), row, name)
        assert stamped == canonical_json({"campaign": name, **row})
        assert unsplice_campaign(stamped, row, name) == canonical_json(row)

    def test_a_row_with_a_campaign_is_refused(self):
        row = {"campaign": "old", "row": 0}
        with pytest.raises(ValueError, match="campaign"):
            splice_campaign(canonical_json(row), row, "new")


class TestValidation:
    def test_needs_exactly_one_engine(self):
        with pytest.raises(ValueError, match="exactly one"):
            Scenario(
                topology=TopologySpec("SF", params={"q": 5}),
                routing=RoutingSpec("min"),
                sim=CFG,
            )
        with pytest.raises(ValueError, match="exactly one"):
            open_scenario(workload=WorkloadSpec("alltoall", ranks=4))

    def test_open_loop_needs_loads(self):
        with pytest.raises(ValueError, match="loads"):
            open_scenario(loads=[])

    def test_closed_loop_rejects_loads(self):
        with pytest.raises(ValueError, match="no loads"):
            closed_scenario(loads=[0.5])

    def test_unknown_registry_names_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            TopologySpec("MYSTERY", target_endpoints=100)
        with pytest.raises(ValueError, match="unknown routing"):
            RoutingSpec("teleport")
        with pytest.raises(ValueError, match="unknown pattern"):
            TrafficSpec("bursty")
        with pytest.raises(ValueError, match="unknown workload"):
            WorkloadSpec("mapreduce", ranks=8)
        with pytest.raises(ValueError, match="unknown placement"):
            WorkloadSpec("alltoall", ranks=8, placement="random")

    def test_topology_needs_target_or_shape_params(self):
        with pytest.raises(ValueError, match="needs target_endpoints"):
            TopologySpec("SF")
        # Non-shape params alone do not pin an instance either.
        with pytest.raises(ValueError, match="do not pin the shape"):
            TopologySpec("HC", params={"concentration": 2})
        TopologySpec("SF", params={"q": 5})  # shape param suffices
        # Unbuildable combinations fail at construction, not mid-campaign.
        with pytest.raises(ValueError, match="explicit q"):
            TopologySpec("SF", target_endpoints=722, params={"concentration": 3})

    def test_spec_params_dicts_are_not_aliased(self):
        shared: dict = {}
        RoutingSpec("val", shared)
        assert shared == {}, "seed fill must not leak into caller dicts"
        tp = {"q": 5}
        spec = TopologySpec("SF", params=tp)
        spec.params["concentration"] = 4
        assert tp == {"q": 5}

    def test_replicas_bounds(self):
        with pytest.raises(ValueError, match="replicas"):
            open_scenario(replicas=0)
        # The sweep walk needs finite, positive, strictly ascending
        # loads: anything else published fill rows for loads never
        # simulated, or non-JSON NaN rows.
        bad = ([0.3, 0.1], [0.1, 0.1], [float("nan")], [float("inf")], [-0.5], [0.0])
        for loads in bad:
            with pytest.raises(ValueError, match="strictly ascending"):
                open_scenario(loads=loads)
        data = open_scenario().to_dict()
        data["loads"] = [0.5, 0.2]
        with pytest.raises(ValueError, match="strictly ascending"):
            Scenario.from_dict(data)
        with pytest.raises(ValueError, match="strictly ascending"):
            Campaign.from_grid("bad", open_scenario(), {"loads": [[0.2, 0.2]]})

    @pytest.mark.parametrize(
        "field, value",
        [
            # Accepted, each would draw fresh entropy per run, divide by
            # zero, publish an unsimulated row or crash an engine.
            ("seed", None),
            ("seed", -1),
            ("packet_length", 0),
            ("measure_cycles", -5),
            ("warmup_cycles", "x"),
            ("drain_cycles", 1.5),
            ("num_vcs", True),
            ("speedup", 0),
            ("buffer_per_port", 0),
            ("credit_delay", -1),
        ],
    )
    def test_sim_block_rejected(self, field, value):
        data = open_scenario().to_dict()
        data["sim"][field] = value
        with pytest.raises(ValueError, match=f"sim.{field}"):
            Scenario.from_dict(data)

    @pytest.mark.parametrize(
        "make, path, value, field",
        [
            # Each once ended in a TypeError traceback ...
            (open_scenario, ("loads",), 5, "scenario.loads"),
            (open_scenario, ("loads",), [0.1, None], "scenario.loads"),
            (open_scenario, ("replicas",), "x", "scenario.replicas"),
            (open_scenario, ("stop_after_saturation",), None,
             "scenario.stop_after_saturation"),
            (open_scenario, ("fault",), {"cut_links": 5}, "fault.cut_links"),
            (open_scenario, ("fault",), {"cut_links": [5]}, "fault.cut_links"),
            (open_scenario, ("fault",), {"cut_routers": 3}, "fault.cut_routers"),
            # ... or was accepted into the spec and its hash.
            (open_scenario, ("label",), 5, "scenario.label"),
            (closed_scenario, ("workload", "size_flits"), "x",
             "workload.size_flits"),
            (closed_scenario, ("workload", "iterations"), None,
             "workload.iterations"),
            (closed_scenario, ("max_cycles",), "10", "scenario.max_cycles"),
        ],
    )
    def test_ill_typed_scalar_axes_rejected(self, make, path, value, field):
        data = make().to_dict()
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ValueError, match=field):
            Scenario.from_dict(data)

    def test_builder_scenarios_validate_with_unchanged_hashes(self):
        from repro.analysis.report import default_campaigns
        from repro.experiments import (
            fault_degradation,
            fig6_performance,
            workload_completion,
        )

        campaigns = default_campaigns("quick") + [
            fig6_performance.campaign("quick", pattern="worstcase"),
            fig6_performance.paper_campaign("quick", pattern="worstcase"),
            workload_completion.campaign("quick", workload="all"),
            fault_degradation.campaign("quick"),
        ]
        for campaign in campaigns:
            for s in campaign.scenarios:
                assert Scenario.from_dict(s.to_dict()).hash() == s.hash()

    def test_sim_block_unknown_key_rejected(self):
        data = open_scenario().to_dict()
        data["sim"]["voltage"] = 1
        with pytest.raises(ValueError, match="voltage"):
            Scenario.from_dict(data)

    def test_sim_checked_on_construction_and_grid_overrides(self):
        with pytest.raises(ValueError, match="sim.seed"):
            open_scenario(sim=SimConfig(seed=None))
        with pytest.raises(ValueError, match="sim.packet_length"):
            Campaign.from_grid("bad", open_scenario(), {"sim.packet_length": [0]})
        # Zero delays and windows stay legal, and a valid spec's hash
        # does not move.
        zero = open_scenario(sim=SimConfig(warmup_cycles=0, drain_cycles=0,
                                           credit_delay=0, seed=0))
        assert Scenario.from_dict(zero.to_dict()).hash() == zero.hash()

    def test_engine_foreign_axes_rejected(self):
        with pytest.raises(ValueError, match="open-loop axis"):
            closed_scenario(replicas=3)
        with pytest.raises(ValueError, match="open-loop axis"):
            closed_scenario(stop_after_saturation=2)
        with pytest.raises(ValueError, match="closed-loop axis"):
            open_scenario(max_cycles=1000)

    def test_randomised_components_get_pinned_seeds(self):
        # An omitted seed on anything randomised would break the
        # resume byte-identity guarantee, so specs default-fill 0.
        assert RoutingSpec("val").params["seed"] == 0
        assert RoutingSpec("ugal-l").params["seed"] == 0
        assert "seed" not in RoutingSpec("min").params
        assert TrafficSpec("worstcase").seed == 0
        assert TrafficSpec("uniform").seed is None
        assert TopologySpec("DLN", target_endpoints=100).seed == 0
        assert RoutingSpec("val") == RoutingSpec("val", {"seed": 0})

    def test_deterministic_pattern_seed_normalised_away(self):
        # A seed on a pattern that never consumes one must not split
        # the hash space (it would defeat dedup/resume).
        assert TrafficSpec("uniform", seed=7) == TrafficSpec("uniform")
        a = open_scenario(traffic=TrafficSpec("shift", seed=3))
        b = open_scenario(traffic=TrafficSpec("shift"))
        assert scenario_hash(a) == scenario_hash(b)


class TestBackendAxis:
    """The engine-fidelity axis: back-compat serialization, validation."""

    def base(self, **overrides) -> Scenario:
        kw = dict(
            topology=TopologySpec("SF", params={"q": 5}),
            routing=RoutingSpec("min"),
            sim=SimConfig(),
            traffic=TrafficSpec("uniform"),
            loads=[0.5],
        )
        kw.update(overrides)
        return Scenario(**kw)

    def test_default_backend_is_cycle_and_not_serialized(self):
        s = self.base()
        assert s.backend == "cycle"
        assert "backend" not in s.to_dict()

    def test_pre_backend_json_loads_and_hashes_identically(self):
        # A spec dict written before the backend axis existed (no
        # "backend" key) must load as a cycle scenario and keep its
        # pinned hash — the resume identity of existing result files.
        legacy = self.base().to_dict()
        assert "backend" not in legacy
        s = Scenario.from_dict(legacy)
        assert s.backend == "cycle"
        assert s == self.base()
        assert scenario_hash(s) == "80269c90cd7f1773"

    def test_flow_backend_round_trips_and_changes_hash(self):
        flow = self.base(backend="flow")
        assert flow.to_dict()["backend"] == "flow"
        assert Scenario.from_dict(flow.to_dict()) == flow
        assert scenario_hash(flow) != scenario_hash(self.base())
        # Pinned literal: the flow-spec serialized form must not
        # drift either, or flow result files would stop resuming.
        assert scenario_hash(flow) == "2a6a978c4eaae106"

    def test_cycle_vec_backend_round_trips_and_changes_hash(self):
        vec = self.base(backend="cycle-vec")
        assert vec.to_dict()["backend"] == "cycle-vec"
        assert Scenario.from_dict(vec.to_dict()) == vec
        assert scenario_hash(vec) != scenario_hash(self.base())
        assert scenario_hash(vec) != scenario_hash(self.base(backend="flow"))
        # Pinned literal: cycle-vec result files must keep resuming.
        assert scenario_hash(vec) == "54668d495c521c1a"

    def test_explicit_cycle_equals_default(self):
        assert scenario_hash(self.base(backend="cycle")) == scenario_hash(
            self.base()
        )

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            self.base(backend="warp")

    def test_flow_backend_is_open_loop_only(self):
        with pytest.raises(
            ValueError,
            match=(
                r"backend 'flow' cannot run closed-loop workload scenarios; "
                r"closed-loop capable backends: \['cycle', 'cycle-vec'\]"
            ),
        ):
            closed_scenario(backend="flow")

    def test_backend_grid_axis(self):
        campaign = Campaign.from_grid(
            "fidelity",
            self.base(),
            {"backend": ["cycle", "flow"]},
            label=lambda s: s.backend,
        )
        assert [s.backend for s in campaign] == ["cycle", "flow"]
        assert len({scenario_hash(s) for s in campaign}) == 2

    def test_backend_grid_revalidates(self):
        with pytest.raises(ValueError, match="unknown engine backend"):
            Campaign.from_grid("bad", self.base(), {"backend": ["warp"]})


class TestTelemetryAxis:
    """The telemetry axis: omit-by-default serialization (pinned
    hashes must survive), round-trips, and validation."""

    def base(self, **overrides) -> Scenario:
        from repro.sim.telemetry import TelemetrySpec  # noqa: F401

        kw = dict(
            topology=TopologySpec("SF", params={"q": 5}),
            routing=RoutingSpec("min"),
            sim=SimConfig(),
            traffic=TrafficSpec("uniform"),
            loads=[0.5],
        )
        kw.update(overrides)
        return Scenario(**kw)

    def test_default_is_off_and_not_serialized(self):
        s = self.base()
        assert s.telemetry is None
        assert "telemetry" not in s.to_dict()
        assert scenario_hash(s) == "80269c90cd7f1773"

    def test_all_off_spec_normalizes_to_none(self):
        from repro.sim.telemetry import TelemetrySpec

        s = self.base(telemetry=TelemetrySpec())
        assert s.telemetry is None
        assert s == self.base()
        assert scenario_hash(s) == scenario_hash(self.base())

    def test_armed_spec_round_trips_and_changes_hash(self):
        from repro.sim.telemetry import TelemetrySpec

        s = self.base(
            telemetry=TelemetrySpec(channel_flits=True,
                                    routing_decisions=True)
        )
        data = s.to_dict()
        assert data["telemetry"] == {
            "channel_flits": True, "routing_decisions": True
        }
        again = Scenario.from_dict(json.loads(json.dumps(data)))
        assert again == s
        assert scenario_hash(again) == scenario_hash(s)
        assert scenario_hash(s) != scenario_hash(self.base())

    def test_pre_telemetry_json_loads_and_hashes_identically(self):
        legacy = self.base().to_dict()
        assert "telemetry" not in legacy
        s = Scenario.from_dict(legacy)
        assert s.telemetry is None
        assert scenario_hash(s) == "80269c90cd7f1773"

    def test_backend_hashes_unchanged_by_telemetry_plane(self):
        # The other pinned identities must not drift either.
        assert scenario_hash(self.base(backend="flow")) == "2a6a978c4eaae106"
        assert scenario_hash(
            self.base(backend="cycle-vec")
        ) == "54668d495c521c1a"

    def test_closed_loop_rejects_telemetry(self):
        from repro.sim.telemetry import TelemetrySpec

        with pytest.raises(ValueError, match="open-loop axis"):
            closed_scenario(telemetry=TelemetrySpec.full())

    def test_telemetry_grid_axis(self):
        from repro.sim.telemetry import TelemetrySpec

        campaign = Campaign.from_grid(
            "probes",
            self.base(),
            {"telemetry": [None, TelemetrySpec(channel_flits=True)]},
            label=lambda s: "on" if s.telemetry else "off",
        )
        assert [s.label for s in campaign] == ["off", "on"]
        assert len({scenario_hash(s) for s in campaign}) == 2


class TestGrid:
    def test_product_expansion(self):
        campaign = Campaign.from_grid(
            "grid",
            open_scenario(),
            {
                "routing": [RoutingSpec("min"), RoutingSpec("val", {"seed": 0})],
                "sim.buffer_per_port": [16, 64, 256],
            },
        )
        assert len(campaign) == 6
        assert {s.routing.name for s in campaign} == {"min", "val"}
        assert {s.sim.buffer_per_port for s in campaign} == {16, 64, 256}

    def test_later_axes_vary_fastest(self):
        campaign = Campaign.from_grid(
            "order",
            open_scenario(),
            {"replicas": [1, 2], "sim.num_vcs": [3, 4]},
        )
        combos = [(s.replicas, s.sim.num_vcs) for s in campaign]
        assert combos == [(1, 3), (1, 4), (2, 3), (2, 4)]

    def test_nested_dict_axis(self):
        campaign = Campaign.from_grid(
            "qsweep",
            open_scenario(),
            {"topology.params.q": [5, 7]},
            label=lambda s: f"q={s.topology.params['q']}",
        )
        assert [s.label for s in campaign] == ["q=5", "q=7"]

    def test_grid_deduplicates(self):
        campaign = Campaign.from_grid(
            "dupes", open_scenario(), {"sim.buffer_per_port": [64, 64, 16]}
        )
        assert len(campaign) == 2

    def test_unknown_axis_rejected(self):
        with pytest.raises(AttributeError, match="voltage"):
            Campaign.from_grid("bad", open_scenario(), {"sim.voltage": [1]})

    def test_sub_spec_overrides_revalidate_and_fill_seeds(self):
        base = open_scenario(routing=RoutingSpec("min"))
        campaign = Campaign.from_grid("names", base, {"routing.name": ["val"]})
        assert campaign.scenarios[0].routing.params["seed"] == 0
        with pytest.raises(ValueError, match="unknown routing"):
            Campaign.from_grid("bad", base, {"routing.name": ["bogus"]})

    def test_overrides_revalidate(self):
        with pytest.raises(ValueError, match="replicas"):
            Campaign.from_grid("bad", open_scenario(), {"replicas": [0]})

    def test_base_scenario_not_mutated(self):
        base = open_scenario()
        before = base.to_dict()
        Campaign.from_grid("pure", base, {"sim.buffer_per_port": [16, 256]})
        assert base.to_dict() == before

    def test_dedup_preserves_order(self):
        a, b = open_scenario(), open_scenario(label="other")
        campaign = Campaign("d", [a, b, a]).dedup()
        assert campaign.scenarios == [a, b]

    def test_num_rows(self):
        campaign = Campaign("n", [open_scenario(), closed_scenario()])
        assert campaign.num_rows == 3 + 1
