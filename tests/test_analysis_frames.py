"""JSONL ingestion (RowTable) and aggregation helpers."""

from __future__ import annotations

import json
import math

import pytest

from repro.analysis.frames import (
    Curve,
    MetricsTable,
    RowTable,
    fault_sweeps,
    mean_ci,
    provenance,
    saturation_point,
    summarize,
)
from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    run_campaign,
)
from repro.sim.config import SimConfig

CFG = SimConfig(warmup_cycles=20, measure_cycles=60, drain_cycles=300)
HC = TopologySpec("HC", target_endpoints=16, params={"concentration": 2})


def tiny_scenario(label="open", seed=0, loads=(0.1, 0.3)):
    return Scenario(
        topology=HC,
        routing=RoutingSpec("min"),
        sim=CFG,
        traffic=TrafficSpec("uniform", seed=seed),
        loads=list(loads),
        label=label,
    )


def make_row(label="a", campaign="c", index=0, rows=1, **extra):
    row = {
        "campaign": campaign,
        "scenario": "feedface00000000",
        "label": label,
        "engine": "open",
        "row": index,
        "rows": rows,
        "load": 0.1 * (index + 1),
        "latency": 10.0 + index,
        "accepted": 0.1 * (index + 1),
        "saturated": False,
        "spec": {"sim": {"seed": 0}},
    }
    row.update(extra)
    return row


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


class TestIngestion:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        table = RowTable.from_jsonl(path)
        assert len(table) == 0 and not table
        assert table.campaigns() == [] and table.curves() == []

    def test_round_trip_from_campaign_runner(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        report = run_campaign(Campaign("one", [tiny_scenario()]), out=out)
        table = RowTable.from_jsonl(out)
        assert table.rows == report.rows
        assert table.torn_lines == 0 and table.invalid == []

    def test_meta_sidecar_loaded(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("one", [tiny_scenario()]), out=out, workers=1)
        table = RowTable.from_jsonl(out)
        assert table.meta is not None
        assert table.meta["campaign"] == "one"
        assert table.meta["workers"] == 1
        assert table.meta["scenarios"][0]["rows"] == 2

    def test_non_dict_meta_sidecar_ignored(self, tmp_path):
        path = write_jsonl(tmp_path / "rows.jsonl", [make_row()])
        (tmp_path / "rows.jsonl.meta.json").write_text("[1]")
        assert RowTable.from_jsonl(path).meta is None

    def test_resume_tolerates_corrupt_meta_sidecar(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        campaign = Campaign("one", [tiny_scenario()])
        run_campaign(campaign, out=out)
        (tmp_path / "rows.jsonl.meta.json").write_text("null")
        report = run_campaign(campaign, out=out, resume=True, workers=1)
        assert report.simulated == 0
        table = RowTable.from_jsonl(out)
        assert table.meta["workers"] == 1  # rewritten, not trusted

    def test_mixed_campaigns_in_one_file(self, tmp_path):
        rows = [make_row(campaign="alpha"), make_row(campaign="beta")]
        table = RowTable.from_jsonl(write_jsonl(tmp_path / "m.jsonl", rows))
        assert table.campaigns() == ["alpha", "beta"]
        assert len(table.filter(campaign="alpha")) == 1
        only = RowTable.from_jsonl(tmp_path / "m.jsonl", campaign="beta")
        assert only.campaigns() == ["beta"] and len(only) == 1

    def test_interrupted_final_row_is_skipped(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", [make_row(), make_row(index=0)])
        torn = path.read_text()
        path.write_text(torn + json.dumps(make_row())[: 25])
        table = RowTable.from_jsonl(path)
        assert len(table) == 2
        assert table.torn_lines == 1
        with pytest.raises(ValueError, match="torn"):
            RowTable.from_jsonl(path, strict=True)

    def test_invalid_utf8_line_counts_as_torn(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl",
                           [make_row(index=i, rows=3) for i in range(3)])
        data = bytearray(path.read_bytes())
        data[data.index(b'"label"')] = 0xFF  # one flipped byte, line 1
        path.write_bytes(bytes(data))
        table = RowTable.from_jsonl(path)
        assert [r["row"] for r in table] == [1, 2]
        assert table.torn_lines == 1 and not table.invalid
        with pytest.raises(ValueError, match=":1: not valid UTF-8"):
            RowTable.from_jsonl(path, strict=True)
        # A line nested past the decoder's limit is torn the same way.
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"[" * 100_000 + b"\n" + b"".join(lines[1:]))
        table = RowTable.from_jsonl(path)
        assert [r["row"] for r in table] == [1, 2]
        assert table.torn_lines == 1 and not table.invalid
        with pytest.raises(ValueError, match=":1: not valid UTF-8"):
            RowTable.from_jsonl(path, strict=True)

    def test_invalid_utf8_metrics_line_counts_as_torn(self, tmp_path):
        rows = [
            {"campaign": "c", "scenario": "h", "label": "A", "row": i,
             "rows": 2, "load": 0.1 * (i + 1), "channel_load": [0.5]}
            for i in range(2)
        ]
        path = write_jsonl(tmp_path / "t.jsonl.metrics.jsonl", rows)
        data = bytearray(path.read_bytes())
        data[data.rindex(b'"label"')] = 0xC3  # lead byte, no continuation
        path.write_bytes(bytes(data))
        table = MetricsTable.from_jsonl(path)
        assert [r["row"] for r in table] == [0]
        assert table.torn_lines == 1
        # A line nested past the decoder's limit is torn the same way.
        first = path.read_bytes().splitlines(keepends=True)[0]
        path.write_bytes(first + b"[" * 100_000 + b"\n")
        table = MetricsTable.from_jsonl(path)
        assert [r["row"] for r in table] == [0]
        assert table.torn_lines == 1

    def test_unknown_extra_fields_are_preserved(self, tmp_path):
        rows = [make_row(future_field={"nested": [1, 2]})]
        table = RowTable.from_jsonl(write_jsonl(tmp_path / "x.jsonl", rows))
        assert table.rows[0]["future_field"] == {"nested": [1, 2]}
        assert table.invalid == []

    def test_schema_violations_are_quarantined(self, tmp_path):
        bad_engine = make_row(engine="quantum")
        missing = {k: v for k, v in make_row().items() if k != "latency"}
        path = write_jsonl(tmp_path / "bad.jsonl", [make_row(), bad_engine, missing])
        table = RowTable.from_jsonl(path)
        assert len(table) == 1
        assert len(table.invalid) == 2
        assert "engine" in table.invalid[0][1]
        with pytest.raises(ValueError, match="engine"):
            RowTable.from_jsonl(path, strict=True)

    def test_type_violations_are_quarantined(self, tmp_path):
        bad_spec = make_row(spec="not-a-dict")
        bad_load = make_row(load="0.5")
        bad_latency = make_row(latency="slow")
        path = write_jsonl(
            tmp_path / "types.jsonl", [make_row(), bad_spec, bad_load,
                                       bad_latency]
        )
        table = RowTable.from_jsonl(path)
        assert len(table) == 1 and len(table.invalid) == 3
        assert "spec" in table.invalid[0][1]

    def test_nonfinite_numbers_are_quarantined(self, tmp_path):
        path = tmp_path / "inf.jsonl"
        path.write_text(
            json.dumps(make_row()).replace('"latency": 10.0',
                                           '"latency": Infinity')
            + "\n"
        )
        table = RowTable.from_jsonl(path)
        assert len(table) == 0 and len(table.invalid) == 1

    def test_provenance_tolerates_partial_specs(self):
        rows = [make_row(spec={"sim": None, "routing": {"params": None}})]
        (record,) = provenance(RowTable.from_rows(rows))
        assert record["seeds"] == {}

    def test_from_rows_validates(self):
        with pytest.raises(ValueError, match="missing fields"):
            RowTable.from_rows([{"nope": 1}])
        table = RowTable.from_rows([make_row()])
        assert len(table) == 1

    def test_concat(self, tmp_path):
        a = RowTable.from_jsonl(write_jsonl(tmp_path / "a.jsonl", [make_row()]))
        b = RowTable.from_jsonl(write_jsonl(tmp_path / "b.jsonl", [make_row()]))
        both = RowTable.concat([a, b])
        assert len(both) == 2 and "a.jsonl" in both.source


class TestSelection:
    def test_views_carry_data_quality_counters(self, tmp_path):
        path = write_jsonl(tmp_path / "t.jsonl", [make_row()])
        path.write_text(path.read_text() + '{"torn...')
        table = RowTable.from_jsonl(path)
        assert table.torn_lines == 1
        assert table.filter(campaign="c").torn_lines == 1
        assert table.where(lambda r: True).torn_lines == 1
        (group,) = table.group_by("label").values()
        assert group.torn_lines == 1

    def test_group_by_and_columns(self):
        rows = [make_row(label="x"), make_row(label="y"), make_row(label="x")]
        table = RowTable.from_rows(rows)
        groups = table.group_by("label")
        assert list(groups) == ["x", "y"]
        assert len(groups["x"]) == 2
        assert table.column("label") == ["x", "y", "x"]

    def test_curves_sorted_by_row_index(self):
        rows = [make_row(index=1, rows=2), make_row(index=0, rows=2)]
        (curve,) = RowTable.from_rows(rows).curves()
        assert curve.loads == [0.1, 0.2]
        assert curve.latency == [10.0, 11.0]

    def test_partial_curve_tolerated(self):
        rows = [make_row(index=2, rows=5), make_row(index=0, rows=5)]
        (curve,) = RowTable.from_rows(rows).curves()
        assert len(curve) == 2


class TestAggregation:
    def test_mean_ci_matches_t_distribution(self):
        mean, ci = mean_ci([1.0, 2.0, 3.0, 4.0])
        assert mean == 2.5
        # t(0.975, df=3) = 3.1824; sem = sqrt(5/3)/2
        assert ci == pytest.approx(3.1824 * math.sqrt(5.0 / 3.0) / 2.0, rel=1e-3)

    def test_mean_ci_degenerate(self):
        assert mean_ci([5.0]) == (5.0, 0.0)
        with pytest.raises(ValueError):
            mean_ci([])

    def test_summarize_drops_none_and_groups(self):
        rows = [
            make_row(label="x", latency=10.0),
            make_row(label="x", latency=20.0),
            make_row(label="x", latency=None),
            make_row(label="y", latency=None),
        ]
        out = summarize(RowTable.from_rows(rows), by=("label",), value="latency")
        assert len(out) == 1
        assert out[0]["label"] == "x" and out[0]["n"] == 2
        assert out[0]["mean"] == 15.0

    def test_saturation_point_prefers_flag(self):
        c = Curve("l", "h", [0.1, 0.5, 0.9], [10, 20, 30],
                  [0.1, 0.5, 0.6], [False, True, True], {})
        assert saturation_point(c) == 0.5

    def test_saturation_point_knee_fallback(self):
        c = Curve("l", "h", [0.1, 0.5, 0.9], [10.0, 12.0, 100.0],
                  [0.1, 0.5, 0.6], [False, False, False], {})
        assert saturation_point(c) == 0.9

    def test_saturation_point_none(self):
        c = Curve("l", "h", [0.1, 0.5], [10.0, 12.0],
                  [0.1, 0.5], [False, False], {})
        assert saturation_point(c) is None

    def test_low_load_latency_and_peak_accepted(self):
        c = Curve("l", "h", [0.1, 0.5, 0.9], [None, 12.0, 30.0],
                  [0.1, 0.5, 0.45], [False, False, True], {})
        assert (c.low_load_latency, c.peak_accepted) == (12.0, 0.5)
        gone = Curve("l", "h", [0.1], [None], [None], [False], {})
        assert (gone.low_load_latency, gone.peak_accepted) == (None, None)

    def test_fault_sweeps_group_by_protocol_and_fraction(self):
        def sweep(label, frac):
            fault = {"link_fraction": frac} if frac else None
            return make_row(label=label, scenario=label, spec={"fault": fault})

        table = RowTable.from_rows([
            sweep("MIN/f=0.1", 0.1), sweep("MIN/f=0", 0.0), sweep("VAL/f=0.05", 0.05),
        ])
        got = {p: [(f, c.label) for f, c in s] for p, s in fault_sweeps(table).items()}
        assert got == {"MIN": [(0.0, "MIN/f=0"), (0.1, "MIN/f=0.1")],
                       "VAL": [(0.05, "VAL/f=0.05")]}


class TestProvenance:
    def test_seeds_extracted_per_layer(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(
            Campaign("one", [tiny_scenario(label="v", seed=3)]), out=out
        )
        (record,) = provenance(RowTable.from_jsonl(out))
        assert record["label"] == "v"
        assert record["engine"] == "open"
        assert record["rows"] == 2
        # uniform traffic normalises its seed away; sim seed remains.
        assert "traffic" not in record["seeds"]
        assert record["seeds"]["sim"] == 1  # SimConfig default seed
        assert len(record["scenario"]) == 16
