"""Figure renderers (determinism, styling) and the report builder/CLI."""

from __future__ import annotations

import hashlib
import json
import math
import random
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.analysis.figures import (
    BarFigure,
    GroupedBarFigure,
    HAVE_MATPLOTLIB,
    HEAT_STOPS,
    HeatmapFigure,
    LineFigure,
    LineSeries,
    PALETTE,
    SERIES_COLORS,
    _fmt,
    _fmt_all,
    _Frame,
    _heat_colors,
    assign_colors,
    heat_color,
    nice_ticks,
    save_figure,
)
from repro.analysis.report import build_report
from repro.experiments.runner import main as cli_main
from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    run_campaign,
)
from repro.sim.config import SimConfig

CFG = SimConfig(warmup_cycles=20, measure_cycles=60, drain_cycles=300)
HC = TopologySpec("HC", target_endpoints=16, params={"concentration": 2})


def tiny_campaign() -> Campaign:
    return Campaign(
        "tiny",
        [
            Scenario(topology=HC, routing=RoutingSpec("min"), sim=CFG,
                     traffic=TrafficSpec("uniform"), loads=[0.1, 0.5, 0.9],
                     label="HC-MIN"),
            Scenario(topology=HC, routing=RoutingSpec("val", {"seed": 0}),
                     sim=CFG, traffic=TrafficSpec("uniform"),
                     loads=[0.1, 0.5, 0.9], label="HC-VAL"),
            Scenario(topology=HC, routing=RoutingSpec("min"),
                     sim=SimConfig(seed=0),
                     workload=WorkloadSpec("ring-allreduce", ranks=8,
                                           size_flits=2),
                     max_cycles=50_000, label="HC-MIN/ring-allreduce"),
        ],
    )


def make_mixed_rows_file(path, campaign="c"):
    rows = [
        {
            "campaign": campaign, "scenario": "feedface00000000",
            "label": "HC-MIN", "engine": "open", "row": i, "rows": 2,
            "load": 0.1 * (i + 1), "latency": 10.0 + i,
            "accepted": 0.1 * (i + 1), "saturated": False,
            "spec": {"sim": {"seed": 0}},
        }
        for i in range(2)
    ]
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return path


@pytest.fixture(scope="module")
def tiny_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("rows") / "tiny.jsonl"
    run_campaign(tiny_campaign(), out=out, workers=1)
    return out


def line_figure() -> LineFigure:
    return LineFigure(
        title="t", xlabel="x", ylabel="y",
        series=[
            LineSeries("SF-MIN", [0.1, 0.5, 0.9], [10.0, 12.0, 40.0],
                       [False, False, True]),
            LineSeries("SF-VAL", [0.1, 0.5, 0.9], [15.0, None, 50.0]),
        ],
    )


def pinned_figures() -> dict:
    """Fixed figures whose SVG bytes are pinned across commits.

    Together they reach every per-point and per-cell branch of the
    SVG backend: dashed overlays sharing their base color, open
    (saturated) markers, ``None`` gaps, a ``saturated`` list shorter
    than ``x``, the diagonal guide, one-point series, overflow gray,
    ragged heatmap rows, ``None``/NaN/negative/above-scale cells,
    pinned and zero ``vmax``, and more columns than scale strips.
    """
    rng = random.Random(20140101)
    cdf_loads = sorted(rng.uniform(0.0, 0.8) for _ in range(300))
    hot = sorted((rng.uniform(-0.05, 1.3) for _ in range(60)), reverse=True)
    return {
        "line-overlay": LineFigure(
            title="SF q=5: latency <vs> load & more", xlabel="offered load",
            ylabel="latency [cycles]", diagonal=True,
            series=[
                LineSeries("SF-MIN", [0.1, 0.3, 0.5, 0.7, 0.9],
                           [10.0, 12.505, None, 40.0, 95.125],
                           [False, False, True]),
                LineSeries("SF-MIN (flow)", [0.1, 0.3, 0.5, 0.7, 0.9],
                           [9.0, 11.0, 14.0, 30.0, 80.0],
                           [False, False, False, True, True], dash=True),
                LineSeries("SF-UGAL-L", [0.5], [20.0], [True]),
                LineSeries("SF-VAL", [0.1, 0.9], [None, None]),
            ],
        ),
        "line-overflow": LineFigure(
            title="eleven series", xlabel="x", ylabel="y",
            series=[
                LineSeries(f"s{i}", [0, 1, 2, 3],
                           [-0.001 * i, 0.125 * i, 1.005 - i, 2.675 * i],
                           [i % 2 == 0] * 4, dash=i % 3 == 0)
                for i in range(11)
            ],
        ),
        "line-cdf": LineFigure(
            title="channel-load CDF", xlabel="channel load",
            ylabel="fraction of channels",
            series=[
                LineSeries("SF-MIN", cdf_loads,
                           [(i + 1) / 300 for i in range(300)]),
                LineSeries("SF-UGAL-L", cdf_loads[::3],
                           [(i + 1) / 100 for i in range(100)]),
            ],
        ),
        "heat-ragged": HeatmapFigure(
            title="ragged", xlabel="channel rank", ylabel="protocol",
            rows=["SF-MIN", "SF-UGAL-L", "a-much-longer-row-label", "gone"],
            values=[
                [0.9, 0.45, None, 0.1, 0.0, -0.2],
                [1.7, 1.0 / 3.0, 2.0 / 3.0],
                [None, None, 0.5, 0.25, 0.125, 0.0625, 1e-310],
            ],
            scale_label="flits/cycle",
        ),
        "heat-pinned": HeatmapFigure(
            title="pinned scale", xlabel="channel rank", ylabel="protocol",
            rows=["SF-MIN", "DF-UGAL-L"],
            values=[hot, [float("nan"), -0.0, 0.6, 2.5] + hot[:20]],
            vmax=0.75,
        ),
        "heat-zero-vmax": HeatmapFigure(
            title="zero vmax", xlabel="x", ylabel="y",
            rows=[f"row{i}" for i in range(9)],
            values=[[((r * 7 + c) % 13) / 12.0 for c in range(50 + r)]
                    for r in range(9)],
            vmax=0,
        ),
        "bar": BarFigure(title="cost", xlabel="topology",
                         ylabel="$ / endpoint",
                         categories=["SF", "DF", "FT-3", "T3D"],
                         values=[1234.5, 1500.25, 2210.0, 980.125]),
        "grouped": GroupedBarFigure(
            title="completion", xlabel="workload", ylabel="cycles",
            groups=["alltoall", "ring", "halo2d"],
            series=["SF-MIN", "FT-ANCA", "custom"],
            values=[[120.0, 340.5, 99.0], [150.0, None], [80.25]],
        ),
    }


#: sha256 of ``render_svg()`` for each :func:`pinned_figures` entry.
#: These bytes are the output contract: a rendering change that keeps
#: them keeps every published figure byte-identical.
PINNED_SVG_SHA256 = {
    "bar":
        "f68eecab0b5baf6a77f8755591b85a48cd5bc3cc89d2819e7a9c959110269e66",
    "grouped":
        "00d38e0681141391c76526ff8e7be4787cc5f37010b8e340e10ffcf6e7513633",
    "heat-pinned":
        "b9e27b930e623733ff46238de61010da4e7a99b5657b3a3267a22994b4d3643c",
    "heat-ragged":
        "58815562ebc5d0d5ce5666f75f17c3fe3480cdda8b91f06a59d2bb4f241037d1",
    "heat-zero-vmax":
        "9c1b1663a8f3c298ab5abe4e51f418bb8d8ec40d74af8dcfb49eabb3f09947a6",
    "line-cdf":
        "58b82491c6fa4c8ffee0a4ee0bd49b98fd0115907351f6daa1dca36cbf4af0e1",
    "line-overflow":
        "26a9ef9a89dc4c61c15ef39555dd1c740f5a2d1cd57203425ae671986767da50",
    "line-overlay":
        "9592c6d48c19a70102d0544f5f9653f282844d1728ec1f3aa9c8dca65926d888",
}


class TestPinnedSVGBytes:
    @pytest.mark.parametrize("name", sorted(PINNED_SVG_SHA256))
    def test_render_svg_digest(self, name):
        svg = pinned_figures()[name].render_svg()
        assert hashlib.sha256(svg.encode()).hexdigest() == \
            PINNED_SVG_SHA256[name]

    def test_every_pinned_figure_is_well_formed(self):
        figures = pinned_figures()
        assert sorted(figures) == sorted(PINNED_SVG_SHA256)
        for figure in figures.values():
            assert ET.fromstring(figure.render_svg()).tag.endswith("svg")


def reference_heat_color(t: float) -> str:
    """The scalar heat ramp, one channel at a time: the array pass's spec."""
    t = min(1.0, max(0.0, t))
    segs = len(HEAT_STOPS) - 1
    i = min(int(t * segs), segs - 1)
    f = t * segs - i
    a = HEAT_STOPS[i].lstrip("#")
    b = HEAT_STOPS[i + 1].lstrip("#")
    rgb = (
        round(int(a[k:k + 2], 16) * (1 - f) + int(b[k:k + 2], 16) * f)
        for k in (0, 2, 4)
    )
    return "#" + "".join(f"{c:02x}" for c in rgb)


#: Values where the ramp's clamping, segment choice or channel rounding
#: could go either way.
EDGE_FLOATS = [
    math.nan, 0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
    1.0, math.nextafter(1.0, 0.0), 1.0 / 6.0, 0.5, 5.0 / 6.0,
    *(math.nextafter(v, d) for v in (1.0 / 3.0, 2.0 / 3.0)
      for d in (0.0, 1.0)),
    1.0 / 3.0, 2.0 / 3.0,
]
RAMP_INPUTS = st.one_of(
    st.sampled_from(EDGE_FLOATS),
    st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True),
    st.floats(min_value=-0.25, max_value=1.25),
)


class TestArrayPasses:
    """The array passes equal their one-element definitions exactly."""

    @given(st.lists(RAMP_INPUTS, max_size=40))
    def test_heat_colors_match_scalar_reference(self, ts):
        expected = [reference_heat_color(t) for t in ts]
        assert _heat_colors(ts) == expected
        assert [heat_color(t) for t in ts] == expected

    def test_heat_colors_on_every_edge_value(self):
        assert _heat_colors(EDGE_FLOATS) == [
            reference_heat_color(t) for t in EDGE_FLOATS
        ]

    @given(st.lists(st.floats(allow_nan=True, allow_infinity=True),
                    max_size=40))
    def test_fmt_all_matches_fmt(self, values):
        assert _fmt_all(np.array(values, float)) == [_fmt(v) for v in values]

    @given(
        st.lists(st.floats(-1e6, 1e6), max_size=20),
        st.floats(-1e3, 1e3), st.floats(1e-3, 1e3),
        st.floats(1.0, 2000.0), st.floats(0.0, 100.0),
    )
    def test_frame_transforms_match_scalars(self, values, lo, span, size,
                                            origin):
        frame = _Frame(x0=origin, y0=origin, w=size, h=size,
                       xlo=lo, xhi=lo + span, ylo=lo, yhi=lo + span)
        arr = np.array(values, float)
        assert frame.px(arr).tolist() == [frame.px(v) for v in values]
        assert frame.py(arr).tolist() == [frame.py(v) for v in values]


class TestSVGBackend:
    def test_byte_deterministic(self):
        assert line_figure().render_svg() == line_figure().render_svg()
        bars = BarFigure(title="b", xlabel="x", ylabel="y",
                         categories=["SF", "DF"], values=[1.0, 2.0])
        assert bars.render_svg() == bars.render_svg()

    def test_data_changes_change_bytes(self):
        a = line_figure()
        b = line_figure()
        b.series[0].y[0] = 11.0
        assert a.render_svg() != b.render_svg()

    @pytest.mark.parametrize(
        "figure",
        [
            line_figure(),
            BarFigure(title="b", xlabel="x", ylabel="y",
                      categories=["SF", "DF"], values=[3.0, 2.0]),
            GroupedBarFigure(title="g", xlabel="x", ylabel="y",
                             groups=["a2a", "ring"],
                             series=["SF-MIN", "FT-ANCA"],
                             values=[[1.0, 2.0], [3.0, None]]),
        ],
        ids=["line", "bar", "grouped"],
    )
    def test_well_formed_svg(self, figure):
        root = ET.fromstring(figure.render_svg())
        assert root.tag.endswith("svg")
        width, height = float(root.get("width")), float(root.get("height"))
        for el in root.iter():
            for attr in ("x", "y", "cx", "cy", "x1", "x2", "y1", "y2"):
                value = el.get(attr)
                if value is not None:
                    assert -20 <= float(value) <= max(width, height) + 20

    def test_known_entities_keep_their_color(self):
        svg = line_figure().render_svg()
        assert SERIES_COLORS["SF-MIN"] in svg
        assert SERIES_COLORS["SF-VAL"] in svg
        # Color follows the entity regardless of position in the figure.
        assert assign_colors(["SF-VAL"]) == [SERIES_COLORS["SF-VAL"]]

    def test_unknown_series_take_free_palette_slots_in_order(self):
        names = [f"s{i}" for i in range(9)]
        colors = assign_colors(names)
        assert colors[:8] == list(PALETTE)
        assert colors[8] not in PALETTE  # overflow gray past 8 series

    def test_assign_colors_avoids_pinned_slots(self):
        colors = assign_colors(["my-custom", "SF-MIN"])
        assert colors[1] == SERIES_COLORS["SF-MIN"]
        assert colors[0] != colors[1]
        # All-distinct for a full mixed figure too.
        mixed = assign_colors(["a", "SF-MIN", "b", "FT-ANCA"])
        assert len(set(mixed)) == 4
        # Pinned entities sharing a slot (aliases) must not collide
        # when they co-appear in one figure.
        aliased = assign_colors(["DF-UGAL-L", "DF-UGAL-G"])
        assert aliased[0] == SERIES_COLORS["DF-UGAL-L"]
        assert aliased[0] != aliased[1]

    def test_diagonal_clamped_to_visible_window(self):
        fig = LineFigure(
            title="t", xlabel="x", ylabel="y", diagonal=True,
            series=[LineSeries("s", [0.1, 0.5, 0.9], [0.01, 0.03, 0.05])],
        )
        root = ET.fromstring(fig.render_svg())
        w, h = float(root.get("width")), float(root.get("height"))
        for el in root.iter():
            if el.tag.rsplit("}", 1)[-1] == "line":
                for attr in ("x1", "x2", "y1", "y2"):
                    assert -20 <= float(el.get(attr)) <= max(w, h) + 20

    def test_saturated_points_render_open_markers(self):
        svg = line_figure().render_svg()
        color = SERIES_COLORS["SF-MIN"]
        assert f'fill="#fcfcfb" stroke="{color}"' in svg

    def test_none_values_skipped_not_drawn(self):
        fig = LineFigure(title="t", xlabel="x", ylabel="y",
                         series=[LineSeries("s", [0.1, 0.5], [None, None])])
        root = ET.fromstring(fig.render_svg())
        assert not [el for el in root.iter() if el.tag.endswith("circle")]

    def test_constant_nonpositive_series_renders(self):
        fig = LineFigure(title="t", xlabel="x", ylabel="y",
                         series=[LineSeries("a", [0, 1, 2],
                                            [-5.0, -5.0, -5.0])])
        assert fig.render_svg().startswith("<svg")

    def test_grouped_bars_tolerate_ragged_matrix(self):
        fig = GroupedBarFigure(title="t", xlabel="x", ylabel="y",
                               groups=["a", "b"], series=["s1", "s2"],
                               values=[[1.0]])
        assert fig.render_svg().startswith("<svg")

    def test_nice_ticks(self):
        ticks = nice_ticks(0.0, 1.0)
        assert ticks[0] == 0.0 and ticks[-1] == 1.0
        assert nice_ticks(0.0, 0.0)  # degenerate range still ticks

    def test_save_figure_svg_and_unknown_format(self, tmp_path):
        (path,) = save_figure(line_figure(), tmp_path, "fig")
        assert path.read_text().startswith("<svg")
        with pytest.raises(ValueError, match="format"):
            save_figure(line_figure(), tmp_path, "fig", formats=("pdf",))

    @pytest.mark.skipif(HAVE_MATPLOTLIB, reason="matplotlib installed")
    def test_png_gated_without_matplotlib(self, tmp_path):
        with pytest.raises(RuntimeError, match="matplotlib"):
            save_figure(line_figure(), tmp_path, "fig", formats=("png",))

    @pytest.mark.skipif(not HAVE_MATPLOTLIB, reason="needs matplotlib")
    def test_png_renders_with_matplotlib(self, tmp_path):
        (path,) = save_figure(line_figure(), tmp_path, "fig", formats=("png",))
        assert path.read_bytes()[:8] == b"\x89PNG\r\n\x1a\n"


class TestBuildReport:
    def test_figures_and_report_from_jsonl(self, tiny_rows, tmp_path):
        result = build_report([tiny_rows], tmp_path, analytics=False)
        assert result.report_path.exists()
        names = sorted(f.name for f in result.figures)
        assert names == ["tiny-completion", "tiny-latency", "tiny-throughput"]
        for artifact in result.figures:
            assert artifact.paths[0].exists()
            assert artifact.provenance
            assert artifact.workers == 1
        text = result.report_path.read_text()
        assert "![tiny-latency](figures/tiny-latency.svg)" in text
        # The verdict table opens the report; each figure says which
        # claims read its rows (none for this user-defined campaign).
        assert text.index("## Paper claims") < text.index("## Contents")
        assert "**Paper claims.** None read these rows." in text
        assert "Provenance" in text
        # Every scenario hash from the rows is pinned in the report.
        for line in tiny_rows.read_text().splitlines():
            assert json.loads(line)["scenario"] in text

    def test_stale_figures_removed_on_rebuild(self, tiny_rows, tmp_path):
        result = build_report([tiny_rows], tmp_path, analytics=False)
        stray = result.out_dir / "figures" / "old-run-figure.svg"
        stray.write_text("<svg/>")
        build_report([tiny_rows], tmp_path, analytics=False)
        assert not stray.exists()
        for artifact in result.figures:
            assert artifact.paths[0].exists()

    def test_rebuild_is_byte_identical(self, tiny_rows, tmp_path):
        first = build_report([tiny_rows], tmp_path, analytics=False)
        snapshot = {
            p: p.read_bytes()
            for a in first.figures for p in a.paths
        }
        snapshot[first.report_path] = first.report_path.read_bytes()
        build_report([tiny_rows], tmp_path, analytics=False)
        for path, content in snapshot.items():
            assert path.read_bytes() == content

    def test_analytic_cost_power_figures(self, tmp_path, tiny_rows):
        result = build_report([tiny_rows], tmp_path, analytics=True,
                              scale="quick")
        families = {a.family for a in result.figures}
        assert {"cost", "power"} <= families
        text = result.report_path.read_text()
        assert "cheapest" in text or "power" in text

    def test_analytics_cable_model_passthrough(self, tmp_path, tiny_rows):
        result = build_report([tiny_rows], tmp_path, analytics=True,
                              scale="quick", cable_model="mellanox-qdr56")
        cost = next(a for a in result.figures if a.family == "cost")
        assert "mellanox-qdr56" in cost.title

    def test_experiment_json_input(self, tmp_path):
        data = [
            {
                "experiment": "fig1",
                "title": "t",
                "tables": [],
                "bundles": [
                    {"title": "b", "xlabel": "x", "ylabel": "y",
                     "series": [{"name": "SF", "x": [1, 2], "y": [3, 4]}]}
                ],
                "notes": ["a note"],
            }
        ]
        path = tmp_path / "results.json"
        path.write_text(json.dumps(data))
        result = build_report([path], tmp_path / "out", analytics=False)
        assert [a.name for a in result.figures] == ["fig1-bundle0"]
        assert "a note" in result.report_path.read_text()

    def test_duplicate_experiment_json_inputs_keep_distinct_figures(
        self, tmp_path
    ):
        data = [
            {
                "experiment": "fig1",
                "title": "t",
                "tables": [],
                "bundles": [
                    {"title": "b", "xlabel": "x", "ylabel": "y",
                     "series": [{"name": "SF", "x": [1], "y": [2]}]}
                ],
                "notes": [],
            }
        ]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        a.write_text(json.dumps(data))
        b.write_text(json.dumps(data))
        result = build_report([a, b], tmp_path / "out", analytics=False)
        names = [f.name for f in result.figures]
        assert names == ["fig1-bundle0", "fig1-bundle0-2"]
        assert len({f.paths[0] for f in result.figures}) == 2
        # Titles (and hence REPORT.md anchors) deduped too.
        assert len({f.title for f in result.figures}) == 2

    def test_campaign_spec_json_rejected_with_message(self, tmp_path):
        spec = tiny_campaign().save(tmp_path / "grid.json")
        with pytest.raises(ValueError, match="experiment-results"):
            build_report([spec], tmp_path / "out", analytics=False)

    def test_duplicate_closed_labels_average_not_last_wins(self, tmp_path):
        def row(makespan, scenario):
            return {
                "campaign": "c", "scenario": scenario,
                "label": "SF-MIN/alltoall", "engine": "closed", "row": 0,
                "rows": 1, "workload": "alltoall", "num_messages": 2,
                "completed_messages": 2, "finished": True,
                "makespan": makespan, "cycles": makespan,
                "delivered_flits": 4, "avg_message_latency": 5.0,
                "p99_message_latency": 6.0, "avg_packet_latency": 4.0,
                "flits_per_cycle": 0.1, "spec": {"sim": {"seed": 0}},
            }

        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(row(100, "a" * 16)) + "\n"
                        + json.dumps(row(300, "b" * 16)) + "\n")
        result = build_report([path], tmp_path / "out", analytics=False)
        (artifact,) = result.figures
        assert any("mean over 2 finished" in c for c in artifact.commentary)
        # The mean (200), not the last row (300), is what renders.
        assert any("200 cycles" in c for c in artifact.commentary)

    def test_colliding_campaign_slugs_keep_distinct_figures(self, tmp_path):
        a = make_mixed_rows_file(tmp_path / "a.jsonl", campaign="my.run")
        b = make_mixed_rows_file(tmp_path / "b.jsonl", campaign="my-run")
        result = build_report([a, b], tmp_path / "out", analytics=False)
        paths = [f.paths[0] for f in result.figures]
        assert len(set(paths)) == len(paths)
        assert any(p.name == "my-run-latency.svg" for p in paths)
        assert any(p.name == "my-run-latency-2.svg" for p in paths)

    def test_tables_only_json_surfaces_warning(self, tmp_path):
        data = [{"experiment": "table2", "title": "t", "tables":
                 [{"headers": ["a"], "rows": [[1]]}], "bundles": [],
                 "notes": []}]
        path = tmp_path / "results.json"
        path.write_text(json.dumps(data))
        result = build_report([path], tmp_path / "out", analytics=False)
        assert result.figures == []
        assert any("tables-only" in w for w in result.warnings)

    def test_empty_experiment_json_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="no experiment results"):
            build_report([path], tmp_path / "out", analytics=False)

    def test_truncated_experiment_json_rejected(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text('[{"experiment": "fig1"}]')
        with pytest.raises(ValueError, match="malformed experiment"):
            build_report([path], tmp_path / "out", analytics=False)

    def test_bad_json_input_fails_before_any_figure_writes(self, tiny_rows,
                                                           tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"not": "a results list"}')
        out = tmp_path / "out"
        with pytest.raises(ValueError):
            build_report([tiny_rows, bad], out, analytics=False)
        # Validation runs before rendering: nothing half-written.
        assert not list((out / "figures").iterdir())

    def test_jsonl_with_no_valid_rows_rejected(self, tmp_path):
        bogus = tmp_path / "rows.jsonl"
        bogus.write_text('{"not": "a campaign row"}\n')
        with pytest.raises(ValueError, match="no valid campaign rows"):
            build_report([bogus], tmp_path / "out", analytics=False)

    @staticmethod
    def channel_load_files(tmp_path, bad_value: str):
        """Rows plus a sidecar whose HC-VAL ``channel_load`` holds
        ``bad_value`` (JSON text) among finite loads."""
        rows = tmp_path / "rows.jsonl"
        labels = ("HC-MIN", "HC-VAL")
        rows.write_text("".join(
            json.dumps({
                "campaign": "c", "scenario": f"{i:016x}", "label": label,
                "engine": "open", "row": 0, "rows": 1, "load": 0.5,
                "latency": 12.0, "accepted": 0.5, "saturated": False,
                "spec": {"sim": {"seed": 0}},
            }) + "\n"
            for i, label in enumerate(labels)
        ))
        loads = ("0.1, 0.5, 0", f"0.2, {bad_value}, 0.3")
        (tmp_path / "rows.jsonl.metrics.jsonl").write_text("".join(
            f'{{"campaign": "c", "scenario": "{i:016x}", "label": "{label}", '
            f'"row": 0, "rows": 1, "load": 0.5, "channel_load": [{load}]}}\n'
            for i, (label, load) in enumerate(zip(labels, loads))
        ))
        return rows

    @pytest.mark.parametrize(
        "bad_value", ["null", '"x"', "true", "NaN", "Infinity"],
        ids=["null", "string", "true", "nan", "infinity"],
    )
    def test_nonnumeric_channel_loads_are_quarantined(self, tmp_path,
                                                      bad_value):
        rows = self.channel_load_files(tmp_path, bad_value)
        result = build_report([rows], tmp_path / "out", analytics=False)
        assert any("metrics.jsonl" in w and "skipped 1 schema-invalid" in w
                   for w in result.warnings)
        # The figures render from the remaining (valid) row.
        heatmap = next(a for a in result.figures
                       if a.name == "c-channel-heatmap")
        svg = heatmap.paths[0].read_text()
        assert ">HC-MIN</text>" in svg and "HC-VAL" not in svg

    def test_invalid_utf8_rows_and_sidecar_lines_are_torn(self, tmp_path):
        rows = self.channel_load_files(tmp_path, "0.4")
        sidecar = tmp_path / "rows.jsonl.metrics.jsonl"
        for path, byte in ((rows, 0xFF), (sidecar, 0xC3)):
            data = bytearray(path.read_bytes())
            data[data.rindex(b'"label"')] = byte  # last line only
            path.write_bytes(bytes(data))
        result = build_report([rows], tmp_path / "out", analytics=False)
        assert result.warnings == [
            f"`{rows}`: skipped 0 schema-invalid and 1 unparseable line(s)",
            f"`{sidecar}`: skipped 0 schema-invalid and 1 unparseable "
            f"metrics line(s)",
        ]
        assert {a.name for a in result.figures} >= {
            "c-latency", "c-channel-cdf", "c-channel-heatmap"
        }

    def test_torn_lines_surface_as_warnings(self, tiny_rows, tmp_path):
        degraded = tmp_path / "degraded.jsonl"
        degraded.write_text(tiny_rows.read_text() + '{"torn...')
        result = build_report([degraded], tmp_path / "out", analytics=False)
        assert result.warnings and "unparseable" in result.warnings[0]
        assert "Data-quality warnings" in result.report_path.read_text()

    def test_resume_preserves_sidecar_worker_count(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(tiny_campaign(), out=out, workers=1)
        # Full resume at another worker count simulates nothing, so the
        # sidecar must keep recording how the rows were produced.
        report = run_campaign(tiny_campaign(), out=out, workers=2, resume=True)
        assert report.simulated == 0
        meta = json.loads((tmp_path / "rows.jsonl.meta.json").read_text())
        assert meta["workers"] == 1

    def test_rejects_unknown_input_suffix(self, tmp_path):
        bad = tmp_path / "rows.csv"
        bad.write_text("")
        with pytest.raises(ValueError, match="inputs"):
            build_report([bad], tmp_path / "out", analytics=False)

    def test_campaign_sharded_across_files_renders_once(self, tiny_rows,
                                                        tmp_path):
        lines = tiny_rows.read_text().splitlines(keepends=True)
        shard1 = tmp_path / "shard1.jsonl"
        shard2 = tmp_path / "shard2.jsonl"
        shard1.write_text("".join(lines[:3]))
        shard2.write_text("".join(lines[3:]))
        result = build_report([shard1, shard2], tmp_path / "out",
                              analytics=False)
        # One figure set for the campaign, with every curve present.
        assert sorted(f.name for f in result.figures) == [
            "tiny-completion", "tiny-latency", "tiny-throughput"
        ]
        latency = next(a for a in result.figures if a.name == "tiny-latency")
        svg = latency.paths[0].read_text()
        assert ">HC-MIN</text>" in svg and ">HC-VAL</text>" in svg
        assert "shard1.jsonl" in latency.source
        assert "shard2.jsonl" in latency.source

    def test_closed_labels_with_extra_slashes_render_bars(self, tmp_path):
        row = {
            "campaign": "c", "scenario": "feedface00000000",
            "label": "SF/MIN/alltoall", "engine": "closed", "row": 0,
            "rows": 1, "workload": "alltoall", "num_messages": 2,
            "completed_messages": 2, "finished": True, "makespan": 42,
            "cycles": 42, "delivered_flits": 4, "avg_message_latency": 5.0,
            "p99_message_latency": 6.0, "avg_packet_latency": 4.0,
            "flits_per_cycle": 0.1, "spec": {"sim": {"seed": 0}},
        }
        path = tmp_path / "rows.jsonl"
        path.write_text(json.dumps(row) + "\n")
        result = build_report([path], tmp_path / "out", analytics=False)
        (artifact,) = result.figures
        # The bar must actually render (one <path> per drawn bar).
        assert "<path" in artifact.paths[0].read_text()

    def test_contents_anchors_are_github_style(self, tiny_rows, tmp_path):
        result = build_report([tiny_rows], tmp_path, analytics=False)
        text = result.report_path.read_text()
        # "## tiny: latency vs offered load" -> GitHub drops the colon
        # and turns each space into a dash.
        assert "(#tiny-latency-vs-offered-load)" in text


class TestReportCLI:
    def test_report_from_file(self, tiny_rows, tmp_path, capsys):
        out = tmp_path / "rep"
        rc = cli_main(["report", str(tiny_rows), "--out", str(out),
                       "--no-analytics"])
        assert rc == 0
        assert (out / "REPORT.md").exists()
        assert sorted(p.name for p in (out / "figures").iterdir()) == [
            "tiny-completion.svg", "tiny-latency.svg", "tiny-throughput.svg",
        ]
        assert "3 figures" in capsys.readouterr().out

    def test_report_requires_out(self, capsys):
        assert cli_main(["report"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_report_out_must_be_a_directory(self, tiny_rows, tmp_path,
                                            capsys):
        stray = tmp_path / "outfile"
        stray.write_text("")
        assert cli_main(["report", str(tiny_rows), "--out", str(stray)]) == 2
        assert "directory" in capsys.readouterr().err

    def test_report_rejects_cross_mode_flags(self, tiny_rows, tmp_path, capsys):
        out = str(tmp_path / "rep")
        assert cli_main(["report", str(tiny_rows), "--out", out,
                         "--resume"]) == 2
        assert "--resume" in capsys.readouterr().err
        assert cli_main(["report", str(tiny_rows), "--out", out,
                         "--replicas", "4"]) == 2

    def test_report_missing_input_errors(self, tmp_path, capsys):
        assert cli_main(["report", str(tmp_path / "nope.jsonl"),
                         "--out", str(tmp_path / "rep")]) == 2
        assert "no such input" in capsys.readouterr().err

    def test_report_rejects_unknown_suffix_cleanly(self, tmp_path, capsys):
        stray = tmp_path / "notes.txt"
        stray.write_text("hello")
        assert cli_main(["report", str(stray),
                         "--out", str(tmp_path / "rep")]) == 2
        assert ".jsonl" in capsys.readouterr().err

    def test_report_rejects_campaign_spec_json_cleanly(self, tmp_path, capsys):
        spec = tiny_campaign().save(tmp_path / "grid.json")
        assert cli_main(["report", str(spec),
                         "--out", str(tmp_path / "rep")]) == 2
        assert "experiment-results" in capsys.readouterr().err

    def test_report_rejects_inert_scale_seed(self, tiny_rows, tmp_path,
                                             capsys):
        assert cli_main(["report", str(tiny_rows), "--out",
                         str(tmp_path / "rep"), "--no-analytics",
                         "--scale", "paper"]) == 2
        assert "--scale" in capsys.readouterr().err

    def test_report_rejects_cable_model_with_no_analytics(self, tmp_path,
                                                          capsys):
        assert cli_main(["report", "--out", str(tmp_path / "rep"),
                         "--no-analytics", "--cable-model",
                         "mellanox-qdr56"]) == 2
        assert "--cable-model" in capsys.readouterr().err

    def test_report_rejects_workers_with_input_files(self, tiny_rows,
                                                     tmp_path, capsys):
        assert cli_main(["report", str(tiny_rows), "--out",
                         str(tmp_path / "rep"), "--workers", "8"]) == 2
        assert "--workers" in capsys.readouterr().err

    def test_campaign_cli_rejects_multiple_files(self, tmp_path, capsys):
        spec = tiny_campaign().save(tmp_path / "grid.json")
        assert cli_main(["campaign", str(spec), str(spec)]) == 2
        assert f"unrecognized arguments: {spec}" in capsys.readouterr().err

    def test_experiments_reject_report_flags(self, capsys):
        assert cli_main(["table2", "--scale", "quick", "--png"]) == 2
        assert "unrecognized arguments: --png" in capsys.readouterr().err
