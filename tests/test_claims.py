"""The claims table: verdict kinds, the one saturation rule, notes and
REPORT.md, all on small synthetic row tables."""

import json
from pathlib import Path

import pytest

from repro.analysis import claims
from repro.analysis.frames import MetricsTable, RowTable
from repro.analysis.report import build_report
from repro.experiments.common import ExperimentResult

R, NR, INC, UNT = (claims.REPRODUCED, claims.NOT_REPRODUCED,
                   claims.INCONCLUSIVE, claims.UNTESTED)


def curve_rows(label, loads, latency, saturated, *, campaign="fig6-test",
               pattern="uniform", accepted=None, spec=None):
    """One open-loop sweep as campaign rows."""
    accepted = accepted or [min(load, 0.9) for load in loads]
    spec = {"traffic": {"pattern": pattern, "seed": None}, **(spec or {})}
    return [
        {
            "campaign": campaign, "scenario": f"h-{campaign}-{label}",
            "label": label, "engine": "open", "row": i, "rows": len(loads),
            "spec": spec, "load": load, "latency": lat, "accepted": acc,
            "saturated": sat,
        }
        for i, (load, lat, acc, sat) in enumerate(
            zip(loads, latency, accepted, saturated)
        )
    ]


LOADS = [0.1, 0.2, 0.3, 0.4, 0.5]
FLAT = [12.0, 12.5, 13.0, 13.5, 14.0]
NEVER = [False] * 5


def worstcase_table() -> RowTable:
    """The paper-scale worst-case shape: MIN flagged at the first load,
    UGAL-L and FT-ANCA unsaturated through the last."""
    return RowTable.from_rows(
        curve_rows("SF-MIN", LOADS, [None] * 5, [True] * 5, pattern="worstcase")
        + curve_rows("SF-UGAL-L", LOADS, FLAT, NEVER, pattern="worstcase")
        + curve_rows("FT-ANCA", LOADS, FLAT, NEVER, pattern="worstcase")
    )


def by_id(verdicts):
    return {v.claim.id: v for v in verdicts}


class TestSaturationRule:
    def test_worstcase_shape_reads_unsaturated_never_one(self):
        got = by_id(claims.evaluate("fig6", worstcase_table()))
        below = got["fig6.min-below-ugal"]
        assert below.status == R
        assert "SF-UGAL-L not saturated through 0.5" in below.detail
        assert "SF-MIN saturates at 0.1" in below.detail
        assert "1.0" not in below.detail
        # Neither FT-ANCA nor UGAL-L saturates in range: undecided.
        ft = got["fig6.ft-highest"]
        assert ft.status == INC
        assert "undecided against SF-UGAL-L not saturated through 0.5" in ft.detail

    def test_knee_counts_as_saturation(self):
        # No flag, but latency passes 3x its lowest-load value.
        table = RowTable.from_rows(
            curve_rows("FT-ANCA", LOADS, FLAT, NEVER, pattern="worstcase")
            + curve_rows("DF-UGAL-L", LOADS, [12, 13, 14, 20, 40], NEVER,
                         pattern="worstcase")
        )
        ft = by_id(claims.evaluate("fig6", table))["fig6.ft-highest"]
        assert ft.status == R
        assert "above all 1 rivals" in ft.detail

    def test_same_grid_point_is_inconclusive(self):
        table = RowTable.from_rows(
            curve_rows("SF-MIN", LOADS, FLAT, [False] * 3 + [True] * 2)
            + curve_rows("SF-VAL", LOADS, FLAT, [False] * 3 + [True] * 2)
        )
        got = by_id(claims.evaluate("fig6", table))["fig6.min-outlives-val"]
        assert got.status == INC
        assert "SF-MIN saturates at 0.4, not at 0.3" in got.detail

    @pytest.mark.parametrize(
        "flags, status",
        [
            ([False, False, True, True, True], R),    # (0.2, 0.3]: below 0.55
            ([False, False, False, False, False], INC),  # unsaturated through 0.5
        ],
    )
    def test_val_bound(self, flags, status):
        table = RowTable.from_rows(curve_rows("SF-VAL", LOADS, FLAT, flags))
        got = by_id(claims.evaluate("fig6", table))["fig6.val-saturates-early"]
        assert got.status == status

    def test_val_unsaturated_past_the_bound_fails(self):
        loads = [0.2, 0.4, 0.6, 0.8]
        table = RowTable.from_rows(curve_rows("SF-VAL", loads, FLAT[:4], NEVER[:4]))
        got = by_id(claims.evaluate("fig6", table))["fig6.val-saturates-early"]
        assert got.status == NR
        assert got.detail == "SF-VAL not saturated through 0.8 (bound 0.55)"


class TestVerdictKinds:
    """One case per verdict: reproduced, not reproduced, inconclusive,
    untested."""

    def test_reproduced(self):
        table = RowTable.from_rows(
            curve_rows("SF-MIN", LOADS, [8.0] * 5, NEVER)
            + curve_rows("DF-UGAL-L", LOADS, [14.0] * 5, NEVER)
        )
        got = by_id(claims.evaluate("fig6", table))["fig6.sf-lowest-latency"]
        assert got.status == R
        assert got.detail == (
            "lowest-load latency SF-MIN 8.00, DF-UGAL-L 14.00 cycles"
        )

    def test_not_reproduced(self):
        # UGAL-L saturates first under worst-case traffic.
        table = RowTable.from_rows(
            curve_rows("SF-MIN", LOADS, FLAT, NEVER, pattern="worstcase")
            + curve_rows("SF-UGAL-L", LOADS, FLAT, [False, True, True, True, True],
                         pattern="worstcase")
        )
        got = by_id(claims.evaluate("fig6", table))["fig6.min-below-ugal"]
        assert got.status == NR

    def test_inconclusive(self):
        table = RowTable.from_rows(
            curve_rows("16 flits", LOADS, FLAT, NEVER, campaign="fig8a-t",
                       spec={"sim": {"buffer_per_port": 16}})
            + curve_rows("256 flits", LOADS, FLAT, NEVER, campaign="fig8a-t",
                         spec={"sim": {"buffer_per_port": 256}})
        )
        got = by_id(claims.evaluate("buffers", table))["buffers.large-more-load"]
        assert got.status == INC

    def test_untested(self):
        got = claims.evaluate("fig6", RowTable.from_rows(
            curve_rows("SF-MIN", LOADS, FLAT, NEVER, pattern="shift")
        ))
        assert {v.status for v in got} == {UNT}

    def test_missing_column_reads_untested(self):
        result = ExperimentResult("fig11-cost", "t")
        result.add_table(["topology", "cost"], [["SF", 1]])
        (got,) = claims.evaluate("fig11-cost", result)
        assert got.status == UNT
        assert "input lacks" in got.detail


def result_with(experiment, headers, rows):
    result = ExperimentResult(experiment, "t")
    result.add_table(headers, rows)
    return result


class TestSparseInputs:
    """Input lacking a rival, a row or a table reads untested; no
    predicate raises out of :meth:`Claim.evaluate`."""

    @pytest.mark.parametrize("claim", claims.CLAIMS, ids=lambda c: c.id)
    def test_empty_input(self, claim):
        families = {f for _, f in claims.FAMILY_PREFIXES}
        data = (MetricsTable() if claim.reads == "fig9" else RowTable()
                if claim.reads in families else ExperimentResult(claim.reads, "t"))
        got = claim.evaluate(data)
        assert got.status == UNT
        assert got.detail.startswith("input lacks")

    @pytest.mark.parametrize(
        "reads, headers, rows, lacks",
        [
            ("fig5a", ["construction", "k'", "% of Moore bound"],
             [["FT-3", 4, 2.0]], "SF MMS rows"),
            ("table4", ["topology", "group", "N", "$/node", "W/node"],
             [["SF", "high-radix (k=43)", 10830, 1033, 8.0]], "a DF row of SF's radix"),
            ("fig11-cost", ["topology", "$ / endpoint at largest N"], [["SF", 1000]],
             "a rival row"),
            ("vc-counts", ["network", "Gopal 2-VC MIN acyclic",
                           "Gopal 4-VC adaptive acyclic", "DFSSSP-style VC layers"],
             [["SF q=5", True, True, 2]], "a DLN row"),
            ("ablate-xi", ["xi", "diameter", "avg distance", "degrees"], [],
             "primitive-element rows"),
        ],
    )
    def test_missing_rival_or_row(self, reads, headers, rows, lacks):
        verdicts = claims.evaluate(reads, result_with(reads, headers, rows))
        assert verdicts and {v.status for v in verdicts} == {UNT}
        assert any(v.detail == f"input lacks {lacks}" for v in verdicts)

    def test_sparse_experiment_runs_read_untested(self):
        from repro.experiments import fig1_avg_hops, fig5a_moore2

        for result in (fig1_avg_hops.run(topologies=["SF"]),
                       fig5a_moore2.run(max_radix=4)):
            notes = [claims.parse(n) for n in result.notes]
            assert {v.status for v in notes if v} == {UNT}


class TestFamilies:
    def test_buffers_compare_at_highest_common_load(self):
        spec = lambda b: {"sim": {"buffer_per_port": b}}  # noqa: E731
        table = RowTable.from_rows(
            curve_rows("16 flits", LOADS, [10, 11, 12, 30, None], NEVER,
                       spec=spec(16))
            + curve_rows("256 flits", LOADS, [10, 11, 12, 20, 25], NEVER,
                         spec=spec(256))
        )
        got = by_id(claims.evaluate("buffers", table))["buffers.small-lower-latency"]
        assert got.status == NR
        assert got.detail == "16 flits 30.00 vs 256 flits 20.00 cycles at load 0.4"

    @pytest.mark.parametrize(
        "peaks, status", [((0.8, 0.78, 0.7), R), ((0.7, 0.8, 0.6), NR)]
    )
    def test_oversub(self, peaks, status):
        rows = []
        for p, peak in zip((4, 5, 6), peaks):
            rows += curve_rows(f"p={p}", [0.5, 1.0], [9, 20], [False, False],
                               accepted=[0.5, peak],
                               spec={"topology": {"params": {"concentration": p}}})
        (got,) = claims.evaluate("oversub", RowTable.from_rows(rows))
        assert got.status == status

    def test_fig9_reads_channel_loads(self):
        metrics = MetricsTable(rows=[
            {"campaign": "fig9-t", "scenario": "a", "label": "SF-MIN", "row": 0,
             "rows": 1, "load": 0.3, "channel_load": [0.0, 0.0, 0.0, 0.99]},
            {"campaign": "fig9-t", "scenario": "b", "label": "SF-UGAL-L", "row": 0,
             "rows": 1, "load": 0.3, "channel_load": [0.3, 0.3, 0.4, 0.5]},
        ])
        (got,) = claims.evaluate("fig9", metrics)
        assert got.status == R
        assert got.detail == "hottest channel SF-UGAL-L 0.500 vs SF-MIN 0.990 flits/cycle"
        assert {v.status for v in claims.evaluate("fig9", MetricsTable())} == {UNT}

    def test_workload_means_finished_runs(self):
        def row(label, makespan, finished=True, scenario="s"):
            return {
                "campaign": "workload-completion-t", "scenario": scenario + label,
                "label": label, "engine": "closed", "row": 0, "rows": 1,
                "spec": {}, "workload": label.split("/")[1],
                "num_messages": 1, "completed_messages": 1,
                "finished": finished, "makespan": makespan, "cycles": makespan,
                "delivered_flits": 1, "avg_message_latency": 1.0,
                "p99_message_latency": 1.0, "avg_packet_latency": 1.0,
                "flits_per_cycle": 0.1,
            }

        table = RowTable.from_rows([
            row("SF-MIN/broadcast", 40), row("DF-UGAL-L/broadcast", 50),
            row("SF-UGAL-L/gather", 100), row("SF-UGAL-L/gather", 140, scenario="t"),
            row("SF-VAL/gather", 110), row("FT-ANCA/alltoall", 90),
            row("SF-MIN/alltoall", 80, finished=False),
        ])
        got = by_id(claims.evaluate("workload", table))
        assert got["workload.sf-min-trees"].status == R
        # UGAL-L's gather mean is 120 > VAL's 110.
        assert got["workload.ugal-beats-val"].status == NR
        assert got["workload.ft-alltoall"].status == INC
        assert "SF-MIN hit the cycle cap" in got["workload.ft-alltoall"].detail

    def test_fault_needs_connected_majority_throughput(self):
        rows = []
        for frac, peak in ((0.0, 0.8), (0.1, 0.5), (0.2, None)):
            fault = {"link_fraction": frac} if frac else None
            rows += curve_rows(
                f"SF-MIN/f={frac:g}", [0.5, 0.9], [9, 20], [False, False],
                campaign="fault-t", accepted=[peak, peak],
                spec={"fault": fault},
            )
        (got,) = claims.evaluate("fault", RowTable.from_rows(rows))
        assert got.status == NR
        assert got.detail == "peak accepted SF-MIN disconnected at 0.2 dead links"

    def test_family_by_campaign_prefix(self):
        assert claims.family("fig6-uniform-quick") == "fig6"
        assert claims.family("fig8a-quick") == "buffers"
        assert claims.family("fig8-oversub-quick") == "oversub"
        assert claims.family("fault-degradation-quick") == "fault"
        assert claims.family("fig6-x", "closed") == "workload"
        assert claims.family("my-grid") == "generic"


class TestNotesAndReport:
    def failing_table(self):
        return RowTable.from_rows(
            curve_rows("SF-MIN", LOADS, FLAT, NEVER, campaign="fig6-worstcase-t",
                       pattern="worstcase")
            + curve_rows("SF-UGAL-L", LOADS, FLAT, [False, True, True, True, True],
                         campaign="fig6-worstcase-t", pattern="worstcase")
        )

    def test_note_round_trips_and_renders_failure(self):
        result = ExperimentResult("fig6-worstcase", "t")
        verdicts = claims.note(result, "fig6", self.failing_table())
        assert [claims.parse(n, "fig6-worstcase") for n in result.notes] == verdicts
        assert "note: not reproduced [fig6.min-below-ugal]: " in result.render()
        assert claims.parse("a plain note") is None

    def test_report_shows_failure_in_table_and_section(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text("".join(
            json.dumps(r) + "\n" for r in self.failing_table().rows
        ))
        result = build_report([path], tmp_path / "out", analytics=False)
        text = result.report_path.read_text()
        table, sections = text.split("## Contents")
        assert ("| not reproduced | `fig6.min-below-ugal` |" in table)
        assert "| fig6-worstcase-t |" in table
        assert "- not reproduced: Worst-case traffic saturates SF-MIN" in sections
        # Claims nothing read still get a row each.
        assert "| untested | `table2.diameters` |" in table
        assert len(claims.summary([])) == len(claims.CLAIMS)

    def test_claim_ids_unique(self):
        ids = [c.id for c in claims.CLAIMS]
        assert len(ids) == len(set(ids))


def test_pinned_quick_table_names_every_claim_of_its_inputs():
    """CI compares quick-scale verdicts with this file; it must name
    exactly the claims each input is judged by."""
    pinned = json.loads((Path(__file__).parent / "claims_quick.json").read_text())

    def ids(reads):
        return {c.id for c in claims.CLAIMS if c.reads == reads}

    for campaign, got in pinned["report"].items():
        engine = "closed" if campaign.startswith("workload-completion") else "open"
        assert set(got) == ids(claims.family(campaign, engine))
        assert set(got.values()) <= set(claims.VERDICTS)
    assert set(pinned["fig6d"]) == ids("fig6")
    assert set(pinned["ablate-ugal"]) == ids("ablate-ugal")
