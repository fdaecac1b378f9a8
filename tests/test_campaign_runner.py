"""run_campaign: dispatch, JSONL persistence, resume, CLI."""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import main as cli_main
from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    canonical_json,
    run_campaign,
    scenario_hash,
)
from repro.sim.config import SimConfig
from repro.sim.parallel import simulations_started

CFG = SimConfig(warmup_cycles=20, measure_cycles=60, drain_cycles=300)
HC = TopologySpec("HC", target_endpoints=16, params={"concentration": 2})


def open_scenario(label="open", seed=0, loads=(0.1, 0.3)):
    return Scenario(
        topology=HC,
        routing=RoutingSpec("min"),
        sim=CFG,
        traffic=TrafficSpec("uniform", seed=seed),
        loads=list(loads),
        label=label,
    )


def closed_scenario(label="closed", kind="ring-allreduce", seed=0):
    return Scenario(
        topology=HC,
        routing=RoutingSpec("min"),
        sim=SimConfig(seed=seed),
        workload=WorkloadSpec(kind, ranks=8, size_flits=2),
        max_cycles=50_000,
        label=label,
    )


def mixed_campaign() -> Campaign:
    return Campaign(
        "mixed",
        [
            open_scenario("sweep-a"),
            closed_scenario("ring"),
            closed_scenario("a2a", kind="alltoall"),
            open_scenario("sweep-b", seed=1),
        ],
    )


class TestDispatch:
    def test_rows_in_campaign_order_with_positions(self, tmp_path):
        campaign = mixed_campaign()
        report = run_campaign(campaign, out=tmp_path / "r.jsonl")
        assert report.simulated == 4 and report.skipped == 0
        labels = [r["label"] for r in report.rows]
        assert labels == ["sweep-a", "sweep-a", "ring", "a2a", "sweep-b", "sweep-b"]
        assert [r["row"] for r in report.rows] == [0, 1, 0, 0, 0, 1]
        engines = {r["label"]: r["engine"] for r in report.rows}
        assert engines["sweep-a"] == "open" and engines["ring"] == "closed"

    def test_rows_are_self_describing(self):
        report = run_campaign(Campaign("one", [open_scenario()]))
        row = report.rows[0]
        restored = Scenario.from_dict(row["spec"])
        assert scenario_hash(restored) == row["scenario"]
        assert {"load", "latency", "accepted", "saturated"} <= set(row)

    def test_file_matches_report_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        report = run_campaign(mixed_campaign(), out=out)
        lines = out.read_text().splitlines()
        assert [json.loads(x) for x in lines] == report.rows

    def test_duplicates_run_once(self):
        before = simulations_started()
        report = run_campaign(Campaign("dup", [open_scenario(), open_scenario()]))
        assert report.simulated == 1
        assert simulations_started() - before == 2  # one sweep, two loads

    def test_worker_count_does_not_change_rows(self, tmp_path):
        serial = run_campaign(mixed_campaign(), workers=1, out=tmp_path / "w1.jsonl")
        fanned = run_campaign(mixed_campaign(), workers=2, out=tmp_path / "w2.jsonl")
        assert serial.rows == fanned.rows
        assert (tmp_path / "w1.jsonl").read_bytes() == (tmp_path / "w2.jsonl").read_bytes()

    def test_resume_requires_out(self):
        with pytest.raises(ValueError, match="resume"):
            run_campaign(mixed_campaign(), resume=True)

    def test_rows_carry_fidelity(self):
        report = run_campaign(
            Campaign("fid", [open_scenario(), closed_scenario()])
        )
        assert {r["fidelity"] for r in report.rows} == {"cycle"}

    def test_flow_backend_dispatch_and_fidelity_tag(self, tmp_path):
        flow = open_scenario("flow-sweep")
        flow.backend = "flow"
        flow.revalidate()
        campaign = Campaign("fid-mixed", [open_scenario("cycle-sweep"), flow])
        report = run_campaign(campaign, out=tmp_path / "rows.jsonl")
        fidelity = {r["label"]: r["fidelity"] for r in report.rows}
        assert fidelity == {"cycle-sweep": "cycle", "flow-sweep": "flow"}
        # Flow rows are real measurements with the open-loop schema.
        flow_rows = [r for r in report.rows if r["fidelity"] == "flow"]
        assert len(flow_rows) == 2
        assert all(r["spec"]["backend"] == "flow" for r in flow_rows)
        assert all(r["accepted"] is not None for r in flow_rows)

    def test_flow_campaign_worker_count_byte_identity(self, tmp_path):
        """The flow determinism contract at the campaign level: output
        files are byte-identical for any worker count."""
        def flow_campaign():
            s = open_scenario("flow", loads=(0.2, 0.5, 0.8))
            s.backend = "flow"
            s.revalidate()
            return Campaign("flow-only", [s])

        run_campaign(flow_campaign(), workers=1, out=tmp_path / "w1.jsonl")
        run_campaign(flow_campaign(), workers=4, out=tmp_path / "w4.jsonl")
        assert (tmp_path / "w1.jsonl").read_bytes() == (
            tmp_path / "w4.jsonl"
        ).read_bytes()

    def test_flow_campaign_resumes_with_zero_simulations(self, tmp_path):
        s = open_scenario("flow", loads=(0.2, 0.5))
        s.backend = "flow"
        s.revalidate()
        campaign = Campaign("flow-resume", [s])
        out = tmp_path / "rows.jsonl"
        run_campaign(campaign, out=out)
        before = simulations_started()
        report = run_campaign(campaign, out=out, resume=True)
        assert simulations_started() == before
        assert report.simulated == 0 and report.skipped == 1


class TestResume:
    def test_complete_file_resumes_with_zero_simulations(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        clean = out.read_bytes()

        before = simulations_started()
        report = run_campaign(campaign, out=out, resume=True)
        assert simulations_started() == before
        assert report.simulated == 0 and report.skipped == 4
        assert out.read_bytes() == clean
        assert [r["label"] for r in report.rows] == [
            "sweep-a", "sweep-a", "ring", "a2a", "sweep-b", "sweep-b"
        ]

    @pytest.mark.parametrize("keep_lines", [0, 1, 2, 3, 5])
    def test_killed_campaign_resumes_byte_identical(self, tmp_path, keep_lines):
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        clean = out.read_bytes()

        # Simulate a kill: keep a prefix plus a torn (half-written) line.
        lines = clean.decode().splitlines(keepends=True)
        torn = lines[keep_lines][: len(lines[keep_lines]) // 2] if keep_lines < len(lines) else ""
        out.write_bytes("".join(lines[:keep_lines]).encode() + torn.encode())

        report = run_campaign(campaign, out=out, resume=True)
        assert out.read_bytes() == clean
        assert report.simulated + report.skipped == 4

    def test_interrupted_resume_keeps_tmp_progress(self, tmp_path):
        # Kill #1 leaves a partial out file; the resume run makes more
        # progress into out.jsonl.tmp and is killed too.  The next
        # resume must harvest the tmp file instead of re-simulating.
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        clean = out.read_bytes()
        lines = clean.decode().splitlines(keepends=True)
        out.write_text("".join(lines[:2]))                      # kill #1: sweep-a only
        (tmp_path / "rows.jsonl.tmp").write_text("".join(lines[:4]))  # kill #2: +ring, a2a
        before = simulations_started()
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 1 and report.skipped == 3    # only sweep-b reruns
        assert simulations_started() - before == 2              # its two load points
        assert out.read_bytes() == clean

    def test_partial_scenario_reruns_completely(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        campaign = Campaign("one", [open_scenario(loads=(0.1, 0.2, 0.3))])
        run_campaign(campaign, out=out)
        clean = out.read_bytes()
        # Keep only 2 of the scenario's 3 rows: the scenario is
        # incomplete and must be resimulated from scratch.
        out.write_text("".join(clean.decode().splitlines(keepends=True)[:2]))
        before = simulations_started()
        report = run_campaign(campaign, out=out, resume=True)
        assert simulations_started() > before
        assert report.simulated == 1 and report.skipped == 0
        assert out.read_bytes() == clean

    def test_invalid_utf8_line_is_resimulated(self, tmp_path):
        # A flipped byte costs only its own line: that scenario (the
        # "ring" row) re-simulates, every other one replays.
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        clean = out.read_bytes()
        lines = clean.splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"label"', b'"\xfflabel"', 1)
        out.write_bytes(b"".join(lines))
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 1 and report.skipped == 3
        assert out.read_bytes() == clean

    def test_resume_ignores_foreign_rows(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        campaign = Campaign("one", [open_scenario()])
        run_campaign(campaign, out=out)
        clean = out.read_bytes()
        out.write_bytes(b'{"scenario": "feedface00000000", "row": 0, "rows": 1}\n' + clean)
        report = run_campaign(campaign, out=out, resume=True)
        assert report.skipped == 1
        assert out.read_bytes() == clean

    def test_resume_ignores_rows_from_other_campaigns(self, tmp_path):
        # Same scenarios under a renamed campaign: cached lines would
        # replay the stale name verbatim, so they must not be reused.
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("old-name", [open_scenario()]), out=out)
        report = run_campaign(
            Campaign("new-name", [open_scenario()]), out=out, resume=True
        )
        assert report.simulated == 1 and report.skipped == 0
        assert all(
            json.loads(l)["campaign"] == "new-name"
            for l in out.read_text().splitlines()
        )

    def test_resume_with_missing_file_runs_everything(self, tmp_path):
        report = run_campaign(
            Campaign("one", [open_scenario()]), out=tmp_path / "new.jsonl", resume=True
        )
        assert report.simulated == 1

    def test_changed_scenario_invalidates_cache(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("one", [open_scenario(label="v1")]), out=out)
        report = run_campaign(
            Campaign("one", [open_scenario(label="v2")]), out=out, resume=True
        )
        assert report.simulated == 1 and report.skipped == 0

    #: Open, closed, open, closed, open: every resume with holes mixes
    #: single-scenario units, batches and cached neighbours.
    HOLES_KINDS = ("open", "closed", "open", "closed", "open")

    @pytest.fixture(scope="class")
    def holes_clean(self, tmp_path_factory):
        """The 5-scenario holes campaign and its clean run's bytes."""
        campaign = Campaign("holes", [
            open_scenario(f"open-{k}", seed=k) if kind == "open"
            else closed_scenario(f"closed-{k}", seed=k)
            for k, kind in enumerate(self.HOLES_KINDS)
        ])
        out = tmp_path_factory.mktemp("holes") / "clean.jsonl"
        run_campaign(campaign, out=out)
        return campaign, out.read_bytes()

    @classmethod
    def holes_events(cls, cached) -> list[tuple[str, int]]:
        """The ``(event, index)`` sequence of a resume that finds
        ``cached`` complete: a pending open scenario starts and
        finishes in place; a pending closed one opens a batch over the
        pending closed scenarios up to the next pending open one, and
        the cached scenarios inside that window replay after it."""
        kinds = cls.HOLES_KINDS
        events: list[tuple[str, int]] = []
        i = 0
        while i < len(kinds):
            if i in cached:
                events.append(("scenario_cached", i))
                i += 1
            elif kinds[i] == "open":
                events += [("scenario_start", i), ("scenario_finish", i)]
                i += 1
            else:
                j = i
                while j < len(kinds) and (j in cached or kinds[j] == "closed"):
                    j += 1
                events += [("batch_start", i), ("batch_finish", i)]
                events += [("scenario_cached", k) for k in range(i, j) if k in cached]
                i = j
        return events

    #: Literal sequences for three subsets (start, finish and cached
    #: stand for scenario_start, scenario_finish and scenario_cached).
    HOLES_PINNED = {
        frozenset({1, 3}): [
            ("scenario_start", 0), ("scenario_finish", 0), ("scenario_cached", 1),
            ("scenario_start", 2), ("scenario_finish", 2), ("scenario_cached", 3),
            ("scenario_start", 4), ("scenario_finish", 4),
        ],
        frozenset({0, 2, 4}): [
            ("scenario_cached", 0), ("batch_start", 1), ("batch_finish", 1),
            ("scenario_cached", 2), ("scenario_cached", 4),
        ],
        frozenset({2}): [
            ("scenario_start", 0), ("scenario_finish", 0), ("batch_start", 1),
            ("batch_finish", 1), ("scenario_cached", 2), ("scenario_start", 4),
            ("scenario_finish", 4),
        ],
    }

    @pytest.mark.parametrize(
        "cached",
        [frozenset(k for k in range(5) if mask >> k & 1) for mask in range(32)],
        ids=lambda cached: "cached-" + ("".join(map(str, sorted(cached))) or "none"),
    )
    def test_resume_with_holes_byte_identical_in_event_order(
        self, tmp_path, holes_clean, cached
    ):
        campaign, clean = holes_clean
        lines = clean.splitlines(keepends=True)
        hashes = [scenario_hash(s) for s in campaign.scenarios]
        out = tmp_path / "rows.jsonl"
        out.write_bytes(b"".join(
            line for line in lines
            if hashes.index(json.loads(line)["scenario"]) in cached
        ))
        report = run_campaign(campaign, out=out, resume=True)
        assert out.read_bytes() == clean
        assert report.skipped == len(cached)
        assert report.simulated == 5 - len(cached)
        events = [(e["event"], e["index"]) for e in report.events if "index" in e]
        assert events == self.holes_events(cached)
        assert events == self.HOLES_PINNED.get(cached, events)

    @pytest.mark.parametrize(
        "cached", list(HOLES_PINNED),
        ids=lambda cached: "cached-" + "".join(map(str, sorted(cached))),
    )
    def test_pooled_resume_with_holes_keeps_the_serial_event_order(
        self, tmp_path, holes_clean, cached
    ):
        """Units run in a fork pool replay their events where the
        serial loop emits them, cached neighbours included."""
        campaign, clean = holes_clean
        hashes = [scenario_hash(s) for s in campaign.scenarios]
        out = tmp_path / "rows.jsonl"
        out.write_bytes(b"".join(
            line for line in clean.splitlines(keepends=True)
            if hashes.index(json.loads(line)["scenario"]) in cached
        ))
        report = run_campaign(campaign, workers=2, out=out, resume=True)
        assert out.read_bytes() == clean
        events = [(e["event"], e["index"]) for e in report.events if "index" in e]
        assert events == self.HOLES_PINNED[cached]

    @pytest.mark.parametrize(
        "scenarios", [5, [{"scenario": ["x"]}]], ids=["int", "list-hash"]
    )
    def test_malformed_meta_sidecar_is_rewritten(self, tmp_path, scenarios):
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        meta = tmp_path / "rows.jsonl.meta.json"
        meta.write_text(json.dumps({"campaign": "mixed", "scenarios": scenarios}))
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 0 and report.skipped == 4
        rewritten = meta.read_bytes()
        index = json.loads(rewritten)["scenarios"]
        assert [e["scenario"] for e in index] == [
            scenario_hash(s) for s in campaign.scenarios
        ]
        assert {e["origin"] for e in index} == {"simulated"}
        run_campaign(campaign, out=out, resume=True)
        assert meta.read_bytes() == rewritten

    def test_noop_resume_never_resolves_a_topology(self, tmp_path, monkeypatch):
        """A fully-cached resume short-circuits before spec resolution:
        O(hash count) plus the byte replay, no topology construction."""
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        clean = out.read_bytes()

        def bomb(*a, **k):  # any resolve() call fails the test
            raise AssertionError("no-op resume resolved a scenario")

        monkeypatch.setattr("repro.scenarios.runner.resolve", bomb)
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 0 and report.skipped == 4
        assert out.read_bytes() == clean


class TestHeartbeatRateGuards:
    """sims/sec must be null, not a division artifact, whenever a
    campaign schedules zero simulations or finishes in ~zero time."""

    def test_fully_resumed_campaign_reports_null_rate(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        campaign = mixed_campaign()
        run_campaign(campaign, out=out)
        report = run_campaign(campaign, out=out, resume=True)
        hb = report.heartbeat
        assert hb["sims"] == 0 and hb["sims_per_s"] is None
        assert "sims/s" not in report.summary()

    def test_simulated_campaign_reports_a_rate(self):
        report = run_campaign(Campaign("one", [open_scenario()]))
        hb = report.heartbeat
        assert hb["sims"] > 0 and hb["sims_per_s"] > 0
        assert "sims/s" in report.summary()

    def test_rate_helper_guards_zero_sims_and_zero_wall(self):
        from repro.scenarios.runner import _sims_per_s

        assert _sims_per_s(0, 1.0) is None
        assert _sims_per_s(5, 0.0) is None
        assert _sims_per_s(5, -1.0) is None
        assert _sims_per_s(10, 2.0) == 5.0

    def test_summary_tolerates_rateless_heartbeat(self):
        from repro.scenarios.runner import CampaignReport

        report = CampaignReport(campaign="c")
        report.events.append(
            {"event": "campaign_finish", "wall_s": 0.0, "sims": 0,
             "sims_per_s": None, "simulated": 0, "skipped": 0, "rows": 0}
        )
        assert "sims/s" not in report.summary()  # and no TypeError


class TestTelemetrySidecar:
    """The metrics sidecar: worker-count byte-identity, resume replay,
    and the no-probes-no-file contract."""

    @staticmethod
    def probed_scenario(label="probed", loads=(0.1, 0.3), seed=0):
        from repro.sim.telemetry import TelemetrySpec

        return Scenario(
            topology=HC,
            routing=RoutingSpec("min"),
            sim=CFG,
            traffic=TrafficSpec("uniform", seed=seed),
            loads=list(loads),
            label=label,
            telemetry=TelemetrySpec.full(),
        )

    @classmethod
    def probed_run(cls, tmp_path, loads):
        """A clean 3-scenario probed run: (campaign, out, rows, sidecar)."""
        campaign = Campaign("tele3", [
            cls.probed_scenario(f"probed-{k}", loads=loads, seed=k)
            for k in range(3)
        ])
        out = tmp_path / "rows.jsonl"
        run_campaign(campaign, out=out)
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        return campaign, out, out.read_bytes(), sidecar.read_bytes()

    def test_sidecar_byte_identical_across_worker_counts(self, tmp_path):
        for w in (1, 4):
            run_campaign(
                Campaign("tele", [self.probed_scenario()]),
                workers=w, out=tmp_path / f"w{w}.jsonl",
            )
        s1 = (tmp_path / "w1.jsonl.metrics.jsonl").read_bytes()
        s4 = (tmp_path / "w4.jsonl.metrics.jsonl").read_bytes()
        assert s1 == s4
        rows = [json.loads(x) for x in s1.decode().splitlines()]
        assert [r["row"] for r in rows] == [0, 1]
        assert all("channel_load" in r and "latency_hist" in r for r in rows)

    def test_report_carries_metrics_rows_and_heartbeat(self):
        report = run_campaign(Campaign("tele", [self.probed_scenario()]))
        assert len(report.metrics_rows) == 2
        hb = report.heartbeat
        assert hb is not None and hb["sims"] == 2
        assert "telemetry rows" in report.summary()
        assert "sims/s" in report.summary()

    def test_resume_replays_sidecar_byte_identical(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("tele", [self.probed_scenario()]), out=out)
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        before = sidecar.read_bytes()
        report = run_campaign(
            Campaign("tele", [self.probed_scenario()]), out=out, resume=True
        )
        assert report.simulated == 0 and report.skipped == 1
        assert sidecar.read_bytes() == before

    @pytest.mark.parametrize("loads", [(0.1,), (0.1, 0.3)],
                             ids=["1-load", "2-load"])
    def test_torn_mid_file_sidecar_line_resimulates(self, tmp_path, loads):
        # A torn line's hash is unreadable, so every scenario it may
        # have belonged to re-simulates.  With one line per scenario the
        # torn line is a whole scenario's telemetry, one that neither
        # neighbouring line names: the range between them must count.
        campaign, out, clean, clean_sidecar = self.probed_run(tmp_path, loads)
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        lines = clean_sidecar.splitlines(keepends=True)
        assert len(lines) == 3 * len(loads)
        for k, line in enumerate(lines):
            torn = list(lines)
            torn[k] = line[: len(line) // 2] + b"\n"
            sidecar.write_bytes(b"".join(torn))
            report = run_campaign(campaign, out=out, resume=True)
            assert report.simulated >= 1 and report.skipped + report.simulated == 3
            assert out.read_bytes() == clean, k
            assert sidecar.read_bytes() == clean_sidecar, k

    def test_torn_sidecar_line_replays_from_the_store(self, tmp_path):
        campaign, out, clean, clean_sidecar = self.probed_run(tmp_path, (0.1,))
        store = tmp_path / "store"
        run_campaign(campaign, out=tmp_path / "cold.jsonl", store=store)
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        lines = clean_sidecar.splitlines(keepends=True)
        lines[1] = lines[1][:20] + b"\n"
        sidecar.write_bytes(b"".join(lines))
        before = simulations_started()
        report = run_campaign(campaign, out=out, resume=True, store=store)
        assert simulations_started() == before
        assert report.store_hits >= 1 and report.simulated == 0
        assert out.read_bytes() == clean
        assert sidecar.read_bytes() == clean_sidecar

    def test_torn_sidecar_tail_resimulates_only_the_unfinished_scenario(
        self, tmp_path
    ):
        # Killed while writing the last scenario's second metrics line:
        # its result rows were never written, the others are complete.
        campaign, out, clean, clean_sidecar = self.probed_run(tmp_path, (0.1, 0.3))
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        rows = clean.splitlines(keepends=True)
        lines = clean_sidecar.splitlines(keepends=True)
        out.write_bytes(b"".join(rows[:4]))
        sidecar.write_bytes(b"".join(lines[:5]) + lines[5][:40])
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 1 and report.skipped == 2
        assert out.read_bytes() == clean
        assert sidecar.read_bytes() == clean_sidecar

    def test_probeless_campaign_leaves_no_sidecar(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("plain", [open_scenario()]), out=out)
        assert not out.with_name(out.name + ".metrics.jsonl").exists()

    def test_stale_sidecar_removed_when_probes_disarmed(self, tmp_path):
        out = tmp_path / "rows.jsonl"
        run_campaign(Campaign("tele", [self.probed_scenario()]), out=out)
        sidecar = out.with_name(out.name + ".metrics.jsonl")
        assert sidecar.exists()
        run_campaign(Campaign("tele", [open_scenario("probed")]), out=out)
        assert not sidecar.exists()

    def test_progress_streams_heartbeat_events(self, tmp_path, capsys):
        run_campaign(
            Campaign("tele", [self.probed_scenario()]),
            out=tmp_path / "r.jsonl", progress=True,
        )
        events = [json.loads(x) for x in capsys.readouterr().err.splitlines()]
        kinds = [e["event"] for e in events]
        assert kinds[0] == "scenario_start"
        assert kinds[-1] == "campaign_finish"
        assert events[-1]["sims"] == 2


class TestResumeReadsLikeTheStore:
    """The resume files are read one generation at a time, and a line
    replays only when the store would accept its scenario's entry."""

    @pytest.fixture(scope="class")
    def probed_clean(self, tmp_path_factory):
        """Probe-armed scenarios A and B: (campaign, rows, sidecar)."""
        campaign = Campaign("probed-ab", [
            TestTelemetrySidecar.probed_scenario(label, loads=(0.1, 0.3), seed=k)
            for k, label in enumerate("AB")
        ])
        out = tmp_path_factory.mktemp("probed") / "clean.jsonl"
        run_campaign(campaign, out=out)
        sidecar = out.with_name(out.name + ".metrics.jsonl").read_bytes()
        return campaign, out.read_bytes(), sidecar

    @staticmethod
    def files(tmp_path):
        out = tmp_path / "rows.jsonl"
        return out, tmp_path / "rows.jsonl.metrics.jsonl"

    def test_two_interrupted_runs_resume_the_clean_bytes(self, tmp_path, probed_clean):
        # Kill #1 left A's rows and, while writing B, B's first sidecar
        # line and half its second; the resume of it finished writing
        # the temp pair and was killed before renaming it.
        campaign, clean, clean_sidecar = probed_clean
        out, sidecar = self.files(tmp_path)
        rows = clean.splitlines(keepends=True)
        lines = clean_sidecar.splitlines(keepends=True)
        assert len(rows) == len(lines) == 4
        out.write_bytes(b"".join(rows[:2]))
        sidecar.write_bytes(b"".join(lines[:3]) + lines[3][: len(lines[3]) // 2])
        (tmp_path / "rows.jsonl.tmp").write_bytes(clean)
        (tmp_path / "rows.jsonl.metrics.jsonl.tmp").write_bytes(clean_sidecar)
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 0 and report.skipped == 2
        assert out.read_bytes() == clean
        assert sidecar.read_bytes() == clean_sidecar
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "rows.jsonl", "rows.jsonl.meta.json", "rows.jsonl.metrics.jsonl"
        ]

    def test_a_list_as_scenario_hash_is_ignored(self, tmp_path, probed_clean):
        campaign, clean, clean_sidecar = probed_clean
        out, sidecar = self.files(tmp_path)
        bogus = {"campaign": campaign.name, "scenario": ["x"], "row": 0, "rows": 1}
        out.write_bytes(json.dumps(bogus).encode() + b"\n" + clean)
        sidecar.write_bytes(clean_sidecar)
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 0 and report.skipped == 2
        assert out.read_bytes() == clean

    def test_rows_without_payload_resimulate(self, tmp_path, probed_clean):
        campaign, clean, clean_sidecar = probed_clean
        out, sidecar = self.files(tmp_path)
        out.write_bytes(b"".join(
            canonical_json({"campaign": campaign.name, "scenario": scenario_hash(s),
                            "row": i, "rows": s.num_rows}).encode() + b"\n"
            for s in campaign.scenarios
            for i in range(s.num_rows)
        ))
        report = run_campaign(campaign, out=out, resume=True)
        assert report.simulated == 2 and report.skipped == 0
        assert out.read_bytes() == clean
        assert sidecar.read_bytes() == clean_sidecar

    @pytest.mark.parametrize("where", ["rows", "sidecar"])
    def test_deeply_nested_line_counts_as_torn(self, tmp_path, probed_clean, where):
        campaign, clean, clean_sidecar = probed_clean
        out, sidecar = self.files(tmp_path)
        nested = b"[" * 100_000 + b"\n"
        rows = clean.splitlines(keepends=True)
        lines = clean_sidecar.splitlines(keepends=True)
        if where == "rows":
            rows.insert(2, nested)
        else:
            lines.insert(2, nested)
        out.write_bytes(b"".join(rows))
        sidecar.write_bytes(b"".join(lines))
        report = run_campaign(campaign, out=out, resume=True)
        # A torn sidecar line between A and B may belong to either.
        assert report.simulated == (0 if where == "rows" else 2)
        assert out.read_bytes() == clean
        assert sidecar.read_bytes() == clean_sidecar


class TestUnitPool:
    """``workers`` fans a campaign's units across one fork pool; a lone
    unit fans its own loads or batch."""

    @staticmethod
    def record_fork_maps(monkeypatch) -> list[int]:
        """Worker counts of every ``_fork_map`` this process enters."""
        from repro.scenarios import runner
        from repro.sim import parallel

        real = parallel._fork_map
        calls: list[int] = []

        def recording(fn, workers):
            calls.append(workers)
            return real(fn, workers)

        monkeypatch.setattr(parallel, "_fork_map", recording)
        monkeypatch.setattr(runner, "_fork_map", recording)
        return calls

    def test_multi_unit_campaign_forks_one_pool(self, monkeypatch):
        # "sat" saturates at 0.9, the first point of a 2-point wave: a
        # pool per sweep also simulates 1.0 and discards it.
        campaign = Campaign("sat", [
            open_scenario("sat", loads=(0.1, 0.2, 0.9, 1.0)),
            open_scenario("b", seed=1),
        ])
        serial = run_campaign(campaign, workers=1)
        calls = self.record_fork_maps(monkeypatch)
        pooled = run_campaign(campaign, workers=2)
        assert calls == [2]
        assert pooled.rows == serial.rows
        assert pooled.heartbeat["sims"] == serial.heartbeat["sims"] == 5

    def test_pooled_events_equal_the_serial_events(self):
        serial = run_campaign(mixed_campaign(), workers=1)
        pooled = run_campaign(mixed_campaign(), workers=2)
        assert pooled.rows == serial.rows
        # Every unit runs at one worker in its child; only the
        # campaign's own worker count differs.
        assert (serial.heartbeat["workers"], pooled.heartbeat["workers"]) == (1, 2)
        del serial.events[-1]["workers"], pooled.events[-1]["workers"]
        timing = ("wall_s", "sims_per_s")
        assert [
            {k: v for k, v in e.items() if k not in timing} for e in pooled.events
        ] == [
            {k: v for k, v in e.items() if k not in timing} for e in serial.events
        ]

    def test_child_exception_propagates_and_resume_runs_the_rest(
        self, tmp_path, monkeypatch
    ):
        from dataclasses import replace

        from repro.sim.engine import SimEngine

        campaign = Campaign("boom", [
            replace(open_scenario(f"s{k}", seed=k), sim=replace(CFG, seed=k))
            for k in range(4)
        ])
        clean = tmp_path / "clean.jsonl"
        run_campaign(campaign, out=clean)
        run = SimEngine.run

        def failing_run(self):
            if self.config.seed == 2:
                raise RuntimeError("engine failed on seed 2")
            return run(self)

        # Patched before the pool forks, so the children inherit it.
        monkeypatch.setattr(SimEngine, "run", failing_run)
        out = tmp_path / "rows.jsonl"
        with pytest.raises(RuntimeError, match="engine failed on seed 2"):
            run_campaign(campaign, workers=2, out=out)
        assert [json.loads(line)["label"] for line in out.read_text().splitlines()] == [
            "s0", "s0", "s1", "s1"
        ]
        monkeypatch.setattr(SimEngine, "run", run)
        before = simulations_started()
        report = run_campaign(campaign, workers=2, out=out, resume=True)
        assert report.simulated == 2 and report.skipped == 2
        assert simulations_started() - before == 4
        assert out.read_bytes() == clean.read_bytes()

    @pytest.mark.parametrize("engine", ["open", "closed"])
    def test_single_unit_campaign_fans_its_own_work(self, monkeypatch, engine):
        if engine == "open":
            campaign = Campaign("lone", [open_scenario()])
        else:
            campaign = Campaign(
                "lone", [closed_scenario("ring"), closed_scenario("a2a", kind="alltoall")]
            )
        serial = run_campaign(campaign, workers=1)
        calls = self.record_fork_maps(monkeypatch)
        fanned = run_campaign(campaign, workers=2)
        # The sweep's loads, or the batch's tasks, in one pool of two.
        assert calls == [2]
        assert fanned.rows == serial.rows

    def test_fewer_units_than_workers_fan_their_own_loads(self, monkeypatch):
        import os

        campaign = Campaign("few", [open_scenario("a"), open_scenario("b", seed=1)])
        serial = run_campaign(campaign, workers=1)
        calls = self.record_fork_maps(monkeypatch)
        # ``workers=0`` on four cores: two units cannot fill the pool,
        # so each sweep fans its two loads instead.
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        fanned = run_campaign(campaign, workers=0)
        assert calls == [2, 2]
        assert fanned.rows == serial.rows

    def test_flow_units_are_solved_in_the_parent(self, monkeypatch):
        def flow(label):
            s = open_scenario(label, loads=(0.2, 0.5))
            s.backend = "flow"
            s.revalidate()
            return s

        campaign = Campaign("fid", [
            flow("flow-a"), open_scenario("a"), flow("flow-b"),
            open_scenario("b", seed=1),
        ])
        serial = run_campaign(campaign, workers=1)
        calls = self.record_fork_maps(monkeypatch)
        pooled = run_campaign(campaign, workers=2)
        # The two cycle units fill the pool; each flow sweep maps at
        # one worker here, in this process.
        assert calls == [2, 1, 1]
        assert pooled.rows == serial.rows
        assert pooled.heartbeat["sims"] == serial.heartbeat["sims"]


class TestCampaignCLI:
    def test_cli_runs_and_resumes(self, tmp_path, capsys):
        campaign = Campaign("cli", [open_scenario(), closed_scenario()])
        cfile = campaign.save(tmp_path / "c.json")
        out = tmp_path / "c.jsonl"
        assert cli_main(["campaign", str(cfile), "--out", str(out)]) == 0
        assert "simulated=2" in capsys.readouterr().out
        assert cli_main(
            ["campaign", str(cfile), "--out", str(out), "--resume"]
        ) == 0
        assert "simulated=0 skipped=2" in capsys.readouterr().out
        assert len(out.read_text().splitlines()) == 3

    def test_cli_default_out_derives_from_campaign_file(self, tmp_path, capsys):
        cfile = Campaign("cli", [open_scenario()]).save(tmp_path / "grid.json")
        assert cli_main(["campaign", str(cfile)]) == 0
        assert (tmp_path / "grid.results.jsonl").exists()

    def test_cli_missing_file_errors(self, tmp_path, capsys):
        assert cli_main(["campaign", str(tmp_path / "nope.json")]) == 2
        assert cli_main(["campaign"]) == 2

    @pytest.mark.parametrize("text", [
        '{"name":"x","scenarios":5}',
        '{"name":"x"}',
        "[1,2]",
        '{"name":"x","scenarios":[5]}',
        '{"name":5,"scenarios":[]}',
        "not json",
        (("topology", "name"), "NOPE"),
        '{"name":"x","scenarios":[{}]}',
        '{"name":"x","scenarios":[{"topology":5}]}',
        (("sim",), None),
        (("topology",), 5),
        (("topology", "name"), [1]),
        (("routing",), "min"),
        (("routing", "params"), 5),
        (("traffic",), [1]),
        (("traffic", "pattern"), {}),
        (("telemetry",), 3),
        (("backend",), [1]),
    ], ids=["scenarios-int", "no-scenarios", "array", "scenario-int", "name-int",
            "not-json", "unknown-topology", "scenario-empty", "only-topology-int",
            "no-sim", "topology-int", "topology-name-list", "routing-str",
            "routing-params-int", "traffic-list", "traffic-pattern-object",
            "telemetry-int", "backend-list"])
    def test_cli_malformed_campaign_file_is_one_error_line(
        self, tmp_path, capsys, text
    ):
        if isinstance(text, tuple):
            # One field of a valid spec replaced, or removed for None.
            (*parents, key), value = text
            spec = open_scenario().to_dict()
            parent = spec
            for name in parents:
                parent = parent[name]
            if value is None:
                del parent[key]
            else:
                parent[key] = value
            text = json.dumps({"name": "x", "scenarios": [spec]})
        cfile = tmp_path / "c.json"
        cfile.write_text(text)
        assert cli_main(["campaign", str(cfile)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {cfile}: ")
        assert not (tmp_path / "c.results.jsonl").exists()

    def test_cli_rejects_stray_positional(self, capsys):
        # `fig6 worstcase` (forgotten --pattern) must not silently run
        # the default pattern with the stray word bound to campaign_file.
        assert cli_main(["fig6", "worstcase"]) == 2
        assert "unrecognized arguments: worstcase" in capsys.readouterr().err

    def test_cli_rejects_cross_mode_flags(self, tmp_path, capsys):
        cfile = Campaign("cli", [open_scenario()]).save(tmp_path / "c.json")
        assert cli_main(["campaign", str(cfile), "--json", "x.json"]) == 2
        err = capsys.readouterr().err
        assert "campaign: error: unrecognized arguments: --json" in err
        assert cli_main(["campaign", str(cfile), "--replicas", "8"]) == 2
        assert "unrecognized arguments: --replicas 8" in capsys.readouterr().err
        assert cli_main(["table2", "--scale", "quick", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "table2: error: unrecognized arguments: --resume" in err

    def test_cli_rejects_service_flags_cross_mode(self, tmp_path, capsys):
        cfile = Campaign("cli", [open_scenario()]).save(tmp_path / "c.json")
        assert cli_main(["table2", "--store", "s"]) == 2
        assert "unrecognized arguments: --store s" in capsys.readouterr().err
        assert cli_main(["table2", "--fail-after", "1"]) == 2
        assert "unrecognized arguments: --fail-after 1" in capsys.readouterr().err
        assert cli_main(["campaign", str(cfile), "--fail-after", "1"]) == 2
        assert "unrecognized arguments: --fail-after 1" in capsys.readouterr().err
        assert cli_main(["serve-worker"]) == 2
        assert "HOST:PORT" in capsys.readouterr().err
        assert cli_main(["serve-worker", "h:1", "--resume"]) == 2
        err = capsys.readouterr().err
        assert "serve-worker: error: unrecognized arguments: --resume" in err
        assert cli_main(["campaign", str(cfile), "--service", "nonsense"]) == 2
        assert "[HOST:]PORT" in capsys.readouterr().err

    def test_cli_campaign_store_round_trip(self, tmp_path, capsys):
        cfile = Campaign("cli", [open_scenario()]).save(tmp_path / "c.json")
        store = tmp_path / "store"
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert cli_main(
            ["campaign", str(cfile), "--out", str(out1), "--store", str(store)]
        ) == 0
        capsys.readouterr()
        assert cli_main(
            ["campaign", str(cfile), "--out", str(out2), "--store", str(store)]
        ) == 0
        assert "simulated=0" in capsys.readouterr().out
        assert out1.read_bytes() == out2.read_bytes()

    def test_cli_json_flag_writes_experiment_results(self, tmp_path, capsys):
        path = tmp_path / "res.json"
        assert cli_main(["table2", "--scale", "quick", "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert isinstance(data, list) and data[0]["experiment"]
        assert data[0]["tables"][0]["rows"]
