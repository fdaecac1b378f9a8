"""Layer 7 campaign service: store integrity, wire protocol, scheduler."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import socket
import struct
import subprocess
import sys
import tempfile
import threading

import pytest
from hypothesis import given, settings, strategies as st

from test_campaign_runner import closed_scenario, mixed_campaign, open_scenario
from test_fault_differential import FAULT, faulted_scenario
from repro.scenarios import (
    Campaign,
    FaultSpec,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    canonical_json,
    run_campaign,
    scenario_hash,
)
from repro.service.coordinator import ServiceConfig
from repro.service.protocol import (
    MAX_MESSAGE_BYTES,
    MESSAGE_TYPES,
    FrameDecoder,
    ProtocolError,
    recv_message,
    send_message,
)
from repro.service.store import (
    STORE_BACKENDS,
    FileResultStore,
    MemoryResultStore,
    StoreEntry,
    StoreIntegrityError,
    open_store,
)
from repro.service.units import execute_unit, from_wire
from repro.service.worker import _connect, parse_address, serve_worker
from repro.sim.config import SimConfig
from repro.sim.parallel import simulations_started
from repro.sim.telemetry import TelemetrySpec


def telemetry_campaign() -> Campaign:
    """Two open scenarios with armed probes (exercise the metrics sidecar)."""
    spec = TelemetrySpec(latency_hist=True, channel_flits=True)
    return Campaign(
        "probed",
        [
            dataclasses.replace(open_scenario("probed-a"), telemetry=spec),
            dataclasses.replace(open_scenario("probed-b", seed=1), telemetry=spec),
        ],
    )


def campaign_files(tmp_path, name):
    out = tmp_path / f"{name}.jsonl"
    return out, out.with_name(out.name + ".metrics.jsonl"), out.with_name(
        out.name + ".meta.json"
    )


def format1_document(entry: StoreEntry) -> str:
    """Store format 1 as one ``canonical_json`` call over the whole entry."""
    payload = {"metrics": entry.metrics, "rows": entry.rows}
    return canonical_json(
        {
            "format": 1,
            "payload": payload,
            "payload_sha256": hashlib.sha256(
                canonical_json(payload).encode("utf-8")
            ).hexdigest(),
            "scenario": entry.scenario,
        }
    )


# ---------------------------------------------------------------------------
# Content-addressed store
# ---------------------------------------------------------------------------


class TestStore:
    def test_cold_run_populates_store_with_valid_entries(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        campaign = mixed_campaign()
        run_campaign(campaign, out=tmp_path / "cold.jsonl", store=store)
        for s in campaign.dedup().scenarios:
            entry = store.get(scenario_hash(s))
            assert entry is not None
            assert entry.scenario == scenario_hash(s)
            assert all("campaign" not in row for row in entry.rows)
            assert [r["row"] for r in entry.rows] == list(range(len(entry.rows)))

    def test_warm_store_simulates_zero_and_is_byte_identical(self, tmp_path):
        campaign = telemetry_campaign()
        store = tmp_path / "store"
        cold, cold_metrics, _ = campaign_files(tmp_path, "cold")
        warm, warm_metrics, _ = campaign_files(tmp_path, "warm")
        run_campaign(campaign, out=cold, store=store)
        before = simulations_started()
        report = run_campaign(campaign, out=warm, store=store)
        assert simulations_started() - before == 0
        assert report.simulated == 0 and report.store_hits == 2
        assert warm.read_bytes() == cold.read_bytes()
        assert cold_metrics.exists()
        assert warm_metrics.read_bytes() == cold_metrics.read_bytes()
        assert "store_hits=2" in report.summary()

    def test_store_hit_survives_campaign_rename(self, tmp_path):
        campaign = mixed_campaign()
        store = tmp_path / "store"
        run_campaign(campaign, out=tmp_path / "a.jsonl", store=store)
        renamed = Campaign("renamed", list(campaign.scenarios))
        report = run_campaign(renamed, out=tmp_path / "b.jsonl", store=store)
        assert report.simulated == 0 and report.store_hits == 4
        rows = [
            json.loads(line)
            for line in (tmp_path / "b.jsonl").read_text().splitlines()
        ]
        assert all(r["campaign"] == "renamed" for r in rows)

    def test_store_hits_get_cache_origin_in_meta(self, tmp_path):
        campaign = mixed_campaign()
        store = tmp_path / "store"
        _, _, cold_meta = campaign_files(tmp_path, "cold")
        _, _, warm_meta = campaign_files(tmp_path, "warm")
        run_campaign(campaign, out=tmp_path / "cold.jsonl", store=store)
        run_campaign(campaign, out=tmp_path / "warm.jsonl", store=store)
        cold = json.loads(cold_meta.read_text())
        warm = json.loads(warm_meta.read_text())
        assert [s["origin"] for s in cold["scenarios"]] == ["simulated"] * 4
        assert [s["origin"] for s in warm["scenarios"]] == ["cache"] * 4
        # origin is sidecar-only provenance: the row payloads stay
        # byte-comparable across cache temperatures.
        assert (tmp_path / "warm.jsonl").read_bytes() == (
            tmp_path / "cold.jsonl"
        ).read_bytes()

    @pytest.mark.parametrize("damage", ["truncate", "bitflip"])
    def test_corrupt_entry_quarantined_and_resimulated(self, tmp_path, damage):
        campaign = mixed_campaign()
        store_root = tmp_path / "store"
        cold = tmp_path / "cold.jsonl"
        run_campaign(campaign, out=cold, store=store_root)
        victim = sorted((store_root / "objects").rglob("*.json"))[0]
        text = victim.read_text()
        if damage == "truncate":
            victim.write_text(text[: len(text) // 2])
        else:
            # Flip one character inside the payload body.
            i = text.index('"rows":') + 20
            flipped = "x" if text[i] != "x" else "y"
            victim.write_text(text[:i] + flipped + text[i + 1 :])
        healed = tmp_path / "healed.jsonl"
        report = run_campaign(campaign, out=healed, store=store_root)
        assert report.simulated == 1 and report.store_hits == 3
        assert healed.read_bytes() == cold.read_bytes()
        store = FileResultStore(store_root)
        assert len(store.quarantined()) == 1
        assert not victim.exists() or store.get(victim.stem) is not None

    def test_corrupt_entry_is_healed_by_the_resimulation(self, tmp_path):
        campaign = Campaign("one", [open_scenario()])
        store_root = tmp_path / "store"
        run_campaign(campaign, out=tmp_path / "a.jsonl", store=store_root)
        victim = next((store_root / "objects").rglob("*.json"))
        victim.write_text("not json at all")
        run_campaign(campaign, out=tmp_path / "b.jsonl", store=store_root)
        # The re-simulated entry was written back: a third run hits.
        before = simulations_started()
        report = run_campaign(campaign, out=tmp_path / "c.jsonl", store=store_root)
        assert report.store_hits == 1
        assert simulations_started() - before == 0

    def test_entry_filed_under_wrong_hash_is_a_miss(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        campaign = Campaign("one", [open_scenario()])
        run_campaign(campaign, out=tmp_path / "a.jsonl", store=store)
        h = scenario_hash(campaign.scenarios[0])
        bogus = "0" * 16
        target = store._object_path(bogus)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(store._object_path(h).read_text())
        assert store.get(bogus) is None
        assert store.quarantined()

    def test_concurrent_same_hash_writers_race_safely(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        campaign = Campaign("one", [open_scenario()])
        run_campaign(campaign, out=tmp_path / "a.jsonl", store=store)
        h = scenario_hash(campaign.scenarios[0])
        entry = store.get(h)
        errors = []

        def hammer():
            try:
                for _ in range(50):
                    store.put(entry)
                    got = store.get(h)
                    assert got is not None and got.digest() == entry.digest()
            except Exception as exc:  # pragma: no cover - failure detail
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert store.quarantined() == []

    def test_validate_rejects_incoherent_entries(self):
        s = open_scenario()
        h = scenario_hash(s)
        base = {
            "scenario": h, "label": s.label, "engine": "open",
            "fidelity": "cycle", "row": 0, "rows": 1, "spec": s.to_dict(),
        }
        with pytest.raises(StoreIntegrityError, match="no result rows"):
            StoreEntry(h, []).validate()
        with pytest.raises(StoreIntegrityError, match="foreign hash"):
            StoreEntry(h, [{**base, "scenario": "f" * 16}]).validate()
        with pytest.raises(StoreIntegrityError, match="row indices"):
            StoreEntry(h, [{**base, "row": 3}]).validate()
        with pytest.raises(StoreIntegrityError, match="campaign"):
            StoreEntry(h, [{**base, "campaign": "x"}]).validate()
        with pytest.raises(StoreIntegrityError, match="metrics row 0 carries"):
            StoreEntry(h, [base], [{"scenario": h, "campaign": "x"}]).validate()
        # A different label is a different scenario hash (the label is
        # part of the serialized spec), so a swapped-in spec must trip
        # the re-hash check.
        other = {**base, "spec": open_scenario("other-label").to_dict()}
        with pytest.raises(StoreIntegrityError, match="hashes to"):
            StoreEntry(h, [other]).validate()
        # A spec whose sub-spec has the wrong JSON type is a structured
        # integrity error, not an AttributeError out of the reader.
        bad_fault = {**base, "spec": {**s.to_dict(), "fault": [1]}}
        with pytest.raises(StoreIntegrityError, match="does not parse"):
            StoreEntry(h, [bad_fault]).validate()
        # So is a spec nested past the encoder's limit: it cannot re-hash.
        # (The row text is given, as a reader has it: encoding would fail.)
        deep: list = []
        for _ in range(100_000):
            deep = [deep]
        routing = {"name": "min", "params": {"deep": deep}}
        too_deep = {**base, "spec": {**s.to_dict(), "routing": routing}}
        with pytest.raises(StoreIntegrityError, match="does not parse"):
            StoreEntry(h, [too_deep], row_texts=["{}"]).validate()

    def test_memory_store_and_open_store_dispatch(self, tmp_path):
        mem = open_store("memory:")
        assert isinstance(mem, MemoryResultStore)
        assert open_store(mem) is mem
        assert isinstance(open_store(str(tmp_path / "s")), FileResultStore)
        assert isinstance(open_store(tmp_path / "s"), FileResultStore)
        assert isinstance(open_store(f"file:{tmp_path / 's'}"), FileResultStore)
        with pytest.raises(TypeError):
            open_store(42)
        assert set(STORE_BACKENDS) == {"file", "memory"}

    def test_memory_store_serves_run_campaign(self, tmp_path):
        store = MemoryResultStore()
        campaign = mixed_campaign()
        run_campaign(campaign, out=tmp_path / "a.jsonl", store=store)
        assert len(store) == 4
        before = simulations_started()
        report = run_campaign(campaign, out=tmp_path / "b.jsonl", store=store)
        assert report.store_hits == 4
        assert simulations_started() - before == 0

    def test_entry_documents_pin_store_format_1(self, tmp_path):
        store = FileResultStore(tmp_path / "store")
        probed = telemetry_campaign().scenarios[0]
        campaign = Campaign("pin", [open_scenario(), closed_scenario(), probed])
        run_campaign(campaign, store=store)
        for s in campaign.scenarios:
            h = scenario_hash(s)
            entry = store.get(h)
            assert entry is not None
            document = format1_document(entry)
            assert entry.to_json() == document
            assert store._object_path(h).read_text() == document + "\n"
            assert entry.row_texts == [canonical_json(r) for r in entry.rows]
            assert entry.metric_texts == [canonical_json(r) for r in entry.metrics]
            # An entry built from dicts alone encodes to the same bytes.
            rebuilt = StoreEntry(h, entry.rows, entry.metrics)
            assert rebuilt.to_json() == document
            assert rebuilt.digest() == entry.digest()
        assert store.get(scenario_hash(probed)).metrics
        assert store.get(scenario_hash(closed_scenario())).rows[0]["engine"] == "closed"

    @pytest.mark.parametrize("form", ["indent", "reordered", "trailing"])
    def test_non_canonical_document_is_quarantined(self, tmp_path, form):
        campaign = telemetry_campaign()
        store_root = tmp_path / "store"
        cold, cold_metrics, _ = campaign_files(tmp_path, "cold")
        run_campaign(campaign, out=cold, store=store_root)
        victim = FileResultStore(store_root)._object_path(
            scenario_hash(campaign.scenarios[0])
        )
        doc = json.loads(victim.read_text())
        if form == "indent":
            text = json.dumps(doc, indent=1, sort_keys=True)
        elif form == "reordered":
            text = json.dumps(dict(reversed(doc.items())), separators=(",", ":"))
        else:
            text = canonical_json(doc) + " \t"
        # Each form parses to the very same document: only its bytes
        # are not the ones a store writes.
        assert json.loads(text) == doc
        victim.write_text(text + "\n")
        warm, warm_metrics, _ = campaign_files(tmp_path, "warm")
        report = run_campaign(campaign, out=warm, store=store_root)
        assert report.simulated == 1 and report.store_hits == 1
        assert warm.read_bytes() == cold.read_bytes()
        assert warm_metrics.read_bytes() == cold_metrics.read_bytes()
        assert len(FileResultStore(store_root).quarantined()) == 1
        assert victim.read_text() == canonical_json(doc) + "\n"


@st.composite
def damaged(draw, doc, pieces):
    """``doc`` with one flip, truncation or insertion, often in the frame."""
    n = len(doc)
    i = draw(st.integers(0, n) | st.integers(0, 40) | st.integers(n - 160, n))
    kind = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if kind == "truncate":
        return doc[:i]
    piece = draw(pieces)
    if kind == "flip":
        return doc[:i] + piece[:1] + doc[i + 1 :]
    return doc[:i] + piece + doc[i:]


@pytest.fixture(scope="module")
def probed_entry() -> tuple[str, str]:
    """(hash, document) of a small entry with result and telemetry rows."""
    store = MemoryResultStore()
    scenario = telemetry_campaign().scenarios[0]
    run_campaign(Campaign("fuzz", [scenario]), store=store)
    h = scenario_hash(scenario)
    return h, store.get(h).to_json()


FUZZ = settings(max_examples=150, deadline=None)


class TestStoreReaderFuzz:
    @FUZZ
    @given(data=st.data())
    def test_damaged_document_is_rejected_or_equal(self, probed_entry, data):
        h, doc = probed_entry
        text = data.draw(damaged(doc, st.text(min_size=1, max_size=3)))
        try:
            entry = StoreEntry.from_json(text, expect=h)
        except StoreIntegrityError:
            return
        assert entry.to_json() == doc

    @FUZZ
    @given(data=st.data())
    def test_damaged_file_is_quarantined(self, probed_entry, data):
        h, doc = probed_entry
        original = (doc + "\n").encode("ascii")
        raw = data.draw(damaged(original, st.binary(min_size=1, max_size=3)))
        with tempfile.TemporaryDirectory() as root:
            store = FileResultStore(root)
            path = store._object_path(h)
            path.parent.mkdir(parents=True)
            path.write_bytes(raw)
            entry = store.get(h)
            if raw == original:
                assert entry is not None and entry.to_json() == doc
            else:
                assert entry is None
                assert store.quarantined() == [path.name]
                assert not path.exists()


# ---------------------------------------------------------------------------
# Wire protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_round_trip_over_socketpair(self):
        a, b = socket.socketpair()
        try:
            message = {"type": "hello", "worker": "w0", "nested": {"x": [1, 2]}}
            send_message(a, message)
            assert recv_message(b) == message
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none_and_mid_frame_raises(self):
        a, b = socket.socketpair()
        a.close()
        assert recv_message(b) is None
        b.close()
        a, b = socket.socketpair()
        a.sendall(struct.pack(">I", 100) + b"{")  # header promises more
        a.close()
        with pytest.raises(ProtocolError, match="mid-frame"):
            recv_message(b)
        b.close()

    def test_oversized_frame_is_corruption_not_allocation(self):
        a, b = socket.socketpair()
        try:
            a.sendall(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
            with pytest.raises(ProtocolError, match="frame limit"):
                recv_message(b)
            with pytest.raises(ProtocolError, match="frame limit"):
                FrameDecoder().feed(struct.pack(">I", MAX_MESSAGE_BYTES + 1))
        finally:
            a.close()
            b.close()

    def test_untyped_messages_are_rejected_both_ways(self):
        a, b = socket.socketpair()
        try:
            with pytest.raises(ProtocolError, match="'type'"):
                send_message(a, {"no": "type"})
            payload = b'"just a string"'
            a.sendall(struct.pack(">I", len(payload)) + payload)
            with pytest.raises(ProtocolError, match="typed message"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_frame_nested_past_the_decoder_is_a_protocol_error(self):
        frame = struct.pack(">I", 200_000) + b"[" * 200_000
        with pytest.raises(ProtocolError, match="not JSON"):
            FrameDecoder().feed(frame)
        a, b = socket.socketpair()
        try:
            a.sendall(frame)
            with pytest.raises(ProtocolError, match="not JSON"):
                recv_message(b)
        finally:
            a.close()
            b.close()

    def test_decoder_reassembles_byte_dribble(self):
        messages = [
            {"type": "hello", "worker": "w"},
            {"type": "heartbeat", "lease": 7},
            {"type": "result", "lease": 7, "results": [{"rows": []}]},
        ]
        blob = b""
        a, b = socket.socketpair()
        try:
            for m in messages:
                send_message(a, m)
            blob = b.recv(1 << 20)
        finally:
            a.close()
            b.close()
        decoder = FrameDecoder()
        decoded = []
        for i in range(len(blob)):
            decoded.extend(decoder.feed(blob[i : i + 1]))
        assert decoded == messages

    def test_message_vocabulary_is_complete(self):
        assert set(MESSAGE_TYPES) == {
            "hello", "lease", "heartbeat", "result", "error", "shutdown",
        }
        for direction, _meaning in MESSAGE_TYPES.values():
            assert "->" in direction

    def test_parse_address(self):
        assert parse_address("127.0.0.1:7077") == ("127.0.0.1", 7077)
        assert parse_address(":7077") == ("127.0.0.1", 7077)
        with pytest.raises(ValueError):
            parse_address("no-port")

    def test_connected_worker_socket_blocks_without_timeout(self):
        # An idle worker may wait any time for a lease; a socket timeout
        # would kill it ("serve-worker: timed out") while it waits.
        with socket.create_server(("127.0.0.1", 0)) as server:
            sock = _connect(*server.getsockname()[:2], retry_for=1.0)
            try:
                assert sock.gettimeout() is None
            finally:
                sock.close()


# ---------------------------------------------------------------------------
# Coordinator/worker scheduler
# ---------------------------------------------------------------------------


def service_config(**kw) -> tuple[ServiceConfig, "threading.Event", dict]:
    bound: dict = {}
    ready = threading.Event()

    def on_bound(host, port):
        bound["addr"] = f"{host}:{port}"
        ready.set()

    kw.setdefault("port", 0)
    kw.setdefault("heartbeat_timeout", 5.0)
    return ServiceConfig(on_bound=on_bound, **kw), ready, bound


def hostile_frame(case: str, lease: dict) -> bytes:
    """A fake worker's answer to ``lease``: the true result, spoiled one way."""
    entries = [from_wire(e) for e in lease["scenarios"]]
    payloads, sims = execute_unit(lease["campaign"], lease["kind"], entries)
    message = {"type": "result", "lease": lease["lease"], "results": payloads, "sims": sims}
    if case == "sims":
        message["sims"] = "x"
    elif case == "results":
        message["results"] = [5]
    elif case == "rows":
        payloads[0]["rows"] = [{"bogus": 1}]
    elif case == "heartbeat":
        message = {
            "type": "heartbeat", "lease": lease["lease"],
            "event": {"event": "scenario_start", "progress": 0.5, "report": "x"},
        }
    elif case == "nesting":
        return struct.pack(">I", 200_000) + b"[" * 200_000
    payload = json.dumps(message).encode()
    return struct.pack(">I", len(payload)) + payload


def start_thread_workers(ready, bound, count, **kw):
    """Launch serve_worker threads once the coordinator has bound."""
    threads = []

    def launch():
        assert ready.wait(10)
        for i in range(count):
            t = threading.Thread(
                target=serve_worker,
                args=(bound["addr"],),
                kwargs={"name": f"w{i}", "retry_for": 5.0, **kw},
                daemon=True,
            )
            t.start()
            threads.append(t)

    starter = threading.Thread(target=launch, daemon=True)
    starter.start()
    return starter, threads


class TestService:
    @pytest.mark.parametrize("n_workers", [1, 2, 4])
    def test_byte_identical_at_any_worker_count(self, tmp_path, n_workers):
        campaign = mixed_campaign()
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(wait_for_workers=30.0)
        starter, threads = start_thread_workers(ready, bound, n_workers)
        svc = tmp_path / "svc.jsonl"
        report = run_campaign(campaign, out=svc, service=cfg)
        starter.join(10)
        for t in threads:
            t.join(10)
        assert svc.read_bytes() == serial.read_bytes()
        assert report.simulated == 4 and report.skipped == 0
        events = [e["event"] for e in report.events]
        assert events.count("worker_joined") >= 1
        assert "service_listening" in events and "campaign_finish" in events

    def test_thread_workers_count_each_simulation_once(self):
        """Simulations are counted per thread: a worker thread in the
        coordinator's process adds nothing to the coordinator's count
        beyond the credit for its units."""
        serial = run_campaign(mixed_campaign())
        cfg, ready, bound = service_config(wait_for_workers=30.0)
        starter, threads = start_thread_workers(ready, bound, 2)
        report = run_campaign(mixed_campaign(), service=cfg)
        starter.join(10)
        for t in threads:
            t.join(10)
        assert report.rows == serial.rows
        assert report.heartbeat["sims"] == serial.heartbeat["sims"] == 6

    def test_idle_worker_outlives_the_heartbeat_timeout(self):
        """Workers beacon only while they hold a lease, so one that
        finished the short units and waits idle, longer than
        ``heartbeat_timeout``, while the other runs the long unit is
        not declared dead."""
        sim = SimConfig(warmup_cycles=300, measure_cycles=1500, drain_cycles=3000)
        campaign = Campaign("idle", [
            Scenario(
                topology=TopologySpec("SF", params={"q": 5}),
                routing=RoutingSpec("min"),
                sim=sim,
                traffic=TrafficSpec("uniform"),
                loads=[0.1, 0.2, 0.3],
                label="long",
            ),
            open_scenario("short-a"),
            open_scenario("short-b", seed=1),
        ])
        cfg, ready, bound = service_config(
            wait_for_workers=30.0, heartbeat_timeout=1.0,
        )
        starter, threads = start_thread_workers(
            ready, bound, 2, heartbeat_interval=0.2
        )
        report = run_campaign(campaign, service=cfg)
        starter.join(10)
        for t in threads:
            t.join(10)
        events = [e["event"] for e in report.events]
        assert "worker_dead" not in events and "lease_retry" not in events
        assert report.simulated == 3 and report.heartbeat["sims"] == 7

    def test_connection_that_never_says_hello_is_dropped(self, tmp_path):
        """The idle exemption covers introduced workers only: a silent
        connection is still dropped, so units degrade to local runs."""
        campaign = Campaign("one", [open_scenario()])
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(
            wait_for_workers=0.5, heartbeat_timeout=0.5,
        )
        received: list[bytes] = []

        def silent_client():
            assert ready.wait(10)
            sock = socket.create_connection(parse_address(bound["addr"]), timeout=30)
            try:
                # EOF without a shutdown frame: dropped as dead.  Kept
                # connected instead, it would block the degradation
                # until this recv timed out.
                received.append(sock.recv(64))
            finally:
                sock.close()

        t = threading.Thread(target=silent_client, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert received == [b""]
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        assert report.simulated == 1

    def test_service_with_telemetry_sidecar_byte_identical(self, tmp_path):
        campaign = telemetry_campaign()
        serial, serial_metrics, _ = campaign_files(tmp_path, "serial")
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(wait_for_workers=30.0)
        starter, threads = start_thread_workers(ready, bound, 2)
        svc, svc_metrics, _ = campaign_files(tmp_path, "svc")
        run_campaign(campaign, out=svc, service=cfg)
        starter.join(10)
        for t in threads:
            t.join(10)
        assert svc.read_bytes() == serial.read_bytes()
        assert svc_metrics.read_bytes() == serial_metrics.read_bytes()

    def test_no_workers_degrades_to_local_execution(self, tmp_path):
        campaign = mixed_campaign()
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, _, _ = service_config(wait_for_workers=0.0)
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        assert report.simulated == 4

    def test_service_resume_interleaves_cached_scenarios(self, tmp_path):
        campaign = mixed_campaign()
        out = tmp_path / "rows.jsonl"
        run_campaign(campaign, out=out)
        reference = out.read_bytes()
        # Drop the middle closed-loop scenarios' lines, keep the opens.
        keep = [
            line
            for line in out.read_text().splitlines()
            if json.loads(line)["engine"] == "open"
        ]
        out.write_text("\n".join(keep) + "\n")
        cfg, _, _ = service_config(wait_for_workers=0.0)
        report = run_campaign(campaign, out=out, resume=True, service=cfg)
        assert report.simulated == 2 and report.skipped == 2
        assert out.read_bytes() == reference

    def test_silent_worker_detected_by_heartbeat_timeout(self, tmp_path):
        """A worker that takes a lease and goes mute loses it; the
        campaign still completes (local fallback) byte-identically."""
        campaign = Campaign("one", [open_scenario(), open_scenario("o2", seed=3)])
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(
            wait_for_workers=1.0, heartbeat_timeout=0.6,
        )
        taken = threading.Event()

        def mute_worker():
            assert ready.wait(10)
            host, port = parse_address(bound["addr"])
            sock = socket.create_connection((host, port), timeout=10)
            try:
                send_message(sock, {"type": "hello", "worker": "mute", "pid": 0})
                message = recv_message(sock)
                assert message["type"] == "lease"
                taken.set()
                # Hold the lease, send nothing: the coordinator must
                # declare this worker dead on heartbeat silence alone
                # (the socket stays open — no EOF shortcut).
                import time as _time

                _time.sleep(3.0)
            finally:
                sock.close()

        t = threading.Thread(target=mute_worker, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert taken.is_set()
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        events = [e["event"] for e in report.events]
        assert "worker_dead" in events
        dead = next(e for e in report.events if e["event"] == "worker_dead")
        assert dead["reason"] == "heartbeat_timeout" and dead["worker"] == "mute"
        assert "lease_retry" in events

    def test_vanishing_worker_lease_is_requeued_on_eof(self, tmp_path):
        campaign = Campaign("one", [open_scenario()])
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(wait_for_workers=1.0)

        def doomed_worker():
            assert ready.wait(10)
            host, port = parse_address(bound["addr"])
            sock = socket.create_connection((host, port), timeout=10)
            send_message(sock, {"type": "hello", "worker": "doomed", "pid": 0})
            message = recv_message(sock)
            assert message["type"] == "lease"
            sock.close()  # vanish mid-lease, like a SIGKILL would

        t = threading.Thread(target=doomed_worker, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        dead = next(e for e in report.events if e["event"] == "worker_dead")
        assert dead["reason"] == "disconnected"

    def test_worker_error_is_retried_then_surfaced_locally(self, tmp_path):
        """A lease the worker reports as failed falls back (after the
        retry budget) to in-process execution — which succeeds here,
        proving worker failures never poison a runnable unit."""
        campaign = Campaign("one", [open_scenario()])
        cfg, ready, bound = service_config(wait_for_workers=1.0, max_retries=0)

        def lying_worker():
            assert ready.wait(10)
            host, port = parse_address(bound["addr"])
            sock = socket.create_connection((host, port), timeout=10)
            try:
                send_message(sock, {"type": "hello", "worker": "liar", "pid": 0})
                message = recv_message(sock)
                send_message(
                    sock,
                    {
                        "type": "error",
                        "lease": message["lease"],
                        "error": "synthetic failure",
                    },
                )
                recv_message(sock)  # wait for shutdown
            finally:
                sock.close()

        t = threading.Thread(target=lying_worker, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert report.simulated == 1
        fallback = next(
            e for e in report.events if e["event"] == "unit_local_fallback"
        )
        assert "synthetic failure" in fallback["reason"]

    def test_stale_result_for_requeued_lease_is_ignored(self, tmp_path):
        """test_silent_worker's complement: a worker declared dead gets
        disconnected, so its late result can never double-commit (the
        lease-id check plus the closed socket)."""
        campaign = Campaign("one", [open_scenario()])
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(
            wait_for_workers=0.8, heartbeat_timeout=0.4,
        )

        def zombie_worker():
            assert ready.wait(10)
            host, port = parse_address(bound["addr"])
            sock = socket.create_connection((host, port), timeout=10)
            try:
                send_message(sock, {"type": "hello", "worker": "zombie", "pid": 0})
                message = recv_message(sock)
                import time as _time

                _time.sleep(1.2)  # long past heartbeat_timeout
                try:
                    send_message(
                        sock,
                        {
                            "type": "result",
                            "lease": message["lease"],
                            "results": [{"scenario": "bogus", "rows": []}],
                            "sims": 0,
                        },
                    )
                except OSError:
                    pass  # coordinator already hung up — equally fine
            finally:
                sock.close()

        t = threading.Thread(target=zombie_worker, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        assert report.simulated == 1  # the real (local) execution, once

    @pytest.mark.parametrize(
        "case, reason",
        [
            ("sims", "bad_result"),
            ("results", "bad_result"),
            ("rows", "bad_result"),
            ("nesting", "protocol_error"),
            ("heartbeat", "disconnected"),
        ],
    )
    def test_hostile_answer_is_retried_and_writes_no_row(self, tmp_path, case, reason):
        """A worker that takes its lease, answers it badly and hangs up
        loses the lease; the unit runs locally instead, and the output
        is byte-identical to a serial run."""
        campaign = Campaign("fake", [open_scenario()])
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)
        cfg, ready, bound = service_config(wait_for_workers=5.0, max_retries=0)

        def fake_worker():
            assert ready.wait(10)
            sock = socket.create_connection(parse_address(bound["addr"]), timeout=10)
            try:
                send_message(sock, {"type": "hello", "worker": "fake", "pid": 0})
                sock.sendall(hostile_frame(case, recv_message(sock)))
            finally:
                sock.close()

        t = threading.Thread(target=fake_worker, daemon=True)
        t.start()
        report = run_campaign(campaign, out=tmp_path / "svc.jsonl", service=cfg)
        t.join(10)
        assert (tmp_path / "svc.jsonl").read_bytes() == serial.read_bytes()
        assert report.simulated == 1
        fallback = next(
            e for e in report.events if e["event"] == "unit_local_fallback"
        )
        assert fallback["reason"] == reason

    def test_local_fallback_does_not_starve_a_busy_worker(self):
        """A unit the coordinator runs in-process blocks its selector
        loop, so a busy worker's heartbeats wait unread meanwhile; they
        must not count as silence once the unit returns."""
        sim = SimConfig(warmup_cycles=300, measure_cycles=1500, drain_cycles=3000)
        campaign = Campaign("starve", [
            Scenario(
                topology=TopologySpec("SF", params={"q": 5}),
                routing=RoutingSpec("min"),
                sim=dataclasses.replace(sim, seed=seed),
                traffic=TrafficSpec("uniform", seed=seed),
                loads=[0.1, 0.2, 0.3],
                label=f"s{seed}",
            )
            for seed in (0, 1)
        ])
        cfg, ready, bound = service_config(
            wait_for_workers=10.0, heartbeat_timeout=1.0, max_retries=0,
        )
        procs: list = []

        def fake_worker():
            assert ready.wait(10)
            sock = socket.create_connection(parse_address(bound["addr"]), timeout=30)
            try:
                send_message(sock, {"type": "hello", "worker": "fake", "pid": 0})
                lease = recv_message(sock)  # unit 0: the only worker so far
                # A real worker in its own process, beaconing every
                # 0.2 s; its first progress line means it holds unit 1.
                procs.append(subprocess.Popen(
                    [sys.executable, "-c",
                     "import sys\n"
                     "from repro.service.worker import serve_worker\n"
                     "serve_worker(sys.argv[1], name='healthy', retry_for=10.0,\n"
                     "             heartbeat_interval=0.2,\n"
                     "             progress=lambda e: print(e['event'], flush=True))\n",
                     bound["addr"]],
                    stdout=subprocess.PIPE, text=True,
                ))
                procs[0].stdout.readline()
                # A bad answer: unit 0 falls back to running in-process
                # while the healthy worker computes unit 1.
                send_message(sock, {"type": "result", "lease": lease["lease"],
                                    "results": [5], "sims": 0})
            finally:
                sock.close()

        t = threading.Thread(target=fake_worker, daemon=True)
        t.start()
        try:
            report = run_campaign(campaign, service=cfg)
            t.join(10)
            code = procs[0].wait(timeout=30)
        finally:
            for proc in procs:
                proc.kill()
                proc.stdout.close()
        dead = [e["worker"] for e in report.events if e["event"] == "worker_dead"]
        assert "healthy" not in dead
        fallbacks = [
            (e["unit"], e["reason"])
            for e in report.events if e["event"] == "unit_local_fallback"
        ]
        assert fallbacks == [(0, "bad_result")]
        assert report.heartbeat["sims"] == 6
        assert code == 0  # shut down by its coordinator, not dropped

    def test_service_and_store_compose(self, tmp_path):
        campaign = mixed_campaign()
        store = tmp_path / "store"
        cfg, ready, bound = service_config(wait_for_workers=30.0)
        starter, threads = start_thread_workers(ready, bound, 2)
        cold = tmp_path / "cold.jsonl"
        run_campaign(campaign, out=cold, service=cfg, store=store)
        starter.join(10)
        for t in threads:
            t.join(10)
        # Warm pass: every scenario comes from the store; no service
        # socket is even opened (the no-op short-circuit).
        before = simulations_started()
        cfg2, _, _ = service_config(wait_for_workers=30.0)
        report = run_campaign(
            campaign, out=tmp_path / "warm.jsonl", service=cfg2, store=store
        )
        assert simulations_started() - before == 0
        assert report.store_hits == 4 and report.simulated == 0
        assert (tmp_path / "warm.jsonl").read_bytes() == cold.read_bytes()
        assert "service_listening" not in [e["event"] for e in report.events]


# ---------------------------------------------------------------------------
# Chaos drill: a faulted campaign through a dying fleet
# ---------------------------------------------------------------------------


def drill_campaign() -> Campaign:
    """Three degraded-topology scenarios, including a fragmented one."""
    return Campaign(
        "fault-drill",
        [
            faulted_scenario("min", label="min/f=0.08"),
            faulted_scenario("val", label="val/f=0.08"),
            faulted_scenario("min", fault=FaultSpec(cut_routers=[0]),
                             label="severed"),
        ],
    )


def start_subprocess_workers(ready, bound, specs, delay=0.5):
    """Launch real serve-worker processes once the coordinator binds.

    ``specs`` is a list of extra-flag lists, one worker process each,
    started in order with ``delay`` seconds between them.  Subprocesses
    (not threads) because ``--fail-after`` SIGKILLs the whole process.
    """
    procs: list = []

    def launch():
        assert ready.wait(10)
        import time as _time

        for extra in specs:
            procs.append(
                subprocess.Popen(
                    [sys.executable, "-m", "repro.experiments",
                     "serve-worker", bound["addr"],
                     "--retry-for", "5", *extra],
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            )
            _time.sleep(delay)

    starter = threading.Thread(target=launch, daemon=True)
    starter.start()
    return starter, procs


class TestFaultChaosDrill:
    """Degraded campaigns survive worker death byte-identically, and
    their store entries are keyed by the faulted hash alone."""

    def test_sigkilled_worker_drill_is_byte_identical(self, tmp_path):
        campaign = drill_campaign()
        serial = tmp_path / "serial.jsonl"
        run_campaign(campaign, out=serial)

        # First worker SIGKILLs itself on its first lease; a healthy
        # worker joins right behind it and (with the local fallback)
        # mops up the requeued unit.
        store_root = tmp_path / "store"
        cfg, ready, bound = service_config(
            wait_for_workers=30.0, heartbeat_timeout=2.0,
        )
        starter, procs = start_subprocess_workers(
            ready, bound, [["--fail-after", "1"], []],
        )
        svc = tmp_path / "svc.jsonl"
        try:
            report = run_campaign(
                campaign, out=svc, service=cfg, store=store_root)
        finally:
            starter.join(10)
            for p in procs:
                try:
                    p.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    p.kill()

        assert svc.read_bytes() == serial.read_bytes()
        assert report.simulated == 3 and report.skipped == 0
        events = [e["event"] for e in report.events]
        assert "worker_dead" in events
        assert "lease_retry" in events

        # Store discipline: every faulted scenario landed under its
        # own (faulted) digest, and none of their healthy twins'
        # digests exist — a faulted result can never replay for a
        # healthy spec, nor vice versa.
        store = FileResultStore(store_root)
        for s in campaign.scenarios:
            entry = store.get(scenario_hash(s))
            assert entry is not None
            entry.validate()
            twin = dataclasses.replace(s, fault=None)
            assert store.get(scenario_hash(twin)) is None
        assert store.quarantined() == []

    def test_warm_store_replays_drill_without_workers(self, tmp_path):
        """Second pass over the drill store: zero simulations, zero
        service sockets, byte-identical rows — faulted entries behave
        exactly like healthy ones in the content-addressed plane."""
        campaign = drill_campaign()
        store = MemoryResultStore()
        cold = tmp_path / "cold.jsonl"
        run_campaign(campaign, out=cold, store=store)
        before = simulations_started()
        cfg, _, _ = service_config(wait_for_workers=30.0)
        report = run_campaign(
            campaign, out=tmp_path / "warm.jsonl", service=cfg, store=store)
        assert simulations_started() == before
        assert report.store_hits == 3 and report.simulated == 0
        assert (tmp_path / "warm.jsonl").read_bytes() == cold.read_bytes()
        assert "service_listening" not in [e["event"] for e in report.events]
