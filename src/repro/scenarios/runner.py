"""One entry point for every simulation the repo can run (Layer 5).

:func:`run_campaign` walks a campaign in order, splits its pending
scenarios into work units (:func:`partition_units`: one open-loop
scenario, or one batch of closed-loop scenarios), runs each unit
through :func:`repro.service.units.execute_unit` — the same function
service workers run — and streams one JSON row per result to a JSONL
file as each scenario completes.  Inside a unit, open-loop scenarios
fan their (load × replica) grid across workers via
:func:`~repro.sim.parallel.parallel_latency_vs_load`, and a batch is
one :func:`~repro.sim.parallel.parallel_workload_completion` call.

Every row carries its scenario hash and its ``row``/``rows`` position,
so the output is self-describing and resumable: with ``resume=True``
any scenario whose full row set already exists in the output file is
reused verbatim (zero simulations) and only the missing ones run.
Because rows are written in campaign order and cached lines are
replayed byte-for-byte, an interrupted campaign resumed to completion
produces a final file identical to an uninterrupted run.

Resume generalizes beyond one file through two opt-in transports
(DESIGN.md, Layer 7):

- ``store=`` plugs in a content-addressed result store
  (:mod:`repro.service.store`): scenarios whose hash is already in the
  store replay from it without simulating, and freshly simulated
  scenarios are written back — so any scenario ever simulated against
  the store, by any process on any host, is never re-simulated.
- ``service=`` leases the same work units to a coordinator/worker
  scheduler (:mod:`repro.service.coordinator`) instead of running
  them in-process; rows stay byte-identical to an in-process run at
  any worker/host count.

Next to the JSONL, the runner writes a provenance sidecar
(``<out>.meta.json``): the campaign name, package version, worker
count, and the scenario index (hash, label, engine, row count, and the
``origin`` of each scenario's rows — ``"simulated"`` or ``"cache"``
for store hits).  The analysis layer (:mod:`repro.analysis.frames`)
reads it to stamp per-figure provenance into reproduction reports.
Apart from the heartbeat section (wall-clock/sims-per-sec of the run
that produced the rows, preserved across no-op resumes, like the
origin markers), the sidecar is free of timestamps and run counters,
so a no-op resume rewrites it byte-identically.

Scenarios that arm telemetry probes stream their measurements to a
*third* file, ``<out>.metrics.jsonl`` (one canonical-JSON row per
telemetry-carrying load point), which resumes byte-for-byte alongside
the main rows and is absent when no probe ever fired.
"""

from __future__ import annotations

import json
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

from repro.scenarios.campaign import Campaign
from repro.scenarios.resolve import resolve
from repro.scenarios.spec import (
    Scenario,
    canonical_json,
    scenario_hash,
    splice_campaign,
)
from repro.sim.parallel import parallel_latency_vs_load, simulations_started
from repro.sim.stats import LoadPoint, WorkloadResult


def _clean(value):
    """NaN -> None so rows stay strict JSON (and reload unchanged)."""
    if isinstance(value, float) and value != value:
        return None
    return value


def _open_payload(
    scenario: Scenario,
    points: Sequence[LoadPoint],
    disconnected: bool = False,
) -> list[dict]:
    """One open-loop scenario's result rows, minus the campaign name.

    Payload rows are the campaign-independent part of a row — what the
    content-addressed store keys by ``scenario_hash`` and what service
    workers ship back over the wire.  :func:`_stamped` splices the
    campaign name into each row's ``canonical_json`` text, so a row
    replayed from a payload is byte-identical to a freshly simulated
    one.

    Rows of a faulted scenario additionally carry ``fault_fraction``
    (the spec's link-kill fraction — the x-axis of degradation
    figures) and ``disconnected``; healthy scenarios write neither
    key, so their pre-fault row bytes are untouched.
    """
    h = scenario_hash(scenario)
    spec = scenario.to_dict()
    rows = []
    for i, pt in enumerate(points):
        row = {
            "scenario": h,
            "label": scenario.label,
            "engine": "open",
            "fidelity": scenario.backend,
            "row": i,
            "rows": len(points),
            "load": pt.load,
            "latency": _clean(pt.latency),
            "accepted": _clean(pt.accepted),
            "saturated": bool(pt.saturated),
            "spec": spec,
        }
        if scenario.fault is not None:
            row["fault_fraction"] = scenario.fault.link_fraction
            row["disconnected"] = bool(disconnected)
        rows.append(row)
    return rows


def _open_scenario_payloads(
    scenario: Scenario, workers: int
) -> tuple[list[dict], list[dict]]:
    """Resolve and run one open-loop scenario into (rows, metrics).

    The single execution path of an open-loop unit
    (:mod:`repro.service.units`), wherever the unit runs, so remote
    and local rows cannot drift.  A faulted scenario whose degraded
    topology fell apart short-circuits into structured
    ``disconnected`` rows — one per load point, null latency and
    throughput — without touching the simulator (routing tables over
    a disconnected graph are undefined).
    """
    resolved = resolve(scenario)
    if resolved.disconnected:
        points = [
            LoadPoint(load=load, latency=None, accepted=None, saturated=False)
            for load in scenario.loads
        ]
        return _open_payload(scenario, points, disconnected=True), []
    points = _run_open(resolved, workers)
    return _open_payload(scenario, points), _metrics_payload(scenario, points)


def _closed_payload(scenario: Scenario, result: WorkloadResult) -> list[dict]:
    """One closed-loop scenario's result row, minus the campaign name."""
    return [
        {
            "scenario": scenario_hash(scenario),
            "label": scenario.label,
            "engine": "closed",
            "fidelity": scenario.backend,
            "row": 0,
            "rows": 1,
            "workload": result.workload,
            "num_messages": result.num_messages,
            "completed_messages": result.completed_messages,
            "finished": result.finished,
            "makespan": result.makespan,
            "cycles": result.cycles,
            "delivered_flits": result.delivered_flits,
            "avg_message_latency": _clean(result.avg_message_latency),
            "p99_message_latency": _clean(result.p99_message_latency),
            "avg_packet_latency": _clean(result.avg_packet_latency),
            "flits_per_cycle": _clean(result.flits_per_cycle),
            "spec": scenario.to_dict(),
        }
    ]


#: One output row as ``(JSONL line, parsed full row)``: both forms are
#: kept from the moment a row is encoded or decoded, so no row is ever
#: encoded or parsed twice on its way to the file and the report.
_Line = tuple[str, dict]


def _stamped(
    payload: Sequence[dict], texts: Sequence[str], campaign: str
) -> list[_Line]:
    """Stamp the campaign name into payload rows (the full row form).

    ``texts`` are the rows' ``canonical_json`` encodings; each line is
    spliced from its text instead of encoding the row again.
    """
    return [
        (splice_campaign(text, row, campaign), {"campaign": campaign, **row})
        for text, row in zip(texts, payload)
    ]


def metrics_path_for(out_path: Path) -> Path:
    """The telemetry sidecar path for a campaign output file."""
    return out_path.with_name(out_path.name + ".metrics.jsonl")


def _metrics_payload(
    scenario: Scenario, points: Sequence[LoadPoint]
) -> list[dict]:
    """Telemetry sidecar rows for one open-loop scenario (campaign-free).

    One row per load point that actually carries telemetry; fill
    points past the saturation short-circuit (and every point of a
    telemetry-off scenario) contribute nothing.  ``row``/``rows``
    mirror the main result rows, so a sidecar row joins its result
    row on (scenario, row).
    """
    h = scenario_hash(scenario)
    rows = []
    for i, pt in enumerate(points):
        if pt.telemetry is None:
            continue
        row = {
            "scenario": h,
            "label": scenario.label,
            "row": i,
            "rows": len(points),
            "load": pt.load,
        }
        row.update(pt.telemetry.to_dict())
        rows.append(row)
    return rows


def _load_metrics_cache(
    path: Path, campaign_name: str, armed: Sequence[str]
) -> tuple[dict[str, list[_Line]], set[str]]:
    """Metrics-sidecar lines (raw and parsed) grouped by scenario hash,
    plus the hashes a torn line may have belonged to.

    Unlike the main cache there is no per-scenario completeness check
    (a telemetry row count is not knowable up front — short-circuited
    points write nothing), so callers must only replay hashes whose
    *main* rows were complete: main-row completeness implies the
    scenario finished, and the runner writes a scenario's metrics lines
    (flushed) before its result rows.

    A line that fails to decode as UTF-8 or to parse costs its scenario
    a telemetry row, and its hash is unreadable.  Sidecar groups are
    written in campaign order, so it belongs to a telemetry-armed
    scenario (``armed``, campaign order) between the scenarios of the
    nearest attributable lines before and after it, inclusive; all of
    those are returned for re-simulation.  An unterminated last line is
    a kill mid-write: its scenario's result rows were never written, so
    it re-simulates anyway and costs no neighbour.
    """
    position = {h: i for i, h in enumerate(armed)}
    data = path.read_bytes()
    raws = data.splitlines()
    if raws and not data.endswith(b"\n"):
        raws.pop()
    by_hash: dict[str, list[_Line]] = {}
    torn: set[str] = set()
    #: Position of the last attributable line (0 before the first one),
    #: and whether a torn line came after it.
    last = 0
    gap = False
    for raw in raws:
        try:
            line = raw.decode("utf-8")
            row = json.loads(line)
            h, name = row["scenario"], row["campaign"]
        except (ValueError, KeyError, TypeError):
            h = None
        if not isinstance(h, str):
            gap = True
            continue
        if name != campaign_name:
            continue
        by_hash.setdefault(h, []).append((line, row))
        here = position.get(h)
        if here is None:
            continue
        if gap:
            torn.update(armed[min(last, here) : max(last, here) + 1])
            gap = False
        last = here
    if gap:
        torn.update(armed[last:])
    return by_hash, torn


class _LazyStream:
    """A text stream that creates its file on first write only.

    Campaigns without telemetry must not leave an empty sidecar
    behind (its absence is the signal that no probes were armed).
    """

    def __init__(self, path):
        self.path = path
        self._fh = None
        #: True once any line was written (survives close()).
        self.wrote = False

    def emit(self, lines: Sequence[_Line]) -> None:
        if self.path is None or not lines:
            return
        if self._fh is None:
            self._fh = open(self.path, "w")
            self.wrote = True
        _write_lines(self._fh, lines)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _load_cache(
    path: Path, campaign_name: str, scenarios: Sequence[Scenario]
) -> dict[str, list[_Line]]:
    """JSONL lines (raw and parsed) of *complete* scenarios, keyed by hash.

    A scenario is complete when every ``row`` index 0..rows-1 is
    present.  Lines that fail to decode as UTF-8 or to parse (a kill
    mid-write leaves a truncated tail), belong to no campaign scenario,
    or carry another campaign's name (cached lines replay verbatim, so
    a stale name would survive into the resumed file) are ignored; the
    file is split into lines as bytes, so a bad byte costs one line.
    """
    expected = {scenario_hash(s): s.num_rows for s in scenarios}
    by_hash: dict[str, dict[int, _Line]] = {}
    for raw in path.read_bytes().splitlines():
        try:
            line = raw.decode("utf-8")
            row = json.loads(line)
            h, i, n = row["scenario"], row["row"], row["rows"]
            name = row["campaign"]
        except (ValueError, KeyError, TypeError):
            continue
        if name != campaign_name:
            continue
        if expected.get(h) != n or not isinstance(i, int) or not 0 <= i < n:
            continue
        by_hash.setdefault(h, {})[i] = (line, row)
    return {
        h: [rows[i] for i in range(expected[h])]
        for h, rows in by_hash.items()
        if len(rows) == expected[h]
    }


@dataclass
class CampaignReport:
    """Outcome of :func:`run_campaign`."""

    campaign: str
    rows: list[dict] = field(default_factory=list)
    #: Scenarios actually simulated this run.
    simulated: int = 0
    #: Scenarios whose rows were reused without simulating (resume
    #: cache or store; store reuses are also counted in store_hits).
    skipped: int = 0
    #: Scenarios served from the content-addressed result store.
    store_hits: int = 0
    out: str | None = None
    #: Telemetry sidecar rows (parsed), in campaign order.
    metrics_rows: list[dict] = field(default_factory=list)
    #: Heartbeat event stream: scenario_start / scenario_finish /
    #: campaign_finish dicts with wall-clock and simulation counts.
    events: list[dict] = field(default_factory=list)

    @property
    def heartbeat(self) -> dict | None:
        """The campaign_finish event, or None for an empty run."""
        for event in reversed(self.events):
            if event.get("event") == "campaign_finish":
                return event
        return None

    def summary(self) -> str:
        text = (
            f"campaign {self.campaign}: {self.simulated + self.skipped} scenarios "
            f"(simulated={self.simulated} skipped={self.skipped}"
        )
        if self.store_hits:
            text += f" store_hits={self.store_hits}"
        text += f"), {len(self.rows)} rows"
        hb = self.heartbeat
        if hb is not None:
            text += f", {hb['wall_s']:.2f}s wall"
            # sims_per_s is null on zero-simulation and zero-duration
            # campaigns (a fully-resumed run has no meaningful rate).
            if hb.get("sims") and hb.get("sims_per_s") is not None:
                text += f" ({hb['sims_per_s']:.1f} sims/s)"
        if self.metrics_rows:
            text += f", {len(self.metrics_rows)} telemetry rows"
        return text + (f" -> {self.out}" if self.out else "")


def _sims_per_s(sims: int, wall: float) -> float | None:
    """Simulation rate for a heartbeat event; null when meaningless.

    Fully-resumed campaigns schedule zero simulations and can finish in
    ~zero wall-clock — both make a rate division-prone nonsense, so
    such events carry ``sims_per_s: null`` instead.
    """
    if not sims or wall <= 0:
        return None
    return round(sims / wall, 2)


def _write_meta(
    out_path: Path, campaign: Campaign, workers: int, simulated: int,
    heartbeat: dict | None = None, origins: dict[str, str] | None = None,
) -> None:
    """Provenance sidecar for an output file (see module docstring).

    ``workers`` and ``heartbeat`` record how the rows were *produced*:
    a resume that simulated nothing keeps the previous sidecar's
    worker count and heartbeat — the rows in the file are still the
    old run's — instead of stamping numbers from a run that never
    simulated anything (which also keeps the sidecar byte-stable
    across no-op resumes).  ``origins`` follows the same rule per
    scenario: ``"simulated"`` and ``"cache"`` (store hit) describe how
    this run obtained the rows, while file-resumed scenarios keep the
    origin recorded by the run that actually produced them.
    """
    from repro import __version__

    meta_path = out_path.with_name(out_path.name + ".meta.json")
    previous: dict | None = None
    if meta_path.exists():
        try:
            parsed = json.loads(meta_path.read_text(encoding="utf-8"))
            # A corrupt/foreign sidecar (non-dict JSON included) is
            # simply rewritten rather than trusted.
            if isinstance(parsed, dict) and parsed.get("campaign") == campaign.name:
                previous = parsed
        except ValueError:
            pass
    if simulated == 0 and previous is not None:
        workers = previous.get("workers", workers)
        heartbeat = previous.get("heartbeat", heartbeat)
    previous_origins = {
        e.get("scenario"): e.get("origin", "simulated")
        for e in (previous.get("scenarios", []) if previous else [])
        if isinstance(e, dict)
    }

    def _origin(h: str) -> str:
        o = (origins or {}).get(h, "simulated")
        if o == "resume":
            return previous_origins.get(h, "simulated")
        return o

    meta = {
        "format": 1,
        "campaign": campaign.name,
        "generator": f"repro {__version__}",
        "workers": workers,
        "scenarios": [
            {
                "scenario": scenario_hash(s),
                "label": s.label,
                "engine": s.engine,
                "rows": s.num_rows,
                "origin": _origin(scenario_hash(s)),
            }
            for s in campaign.scenarios
        ],
    }
    if heartbeat is not None:
        meta["heartbeat"] = heartbeat
    meta_path.write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
        newline="\n",
    )


def _write_lines(stream: IO[str], lines: Sequence[_Line]) -> None:
    for line, _ in lines:
        stream.write(line)
        stream.write("\n")
    stream.flush()


def _run_open(resolved, workers: int) -> list[LoadPoint]:
    s = resolved.scenario
    return parallel_latency_vs_load(
        resolved.topology,
        resolved.routing_factory,
        resolved.traffic,
        loads=s.loads,
        config=resolved.config,
        workers=workers,
        replicas=s.replicas,
        stop_after_saturation=s.stop_after_saturation,
        backend=resolved.backend,
        telemetry=resolved.telemetry,
    )


def _heartbeat(report: CampaignReport, progress: bool, **fields) -> None:
    """Record one heartbeat event; echo it to stderr under --progress.

    Events go to stderr (one canonical-JSON object per line) so a
    campaign's stdout/file outputs stay untouched by observability.
    """
    report.events.append(fields)
    if progress:
        print(canonical_json(fields), file=sys.stderr, flush=True)


def partition_units(
    scenarios: Sequence[Scenario], pending: Sequence[bool]
) -> list[tuple[str, list[int]]]:
    """Split the pending scenarios into schedulable work units.

    An open-loop scenario is one unit; a run of pending closed-loop
    scenarios — consecutive modulo already-cached neighbours, stopping
    at the next pending open-loop scenario — forms one batch unit (the
    grain :func:`~repro.sim.parallel.parallel_workload_completion`
    receives).  Units are in campaign order, so executing them in
    order and emitting cached scenarios between them reconstructs the
    campaign's deterministic row order.
    """
    units: list[tuple[str, list[int]]] = []
    i = 0
    while i < len(scenarios):
        if not pending[i]:
            i += 1
        elif scenarios[i].engine == "open":
            units.append(("open", [i]))
            i += 1
        else:
            j = i
            batch: list[int] = []
            while j < len(scenarios) and not (
                pending[j] and scenarios[j].engine == "open"
            ):
                if pending[j]:
                    batch.append(j)
                j += 1
            units.append(("closed", batch))
            i = j
    return units


def run_campaign(
    campaign: Campaign,
    workers: int = 1,
    out=None,
    resume: bool = False,
    progress: bool = False,
    store=None,
    service=None,
) -> CampaignReport:
    """Execute a campaign, streaming rows to ``out`` (JSONL).

    ``workers`` fans each scenario's internal grid (and batches of
    consecutive closed-loop scenarios) across processes; rows are
    identical for any value.  ``resume=True`` (requires ``out``)
    reuses the complete scenarios already present in ``out`` and
    simulates only the rest; the finished file is byte-identical to a
    clean run.  Duplicate scenarios are dropped before execution.

    ``store`` plugs in a content-addressed result store — a
    :class:`~repro.service.store.ResultStore`, a directory path, or a
    ``"file:"``/``"memory:"`` URL for :func:`~repro.service.store.open_store`.
    Scenarios found in the store replay without simulating (counted in
    ``store_hits``) and fresh results are written back, so the store
    memoizes across files, processes, and hosts while the output stays
    byte-identical to a cold run.  ``service`` (a
    :class:`~repro.service.coordinator.ServiceConfig`) leases the
    pending work units to the coordinator/worker scheduler instead of
    running them in-process — same rows, any host count.

    A campaign whose every scenario is already covered by the resume
    file and/or the store is recognised *before* any spec resolution,
    service socket, or worker pool is touched: a no-op resume costs
    O(scenario hashes) plus the file replay, nothing else.

    Scenarios with an armed :class:`~repro.sim.telemetry.TelemetrySpec`
    stream their probe measurements to a second sidecar,
    ``<out>.metrics.jsonl`` — created only when at least one telemetry
    row exists, resumed/replayed byte-for-byte exactly like the main
    file.  ``progress=True`` echoes the heartbeat event stream
    (scenario start/finish, wall-clock, sims/sec) to stderr as
    canonical-JSON lines; the same events land on
    :attr:`CampaignReport.events` either way.
    """
    campaign = campaign.dedup()
    scenarios = campaign.scenarios
    if resume and out is None:
        raise ValueError("resume=True needs an output file to resume from")
    out_path = Path(out) if out is not None else None
    if store is not None:
        from repro.service.store import open_store

        store = open_store(store)

    cache: dict[str, list[_Line]] = {}
    metrics_cache: dict[str, list[_Line]] = {}
    tmp_path = (
        out_path.with_name(out_path.name + ".tmp") if out_path is not None else None
    )
    metrics_out = metrics_path_for(out_path) if out_path is not None else None
    metrics_tmp = (
        metrics_out.with_name(metrics_out.name + ".tmp")
        if metrics_out is not None
        else None
    )
    hashes = [scenario_hash(s) for s in scenarios]
    if resume and out_path is not None:
        if out_path.exists():
            cache = _load_cache(out_path, campaign.name, scenarios)
        # A resumed run that was itself interrupted left its progress
        # in the temp file; harvest that too so no simulation is ever
        # repeated across any number of interruptions.
        if tmp_path.exists():
            for h, lines in _load_cache(tmp_path, campaign.name, scenarios).items():
                cache.setdefault(h, lines)
        # Telemetry sidecar lines follow their main rows: only hashes
        # in the (complete-scenario) main cache are ever replayed, and
        # none that a torn sidecar line may have belonged to.
        armed = [h for h, s in zip(hashes, scenarios) if s.telemetry is not None]
        torn: set[str] = set()
        for path in (metrics_out, metrics_tmp):
            if path.exists():
                lines_by_hash, torn_here = _load_metrics_cache(
                    path, campaign.name, armed
                )
                torn |= torn_here
                for h, lines in lines_by_hash.items():
                    metrics_cache.setdefault(h, lines)
        for h in torn:
            cache.pop(h, None)
            metrics_cache.pop(h, None)

    report = CampaignReport(campaign=campaign.name, out=str(out_path) if out_path else None)
    pending = [h not in cache for h in hashes]
    #: hash -> how this run obtained the rows ("resume" defers to the
    #: previous meta sidecar; see _write_meta).
    origins: dict[str, str] = {
        h: "resume" for h, p in zip(hashes, pending) if not p
    }
    cache_source: dict[str, str] = {h: "resume" for h in origins}
    if store is not None:
        # Store probe: one get() per still-pending hash, before any
        # resolution — a warm store turns the scenario into a replay.
        for i, h in enumerate(hashes):
            if not pending[i]:
                continue
            entry = store.get(h)
            if entry is None:
                continue
            cache[h] = _stamped(entry.rows, entry.row_texts, campaign.name)
            if entry.metrics:
                metrics_cache[h] = _stamped(
                    entry.metrics, entry.metric_texts, campaign.name
                )
            pending[i] = False
            origins[h] = "cache"
            cache_source[h] = "store"
            report.store_hits += 1

    # Resumed runs rewrite through a temp file so an interruption never
    # destroys the cache the next attempt resumes from.
    write_path = out_path
    metrics_write_path = metrics_out
    if out_path is not None and cache:
        write_path = tmp_path
        metrics_write_path = metrics_tmp

    t_campaign = time.perf_counter()
    sims_at_start = simulations_started()

    stream = open(write_path, "w") if write_path is not None else None
    metrics_stream = _LazyStream(metrics_write_path)

    def _emit_scenario(lines: list[_Line], metrics_lines: list[_Line]) -> None:
        """Write one scenario's lines and add its rows to the report."""
        # Metrics lines land before the result rows so a kill between
        # the two writes leaves the scenario pending (incomplete main
        # rows), never with lost telemetry.
        metrics_stream.emit(metrics_lines)
        report.metrics_rows.extend(row for _, row in metrics_lines)
        if stream is not None:
            _write_lines(stream, lines)
        report.rows.extend(row for _, row in lines)

    def _replay_cached(i: int) -> None:
        """Emit scenario ``i`` from the resume/store cache."""
        _emit_scenario(cache[hashes[i]], metrics_cache.get(hashes[i], []))
        report.skipped += 1
        _heartbeat(
            report, progress, event="scenario_cached",
            campaign=campaign.name, scenario=hashes[i],
            label=scenarios[i].label, index=i, of=len(scenarios),
            source=cache_source[hashes[i]],
        )

    def _record_simulated(
        k: int, payload: list[dict], metrics_payload: list[dict]
    ) -> None:
        """Emit scenario ``k``'s freshly produced payload rows.

        Each row is encoded exactly once; the JSONL line and the store
        entry are both built from that text.
        """
        texts = [canonical_json(r) for r in payload]
        metric_texts = [canonical_json(r) for r in metrics_payload]
        report.simulated += 1
        origins[hashes[k]] = "simulated"
        _emit_scenario(
            _stamped(payload, texts, campaign.name),
            _stamped(metrics_payload, metric_texts, campaign.name),
        )
        if store is not None:
            from repro.service.store import StoreEntry

            store.put(
                StoreEntry(hashes[k], payload, metrics_payload, texts, metric_texts)
            )

    try:
        if not any(pending):
            # No-op resume short-circuit: everything is in the resume
            # file and/or the store, so replay it without resolving a
            # single topology, opening a service socket, or forking a
            # pool — O(hash count) + the byte replay.
            for i in range(len(scenarios)):
                _replay_cached(i)
        else:
            _run_units(
                campaign, scenarios, pending, workers, service,
                report, progress, _replay_cached, _record_simulated,
            )
    finally:
        if stream is not None:
            stream.close()
        metrics_stream.close()
    wall = time.perf_counter() - t_campaign
    sims = simulations_started() - sims_at_start
    _heartbeat(
        report, progress, event="campaign_finish", campaign=campaign.name,
        workers=workers, wall_s=round(wall, 3), sims=sims,
        sims_per_s=_sims_per_s(sims, wall),
        simulated=report.simulated, skipped=report.skipped,
        rows=len(report.rows),
    )
    if write_path is not None and write_path != out_path:
        os.replace(write_path, out_path)
    if metrics_out is not None:
        if metrics_stream.wrote and metrics_write_path != metrics_out:
            os.replace(metrics_write_path, metrics_out)
        elif not metrics_stream.wrote:
            # No telemetry row this run: a sidecar from an earlier
            # (differently-configured) run would be stale — remove it.
            metrics_out.unlink(missing_ok=True)
        if metrics_tmp.exists() and metrics_write_path != metrics_tmp:
            metrics_tmp.unlink()
    if out_path is not None:
        hb = report.heartbeat
        _write_meta(
            out_path, campaign, workers, report.simulated,
            heartbeat=(
                {
                    "wall_s": hb["wall_s"],
                    "sims": hb["sims"],
                    "sims_per_s": hb["sims_per_s"],
                }
                if hb is not None and hb["sims"]
                else None
            ),
            origins=origins,
        )
    return report


def _run_units(
    campaign: Campaign,
    scenarios: Sequence[Scenario],
    pending: Sequence[bool],
    workers: int,
    service,
    report: CampaignReport,
    progress: bool,
    replay_cached,
    record_simulated,
) -> None:
    """Run the pending work units; emit every scenario in campaign order.

    Each unit runs through :func:`repro.service.units.execute_unit`.
    In-process, cached scenarios up to a unit's first index replay
    before it runs, and its own scenarios, with the cached ones inside
    its window, are emitted after it.  With ``service`` set the
    coordinator leases the units, runs them in whatever order workers
    finish them, and hands them back here in campaign order.
    """
    next_idx = 0

    def emit_cached_until(limit: int) -> None:
        nonlocal next_idx
        while next_idx < limit:
            if pending[next_idx]:
                raise RuntimeError(
                    f"scenario {next_idx} emitted out of order"
                )  # pragma: no cover - coordinator ordering bug
            replay_cached(next_idx)
            next_idx += 1

    def on_scenario(k: int, payload: dict) -> None:
        nonlocal next_idx
        emit_cached_until(k)
        record_simulated(k, payload["rows"], payload.get("metrics", []))
        next_idx = k + 1

    def heartbeat(**fields) -> None:
        _heartbeat(report, progress, **fields)

    units = partition_units(scenarios, pending)
    if service is not None:
        from repro.service.coordinator import Coordinator

        coordinator = Coordinator(
            campaign.name, scenarios, service, local_workers=workers,
            heartbeat=heartbeat,
        )
        coordinator.execute(units, on_scenario)
    else:
        # Lazy import: the unit layer builds its rows with this module.
        from repro.service.units import UnitEntry, execute_unit

        for kind, indices in units:
            emit_cached_until(indices[0])
            entries = [UnitEntry(k, len(scenarios), scenarios[k]) for k in indices]
            payloads, _ = execute_unit(
                campaign.name, kind, entries, workers, heartbeat=heartbeat
            )
            for k, payload in zip(indices, payloads):
                on_scenario(k, payload)
    emit_cached_until(len(scenarios))


def rows_by_label(report: CampaignReport) -> dict[str, list[dict]]:
    """Group a report's rows by scenario label, in first-seen order."""
    grouped: dict[str, list[dict]] = {}
    for row in report.rows:
        grouped.setdefault(row["label"], []).append(row)
    return grouped
