"""One entry point for every simulation the repo can run (Layer 5).

:func:`run_campaign` walks a campaign in order, splits its pending
scenarios into work units (:func:`partition_units`: one open-loop
scenario, or one batch of closed-loop scenarios), runs each unit
through :func:`repro.service.units.execute_unit` — the same function
service workers run — and streams one JSON row per result to a JSONL
file as each scenario completes.  Workers fan the campaign's units:
when the pending units can fill every worker, each runs whole in one
child of one fork pool.  Otherwise each unit fans its own work: an
open-loop scenario its (load × replica) grid via
:func:`~repro.sim.parallel.parallel_latency_vs_load`, a batch its
tasks via :func:`~repro.sim.parallel.parallel_workload_completion`.
A ``flow`` sweep is solved in-process in either case.

Every row carries its scenario hash and its ``row``/``rows`` position,
so the output is self-describing and resumable: with ``resume=True``
the output files are read back as one more result store, a read-only
view whose entries pass the store's own validation, so any scenario
whose full row set already exists in the output file is reused
verbatim (zero simulations) and only the missing ones run.  Every
scenario, simulated or not, is emitted from a store entry by splicing
the campaign name into its rows' payload texts, so an interrupted
campaign resumed to completion produces a final file identical to an
uninterrupted run.

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
from typing import IO, Iterator, Sequence

from repro.scenarios.campaign import Campaign
from repro.scenarios.resolve import resolve
from repro.scenarios.spec import (
    Scenario,
    canonical_json,
    scenario_hash,
    splice_campaign,
    unsplice_campaign,
)
from repro.sim.backends import get_backend
from repro.sim.parallel import (
    _fork_map,
    credit_simulations,
    parallel_latency_vs_load,
    resolve_workers,
    simulations_started,
)
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


def _scan(path: Path, campaign: str) -> Iterator[tuple[str, str, dict] | None]:
    """``(hash, payload text, payload row)`` per line of ``campaign``;
    ``None`` per torn line.

    The file is split as bytes and each line decoded on its own, so a
    bad byte costs one line; an unterminated last line is a kill
    mid-write and is dropped.  A line is torn when it is not UTF-8, not
    a JSON object (nesting past the decoder's limit included), has no
    string ``scenario``, or does not carry its campaign name where
    :func:`splice_campaign` puts it.  Other campaigns' lines are
    skipped: replayed, they would carry a stale name.
    """
    try:
        raws = path.read_bytes().split(b"\n")[:-1]
    except FileNotFoundError:
        return
    for raw in raws:
        try:
            line = raw.decode("utf-8")
            row = json.loads(line)
        except (ValueError, RecursionError):
            row = None
        if not (
            isinstance(row, dict)
            and isinstance(row.get("scenario"), str)
            and "campaign" in row
        ):
            yield None
        elif row.pop("campaign") == campaign:
            try:
                text = unsplice_campaign(line, row, campaign)
            except (ValueError, RecursionError):
                yield None
            else:
                yield row["scenario"], text, row


def _read_generation(
    rows_path: Path, metrics_path: Path, campaign: Campaign, hashes: Sequence[str]
) -> dict:
    """One generation of the campaign's output files as a read-only store.

    A generation is a rows file and its telemetry sidecar: ``<out>``
    with ``<out>.metrics.jsonl``, or the ``.tmp`` pair an interrupted
    resume left.  The result maps a scenario hash to a
    :class:`~repro.service.store.StoreEntry` that passed ``validate()``
    and holds the scenario's full row set, so its ``get`` keeps the
    :class:`~repro.service.store.ResultStore` contract.

    Telemetry rows have no count to check (short-circuited points write
    none), but the runner writes a scenario's sidecar lines before its
    result rows, so complete result rows imply complete telemetry —
    unless a sidecar line is torn.  A torn line's hash is unreadable;
    sidecar groups are written in campaign order, so it belongs to a
    telemetry-armed scenario between the scenarios of the nearest
    readable lines before and after it, inclusive, and none of those is
    served from this generation.
    """
    from repro.service.store import StoreEntry, StoreIntegrityError

    num_rows = {h: s.num_rows for h, s in zip(hashes, campaign.scenarios)}
    armed = [h for h, s in zip(hashes, campaign.scenarios) if s.telemetry is not None]
    entries: dict[str, StoreEntry] = {}
    for item in _scan(rows_path, campaign.name):
        if item is not None and item[0] in num_rows:
            h, text, row = item
            if h not in entries:
                entries[h] = StoreEntry(h, [], [], [], [])
            entries[h].rows.append(row)
            entries[h].row_texts.append(text)
    position = {h: i for i, h in enumerate(armed)}
    #: Position of the last readable line (0 before the first one), and
    #: whether a torn line came after it.
    last, gap = 0, False
    torn: set[str] = set()
    for item in _scan(metrics_path, campaign.name):
        if item is None:
            gap = True
            continue
        h, text, row = item
        if h in entries:
            entries[h].metrics.append(row)
            entries[h].metric_texts.append(text)
        here = position.get(h)
        if here is None:
            continue
        if gap:
            torn.update(armed[min(last, here) : max(last, here) + 1])
            gap = False
        last = here
    if gap:
        torn.update(armed[last:])
    valid = {}
    for h, entry in entries.items():
        if h in torn or len(entry.rows) != num_rows[h]:
            continue
        try:
            entry.validate()
        except StoreIntegrityError:
            continue
        valid[h] = entry
    return valid


@dataclass
class CampaignReport:
    """Outcome of :func:`run_campaign`."""

    campaign: str
    rows: list[dict] = field(default_factory=list)
    #: Scenarios actually simulated this run.
    simulated: int = 0
    #: Scenarios whose rows were reused without simulating (resume
    #: files or store; store reuses are also counted in store_hits).
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
    heartbeat: dict | None = None, sources: dict[str, str] | None = None,
) -> None:
    """Provenance sidecar for an output file (see module docstring).

    ``workers`` and ``heartbeat`` record how the rows were *produced*:
    a resume that simulated nothing keeps the previous sidecar's
    worker count and heartbeat — the rows in the file are still the
    old run's — instead of stamping numbers from a run that never
    simulated anything (which also keeps the sidecar byte-stable
    across no-op resumes).  ``sources`` (hash -> ``"resume"`` or
    ``"store"``, for the scenarios this run did not simulate) sets each
    scenario's origin by the same rule: store hits are ``"cache"``,
    simulated scenarios ``"simulated"``, and file-resumed scenarios
    keep the origin recorded by the run that actually produced them.
    """
    from repro import __version__

    meta_path = out_path.with_name(out_path.name + ".meta.json")
    try:
        previous = json.loads(meta_path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        previous = None
    index = previous.get("scenarios") if isinstance(previous, dict) else None
    # A missing, corrupt or foreign sidecar, or one whose scenario index
    # has any other shape, is rewritten rather than trusted.
    if not (
        isinstance(index, list)
        and previous.get("campaign") == campaign.name
        and all(isinstance(e, dict) and isinstance(e.get("scenario"), str) for e in index)
    ):
        previous, index = None, []
    previous_origins = {e["scenario"]: e.get("origin", "simulated") for e in index}
    if simulated == 0 and previous is not None:
        workers = previous.get("workers", workers)
        heartbeat = previous.get("heartbeat", heartbeat)

    def _origin(h: str) -> str:
        source = (sources or {}).get(h)
        if source == "resume":
            return previous_origins.get(h, "simulated")
        return "cache" if source == "store" else "simulated"

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


def _heartbeat(report: CampaignReport, progress: bool, /, **fields) -> None:
    """Record one heartbeat event; echo it to stderr under --progress.

    Events go to stderr (one canonical-JSON object per line) so a
    campaign's stdout/file outputs stay untouched by observability.
    ``report`` and ``progress`` are positional-only, so an event that
    a service worker forwards may carry fields of those names.
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

    ``workers`` fans the campaign's work units across one pool of
    processes when there are enough of them to fill it; otherwise each
    unit fans its own loads or closed-loop batch, and a ``flow`` sweep
    is solved in-process either way.  Rows are identical for any value.
    ``resume=True`` (requires ``out``)
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
    files and/or the store is replayed *before* any spec resolution,
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
    from repro.service.store import StoreEntry, open_store

    campaign = campaign.dedup()
    scenarios = campaign.scenarios
    if resume and out is None:
        raise ValueError("resume=True needs an output file to resume from")
    out_path = Path(out) if out is not None else None
    hashes = [scenario_hash(s) for s in scenarios]
    #: The output files, then the temp pair a resume writes through.
    generations: list[tuple[Path, Path]] = []
    if out_path is not None:
        metrics_out = metrics_path_for(out_path)
        generations = [
            (out_path, metrics_out),
            tuple(p.with_name(p.name + ".tmp") for p in (out_path, metrics_out)),
        ]
    # One lookup for every way a scenario is served without simulating:
    # each generation of the output files (a resumed run that was itself
    # interrupted left its progress in the temp pair), then the store.
    lookups = [
        ("resume", _read_generation(rows, metrics, campaign, hashes))
        for rows, metrics in (generations if resume else [])
    ]
    if store is not None:
        store = open_store(store)
        lookups.append(("store", store))
    #: hash -> (source, entry) of every scenario served without
    #: simulating; the entry is released once emitted.
    hits: dict[str, tuple[str, StoreEntry | None]] = {}
    for h in hashes:
        for source, lookup in lookups:
            entry = lookup.get(h)
            if entry is not None:
                hits[h] = (source, entry)
                break
    # From here on only ``hits`` holds the entries, each until emitted.
    del lookups

    report = CampaignReport(campaign=campaign.name, out=str(out_path) if out_path else None)
    report.store_hits = sum(source == "store" for source, _ in hits.values())
    pending = [h not in hits for h in hashes]
    # A run that replays anything writes through the temp pair, so an
    # interruption never destroys the files the next attempt resumes from.
    write_paths = generations[1 if hits else 0] if generations else (None, None)

    t_campaign = time.perf_counter()
    sims_at_start = simulations_started()

    stream = open(write_paths[0], "w") if write_paths[0] is not None else None
    metrics_stream = _LazyStream(write_paths[1])

    def _emit(entry: StoreEntry) -> None:
        """Write one scenario's entry, stamped with the campaign name,
        and add its rows to the report."""
        metrics_lines = _stamped(entry.metrics, entry.metric_texts, campaign.name)
        lines = _stamped(entry.rows, entry.row_texts, campaign.name)
        # Metrics lines land before the result rows so a kill between
        # the two writes leaves the scenario pending (incomplete main
        # rows), never with lost telemetry.
        metrics_stream.emit(metrics_lines)
        report.metrics_rows.extend(row for _, row in metrics_lines)
        if stream is not None:
            _write_lines(stream, lines)
        report.rows.extend(row for _, row in lines)

    def _replay_cached(i: int) -> None:
        """Emit scenario ``i`` from the entry it was served from."""
        source, entry = hits[hashes[i]]
        hits[hashes[i]] = (source, None)
        _emit(entry)
        report.skipped += 1
        _heartbeat(
            report, progress, event="scenario_cached",
            campaign=campaign.name, scenario=hashes[i],
            label=scenarios[i].label, index=i, of=len(scenarios),
            source=source,
        )

    def _record_simulated(entry: StoreEntry) -> None:
        """Emit a freshly simulated scenario's entry.

        Each row was encoded exactly once, into this entry, which both
        the JSONL line and the store are written from.
        """
        report.simulated += 1
        _emit(entry)
        if store is not None:
            store.put(entry)

    try:
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
    rate = {
        "wall_s": round(wall, 3), "sims": sims, "sims_per_s": _sims_per_s(sims, wall)
    }
    _heartbeat(
        report, progress, event="campaign_finish", campaign=campaign.name,
        workers=workers, **rate, simulated=report.simulated,
        skipped=report.skipped, rows=len(report.rows),
    )
    if out_path is not None:
        rows_tmp, metrics_tmp = generations[1]
        if not metrics_stream.wrote:
            # No telemetry row this run: a sidecar from an earlier
            # (differently-configured) run would be stale — remove it.
            metrics_out.unlink(missing_ok=True)
        if write_paths[0] == rows_tmp:
            os.replace(rows_tmp, out_path)
            if metrics_stream.wrote:
                os.replace(metrics_tmp, metrics_out)
        # The finished files cover whatever an interrupted run left.
        rows_tmp.unlink(missing_ok=True)
        metrics_tmp.unlink(missing_ok=True)
        _write_meta(
            out_path, campaign, workers, report.simulated,
            heartbeat=rate if sims else None,
            sources={h: source for h, (source, _) in hits.items()},
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
    its window, are emitted after it.  When the pending units that are
    not pure (see :attr:`~repro.sim.backends.EngineBackend.pure`) can
    fill every worker, they run one per task in one fork pool (at one
    worker each, so no load wave overshoots); each comes back in
    campaign order with its simulation count, which is credited here,
    and its heartbeat events, which are replayed where the serial loop
    emits them.  Pure units are solved here, in order, as ever.  With
    fewer units than workers each unit fans its own loads or batch
    across all of them.  With ``service`` set the coordinator
    leases the units, runs them in whatever order workers finish them,
    and hands them back here in campaign order.  With no unit pending,
    no coordinator, socket or pool is started and every scenario
    replays.
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

    def on_scenario(k: int, entry) -> None:
        nonlocal next_idx
        emit_cached_until(k)
        record_simulated(entry)
        next_idx = k + 1

    def heartbeat(**fields) -> None:
        _heartbeat(report, progress, **fields)

    units = partition_units(scenarios, pending)
    if service is not None and units:
        from repro.service.coordinator import Coordinator

        coordinator = Coordinator(
            campaign.name, scenarios, service, local_workers=workers,
            heartbeat=heartbeat,
        )
        coordinator.execute(units, on_scenario)
        emit_cached_until(len(scenarios))
        return
    # Lazy imports: the unit layer builds its rows with this module.
    from repro.service.store import StoreEntry
    from repro.service.units import UnitEntry, execute_unit

    def run_unit(unit, unit_workers: int, unit_heartbeat):
        kind, indices = unit
        entries = [UnitEntry(k, len(scenarios), scenarios[k]) for k in indices]
        return execute_unit(
            campaign.name, kind, entries, unit_workers, heartbeat=unit_heartbeat
        )

    def finish(unit, payloads) -> None:
        for k, p in zip(unit[1], payloads):
            on_scenario(k, StoreEntry(p["scenario"], p["rows"], p["metrics"]))

    def pure(unit) -> bool:
        # A pure sweep (``flow``) is solved in-process whatever
        # ``workers`` says; no closed batch is pure.
        return get_backend(scenarios[unit[1][0]].backend).pure

    pooled = [unit for unit in units if not pure(unit)]
    pool = resolve_workers(workers, sys.maxsize)  # not capped by units
    if not 1 < pool <= len(pooled):
        # One worker, or too few units to fill every worker: each unit
        # fans its own loads or batch across ``workers``.
        for unit in units:
            emit_cached_until(unit[1][0])
            finish(unit, run_unit(unit, workers, heartbeat)[0])
        emit_cached_until(len(scenarios))
        return
    # Every distinct topology and table is built here, once, and
    # inherited by the children the pool forks.
    for _, indices in pooled:
        for k in indices:
            resolve(scenarios[k])

    def run_in_child(unit):
        events: list[dict] = []
        payloads, sims = run_unit(unit, 1, lambda **fields: events.append(fields))
        return payloads, sims, events

    with _fork_map(run_in_child, pool) as pool_map:
        results = pool_map(pooled)
        for unit in units:
            emit_cached_until(unit[1][0])
            if pure(unit):
                # Here, while the children run the later units.
                payloads = run_unit(unit, workers, heartbeat)[0]
            else:
                payloads, sims, events = next(results)
                credit_simulations(sims)
                for fields in events:
                    heartbeat(**fields)
            finish(unit, payloads)
    emit_cached_until(len(scenarios))


def rows_by_label(report: CampaignReport) -> dict[str, list[dict]]:
    """Group a report's rows by scenario label, in first-seen order."""
    grouped: dict[str, list[dict]] = {}
    for row in report.rows:
        grouped.setdefault(row["label"], []).append(row)
    return grouped
