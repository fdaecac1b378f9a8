"""The four benchmark workloads: generated specs, set-up and run phases.

Every workload is one batch job from one client (a closed loop with one
outstanding campaign) that uses at most two worker processes or
sockets.  The benchmark seed goes into every seed field of every
generated scenario; the program under test only ever receives the
generated :class:`~repro.scenarios.Campaign` objects.

Each workload is split the way a user pays for it:

- :func:`setup` imports nothing itself (the caller times the imports),
  builds the campaigns and resolves every scenario the run phase
  simulates in-process, so topology and routing-table construction is
  set-up work, not run work;
- :func:`run` executes the campaigns and returns where the outputs
  landed, for :func:`scenario_digests` to check.

``size="tiny"`` keeps every campaign's shape (engines, topologies,
protocols, row families) while shrinking run lengths; the harness tests
use it to check that each layer fires without paying for a full run.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    WorkloadSpec,
    resolve,
    run_campaign,
)
from repro.scenarios.runner import metrics_path_for
from repro.sim.config import SimConfig
from repro.sim.telemetry import TelemetrySpec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

WORKLOADS = ("report-quick", "paper-flow", "paper-replay", "service-mixed")
#: The load model's process budget: two cores, so two pool workers or
#: two serve-workers, never more.
WORKERS = 2


def _cycles(size: str) -> SimConfig:
    if size == "tiny":
        return SimConfig(warmup_cycles=10, measure_cycles=20, drain_cycles=80)
    return SimConfig(warmup_cycles=25, measure_cycles=50, drain_cycles=150)


def _trio(seed: int):
    """The §V protocol grid on the quick-scale SF/DF/FT-3 trio."""
    sf = TopologySpec("SF", params={"q": 5})
    df = TopologySpec("DF", params={"h": 3})
    ft = TopologySpec("FT-3", params={"p": 6})
    return [
        ("SF-MIN", sf, RoutingSpec("min")),
        ("SF-VAL", sf, RoutingSpec("val", {"seed": seed})),
        ("SF-UGAL-L", sf, RoutingSpec("ugal-l", {"seed": seed})),
        ("SF-UGAL-G", sf, RoutingSpec("ugal-g", {"seed": seed})),
        ("DF-UGAL-L", df, RoutingSpec("df-ugal-l", {"seed": seed})),
        ("FT-ANCA", ft, RoutingSpec("ft-anca", {"seed": seed})),
    ]


def report_campaigns(seed: int, size: str = "full") -> list[Campaign]:
    """The report's five figure families, shortened (see README).

    Same 20 scenarios as ``report --scale quick`` (SF q=5 on the flat
    engine, DF h=3 and FT-3 p=6 on ``cycle-vec``, telemetry for the
    channel-load panel, one closed-loop batch) with two loads per
    sweep and shorter windows.
    """
    cfg = replace(_cycles(size), seed=seed)
    trio = _trio(seed)
    sf5 = trio[0][1]
    ugal = RoutingSpec("ugal-l", {"seed": seed})
    fig6 = Campaign("fig6-uniform-bench", [
        Scenario(topology=t, routing=r, sim=cfg, traffic=TrafficSpec("uniform"),
                 loads=[0.1, 0.3], stop_after_saturation=2, label=name)
        for name, t, r in trio
    ])
    buffers = Campaign("fig8a-bench", [
        Scenario(topology=sf5, routing=ugal, sim=replace(cfg, buffer_per_port=b),
                 traffic=TrafficSpec("worstcase", seed=seed), loads=[0.05, 0.15],
                 stop_after_saturation=2, label=f"{b} flits")
        for b in (16, 64, 256)
    ])
    oversub = Campaign("fig8-oversub-bench", [
        Scenario(topology=TopologySpec("SF", params={"q": 5, "concentration": p}),
                 routing=RoutingSpec("min"), sim=cfg, traffic=TrafficSpec("uniform"),
                 loads=[0.1, 0.3], stop_after_saturation=2, label=f"p={p}")
        for p in (4, 5, 6)
    ])
    fig9 = Campaign("fig9-bench", [
        Scenario(topology=t, routing=r, sim=cfg,
                 traffic=TrafficSpec("worstcase", seed=seed), loads=[0.3],
                 label=name, telemetry=TelemetrySpec.full())
        for name, t, r in trio
        if name in ("SF-MIN", "SF-UGAL-L", "DF-UGAL-L")
    ])
    completion = Campaign("workload-completion-alltoall-bench", [
        Scenario(topology=t, routing=r, sim=cfg,
                 workload=WorkloadSpec("alltoall", ranks=24, size_flits=8,
                                       iterations=1),
                 max_cycles=300_000, label=f"{name}/alltoall")
        for name, t, r in trio
        if name != "SF-UGAL-G"
    ])
    return [fig6, buffers, oversub, fig9, completion]


#: Flow-level shapes: (SF q, DF h, FT-3 p).  The paper-scale trio
#: (q=25, h=9, p=29) needs ~1.2 GB and ~14 s per pass; these keep the
#: same three families at the largest size that fits the run budget.
FLOW_SHAPES = {"full": (17, 6, 16), "tiny": (5, 3, 6)}


def paper_campaign(seed: int, size: str = "full") -> Campaign:
    """The flow-level Fig 6 trio with every telemetry probe armed."""
    q, h, p = FLOW_SHAPES[size]
    sf = TopologySpec("SF", params={"q": q})
    df = TopologySpec("DF", params={"h": h})
    ft = TopologySpec("FT-3", params={"p": p})
    rows = [
        ("SF-MIN", sf, RoutingSpec("min")),
        ("SF-VAL", sf, RoutingSpec("val", {"seed": seed})),
        ("SF-UGAL-L", sf, RoutingSpec("ugal-l", {"seed": seed})),
        ("DF-UGAL-L", df, RoutingSpec("df-ugal-l", {"seed": seed})),
        ("FT-ANCA", ft, RoutingSpec("ft-anca", {"seed": seed})),
    ]
    loads = [round(0.95 / 8 * (i + 1), 4) for i in range(8)]
    return Campaign("fig6-paper-uniform-bench", [
        Scenario(topology=t, routing=r, sim=SimConfig(seed=seed),
                 traffic=TrafficSpec("uniform"), loads=loads,
                 stop_after_saturation=len(loads), label=name,
                 backend="flow", telemetry=TelemetrySpec.full())
        for name, t, r in rows
    ])


def service_campaign(seed: int, size: str = "full") -> Campaign:
    """SF q=7 open sweeps plus three collectives, for the service path."""
    cfg = replace(_cycles(size), seed=seed)
    sf7 = TopologySpec("SF", params={"q": 7})
    routings = [RoutingSpec("min"), RoutingSpec("val", {"seed": seed}),
                RoutingSpec("ugal-l", {"seed": seed})]
    scenarios = [
        Scenario(topology=sf7, routing=routing, sim=cfg,
                 traffic=TrafficSpec(pattern, seed=seed), loads=[0.2, 0.5],
                 stop_after_saturation=2, label=f"{routing.name}/{pattern}")
        for routing in routings
        for pattern in ("uniform", "worstcase")
    ]
    scenarios += [
        Scenario(topology=sf7, routing=RoutingSpec("min"), sim=cfg,
                 workload=WorkloadSpec(kind, ranks=64, size_flits=8, iterations=1),
                 max_cycles=300_000, label=f"min/{kind}")
        for kind in ("ring-allreduce", "alltoall", "halo2d")
    ]
    return Campaign("service-mixed-bench", scenarios)


def campaigns(workload: str, seed: int, size: str = "full") -> list[Campaign]:
    """The generated campaigns a workload hands to the program."""
    if workload == "report-quick":
        return report_campaigns(seed, size)
    if workload in ("paper-flow", "paper-replay"):
        return [paper_campaign(seed, size)]
    if workload == "service-mixed":
        return [service_campaign(seed, size)]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def setup(workload: str, seed: int, size: str = "full") -> list[Campaign]:
    """Build the campaigns; resolve what the run phase simulates here.

    ``paper-replay`` simulates nothing and ``service-mixed`` simulates
    in its serve-workers, so neither resolves anything in-process.
    """
    camps = campaigns(workload, seed, size)
    if workload in ("report-quick", "paper-flow"):
        for campaign in camps:
            for scenario in campaign.scenarios:
                resolve(scenario)
    return camps


@dataclass
class RunOutput:
    """Where a run phase left its rows, plus service health."""

    #: Campaign JSONL files (their ``.metrics.jsonl`` sidecars ride along).
    row_files: list[Path] = field(default_factory=list)
    #: Heartbeat events of every campaign report, in order.
    events: list[dict] = field(default_factory=list)
    worker_exit_codes: list[int] = field(default_factory=list)
    #: Store entries that failed their integrity check on read.
    quarantined: int = 0
    #: Correctness problems found by the run itself (not by digests).
    problems: list[str] = field(default_factory=list)


def run(workload: str, camps: list[Campaign], workdir: Path,
        fixture: Path | None = None, worker_cmd=None) -> RunOutput:
    """Execute one workload's run phase inside ``workdir``.

    ``fixture`` is the run directory a ``paper-flow`` pass filled (store
    and rows), which ``paper-replay`` reads; ``worker_cmd(address)``
    returns the command line of one serve-worker.
    """
    from repro.analysis.report import build_report
    from repro.service.store import FileResultStore

    out = RunOutput()
    workdir.mkdir(parents=True, exist_ok=True)
    if workload == "report-quick":
        for campaign in camps:
            path = workdir / "data" / f"{campaign.name}.jsonl"
            path.parent.mkdir(exist_ok=True)
            report = run_campaign(campaign, workers=WORKERS, out=path)
            out.events += report.events
            out.row_files.append(path)
        if not build_report(out.row_files, workdir, scale="quick").figures:
            out.problems.append("report rendered no figures")
    elif workload in ("paper-flow", "paper-replay"):
        (campaign,) = camps
        replay = workload == "paper-replay"
        store = FileResultStore((fixture if replay else workdir) / "store")
        path = workdir / "rows.jsonl"
        report = run_campaign(campaign, workers=1, out=path, store=store)
        out.events += report.events
        out.row_files.append(path)
        out.quarantined = len(store.quarantined())
        if replay:
            _check_replay(report, len(campaign), workdir, fixture, out)
            build_report([path], workdir / "report", analytics=False)
    elif workload == "service-mixed":
        _run_service(camps[0], workdir, out, worker_cmd)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def _check_replay(report, scenarios: int, workdir: Path, fixture: Path,
                  out: RunOutput) -> None:
    """A replay simulates nothing and writes paper-flow's exact bytes."""
    if report.simulated or report.store_hits != scenarios:
        out.problems.append(
            f"replay simulated {report.simulated} scenarios and hit the "
            f"store {report.store_hits} of {scenarios} times"
        )
    rows = Path("rows.jsonl")
    for name in (rows, metrics_path_for(rows)):
        if (workdir / name).read_bytes() != (fixture / name).read_bytes():
            out.problems.append(f"replayed {name} differs from paper-flow's")


def _run_service(campaign: Campaign, workdir: Path, out: RunOutput,
                 worker_cmd) -> None:
    """The campaign through an in-process coordinator and two workers."""
    from repro.service.coordinator import ServiceConfig

    procs: list[subprocess.Popen] = []
    inherited = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in inherited if p]
    ))

    def spawn(host: str, port: int) -> None:
        for i in range(WORKERS):
            with open(workdir / f"worker-{i}.log", "w") as log:
                procs.append(subprocess.Popen(
                    worker_cmd(f"{host}:{port}"), env=env, cwd=workdir,
                    stdout=log, stderr=subprocess.STDOUT,
                ))

    service = ServiceConfig(port=0, wait_for_workers=30.0, on_bound=spawn)
    path = workdir / "rows.jsonl"
    try:
        report = run_campaign(campaign, workers=1, out=path, service=service)
    finally:
        codes = []
        for proc in procs:
            try:
                codes.append(proc.wait(timeout=60))
            except subprocess.TimeoutExpired:
                proc.kill()
                codes.append(proc.wait())
    out.events += report.events
    out.row_files.append(path)
    out.worker_exit_codes = codes


def serve_worker_cmd(address: str) -> list[str]:
    """The stock serve-worker command line (untraced runs)."""
    return [sys.executable, "-m", "repro.experiments", "serve-worker", address,
            "--workers", "1", "--retry-for", "30"]


def service_health(events: list[dict]) -> dict:
    """Service events that signal trouble without failing any row."""
    counts = {"worker_dead": 0, "lease_retries": 0, "local_fallbacks": 0}
    reasons = []
    for event in events:
        kind = event.get("event")
        if kind == "worker_dead":
            counts["worker_dead"] += 1
            reasons.append(event.get("reason"))
        elif kind == "lease_retry":
            counts["lease_retries"] += 1
        elif kind == "unit_local_fallback":
            counts["local_fallbacks"] += 1
    counts["worker_dead_reasons"] = reasons
    return counts


def scenario_digests(row_files: list[Path]) -> dict[str, str]:
    """sha256 per scenario over its result rows plus its sidecar rows.

    Keys are ``<campaign>/<scenario hash>``; the digest covers the row
    lines exactly as written, then the telemetry sidecar lines, so any
    change to a value, a key or the encoding shows.
    """
    lines: dict[str, list[bytes]] = {}
    for path in row_files:
        for source in (path, metrics_path_for(path)):
            if not source.exists():
                continue
            for line in source.read_bytes().splitlines():
                try:
                    row = json.loads(line)
                    key = f"{row['campaign']}/{row['scenario']}"
                except (ValueError, KeyError, TypeError):
                    key = f"{path.name}/unparseable"
                lines.setdefault(key, []).append(line)
    return {
        key: hashlib.sha256(b"\n".join(body)).hexdigest()
        for key, body in sorted(lines.items())
    }


def platform_tag() -> str:
    """What a scenario digest depends on besides its inputs.

    Floating-point rows (the flow solver's matrix products and
    reductions) can differ in the last bit across CPU vector extensions
    and library versions, so a pin binds only on the platform that
    recorded it.
    """
    import numpy
    import scipy

    try:
        simd = numpy.show_config(mode="dicts")["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        simd = ["unknown"]
    return (f"{platform.machine()} python-{platform.python_version()} "
            f"numpy-{numpy.__version__} scipy-{scipy.__version__} "
            f"simd-{'+'.join(simd)}")


def expected_keys(camps: list[Campaign]) -> list[str]:
    """The digest key every scenario of the campaigns must produce."""
    return sorted(f"{c.name}/{s.hash()}" for c in camps for s in c.dedup())
