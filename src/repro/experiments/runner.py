"""CLI front-end: regenerate any table or figure from the paper.

    python -m repro.experiments --list
    python -m repro.experiments fig1 --scale quick
    python -m repro.experiments fig6 --pattern worstcase
    python -m repro.experiments all --scale quick --json results.json
    python -m repro.experiments campaign grid.json --workers 4 --resume
    python -m repro.experiments campaign grid.json --store ~/.cache/repro-store
    python -m repro.experiments campaign grid.json --service 127.0.0.1:7077
    python -m repro.experiments serve-worker 127.0.0.1:7077 --workers 4
    python -m repro.experiments report --out report/ --workers 4
    python -m repro.experiments report rows.jsonl --out report/

The ``report`` subcommand is the last mile: it consumes campaign JSONL
files (or, with none given, runs the standard figure-set campaigns
into ``<out>/data/`` with resume semantics) plus the analytic
cost/power experiments, and emits ``<out>/REPORT.md`` with
byte-deterministic SVG figures and per-figure provenance.

``campaign --service`` runs the scenario grid through the Layer-7
coordinator/worker scheduler (DESIGN.md): the coordinator listens on
the given address, ``serve-worker`` processes (any host) lease work
units from it, and the output stays byte-identical to a local run.
``--store`` plugs in the content-addressed result store so nothing is
ever simulated twice, on any machine that shares the store.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.experiments.common import Scale


def _lazy(modname: str, attr: str = "run", **fixed):
    """Deferred-import experiment entry with pre-bound keyword args.

    ``fixed`` is how figure variants are registered as plain campaign
    parameters (``pattern="uniform"``, ``what="cost"``) instead of
    bespoke wrapper closures; caller kwargs win on conflict.
    """

    def run(**kw):
        import importlib

        mod = importlib.import_module(f"repro.experiments.{modname}")
        return getattr(mod, attr)(**{**fixed, **kw})

    return run


#: experiment name -> (callable(scale, seed, **kw), description)
EXPERIMENTS = {
    "fig1": (_lazy("fig1_avg_hops"), "Fig 1: average hops vs network size"),
    "fig5a": (_lazy("fig5a_moore2"), "Fig 5a: Moore bound, diameter 2"),
    "fig5b": (_lazy("fig5b_moore3"), "Fig 5b: Moore bound, diameter 3"),
    "fig5c": (_lazy("fig5c_bisection"), "Fig 5c: bisection bandwidth"),
    "table2": (_lazy("table2_diameter"), "Table II: network diameters"),
    "table3": (_lazy("table3_disconnection"), "Table III: disconnection resiliency"),
    "res-diameter": (
        _lazy("resiliency_extra", "run_diameter"),
        "§III-D2: diameter-increase resiliency",
    ),
    "res-pathlen": (
        _lazy("resiliency_extra", "run_pathlen"),
        "§III-D3: path-length-increase resiliency",
    ),
    "fig6": (_lazy("fig6_performance"), "Fig 6: latency vs load (use --pattern)"),
    "fig6a": (_lazy("fig6_performance", pattern="uniform"),
              "Fig 6a: uniform random traffic"),
    "fig6b": (_lazy("fig6_performance", pattern="bitrev"),
              "Fig 6b: bit-reversal traffic"),
    "fig6c": (_lazy("fig6_performance", pattern="shift"), "Fig 6c: shift traffic"),
    "fig6d": (_lazy("fig6_performance", pattern="worstcase"),
              "Fig 6d: worst-case traffic"),
    "fig6-paper": (
        _lazy("fig6_performance", "run_paper"),
        "Fig 6 at paper scale (q=25 MMS, flow-level backend; use --pattern)",
    ),
    "fig8a": (
        _lazy("fig8_buffers_oversub", "run_buffers"),
        "Fig 8a: buffer-size study",
    ),
    "fig9": (
        _lazy("fig9_channel_load"),
        "Fig 9: channel-load distribution (telemetry probes)",
    ),
    "fig8-oversub": (
        _lazy("fig8_buffers_oversub", "run_oversub"),
        "Fig 8b-e: oversubscribed Slim Fly",
    ),
    "table4": (_lazy("table4_cost_power"), "Table IV: cost & power per node"),
    "costmodel": (
        _lazy("fig11_cost_power", what="models"),
        "Figs 11a/b-13a/b: cable & router cost models",
    ),
    "fig11-cost": (
        _lazy("fig11_cost_power", what="cost"),
        "Figs 11c/12c/13c: total network cost",
    ),
    "fig11-power": (
        _lazy("fig11_cost_power", what="power"),
        "Figs 11d/12d/13d: total network power",
    ),
    "workload_completion": (
        _lazy("workload_completion"),
        "Closed-loop collective/stencil completion time (use --workload)",
    ),
    "fault-degradation": (
        _lazy("fault_degradation"),
        "Performance under failure: latency/throughput vs dead-link fraction",
    ),
    "vc-counts": (_lazy("vc_counts"), "§IV-D: deadlock-freedom VC counts"),
    "ablate-ugal": (
        _lazy("ablations", "run_ugal_candidates"),
        "Ablation: UGAL candidate count (§IV-C)",
    ),
    "ablate-val": (
        _lazy("ablations", "run_val_maxhops"),
        "Ablation: Valiant path-length cap (§IV-B)",
    ),
    "ablate-xi": (
        _lazy("ablations", "run_primitive_element_invariance"),
        "Ablation: primitive-element invariance (§II-B1)",
    ),
}

#: Experiments whose simulation sweeps fan out over --workers.
#: fig6-paper accepts the flag for parity (the flow backend solves
#: in-process; rows are identical at any worker count).
PARALLEL_SWEEPS = {
    "fig6", "fig6a", "fig6b", "fig6c", "fig6d", "fig6-paper", "fig8a",
    "fig9", "fig8-oversub", "workload_completion", "fault-degradation",
}
#: Of those, the ones that also accept --replicas (per-point seed averaging).
REPLICATED_SWEEPS = {"fig6", "fig6a", "fig6b", "fig6c", "fig6d"}

#: Experiments included in `all` (fig6 via its four variants).
ALL_ORDER = [
    "fig1", "fig5a", "fig5b", "fig5c", "table2", "table3",
    "res-diameter", "res-pathlen", "fig6a", "fig6b", "fig6c", "fig6d",
    "fig8a", "fig9", "fig8-oversub", "workload_completion", "table4", "costmodel",
    "fig11-cost", "fig11-power", "vc-counts", "ablate-ugal", "ablate-val",
    "ablate-xi",
]


def _positive_int(value: str) -> int:
    n = int(value)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {n}")
    return n


def _nonnegative_int(value: str) -> int:
    n = int(value)
    if n < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Slim Fly paper's tables and figures, "
        "or run a declarative scenario campaign.",
    )
    parser.add_argument(
        "experiment",
        nargs="?",
        help="experiment id, 'all', 'campaign', 'serve-worker', or 'report'",
    )
    parser.add_argument(
        "files",
        nargs="*",
        help="campaign JSON file (with 'campaign'), coordinator HOST:PORT "
        "(with 'serve-worker'), or input data files (with 'report': "
        "campaign .jsonl rows and/or --json .json results)",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    parser.add_argument(
        "--scale",
        default="default",
        choices=[s.value for s in Scale],
        help="size preset (quick | default | paper)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--pattern", default="uniform", help="fig6 traffic pattern")
    parser.add_argument(
        "--workload",
        default="alltoall",
        help="workload_completion kind (alltoall | ring-allreduce | "
        "rd-allreduce | broadcast | gather | halo2d | halo3d | all)",
    )
    parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=1,
        help="simulation sweep processes for fig6/fig8/campaigns (0 = one per "
        "core, 1 = in-process; results are identical either way)",
    )
    parser.add_argument(
        "--replicas",
        type=_positive_int,
        default=1,
        help="seed replicas averaged per fig6 load point",
    )
    parser.add_argument(
        "--cable-model", default="mellanox-fdr10", help="cost-model cable product"
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the experiment results as a JSON list to PATH",
    )
    parser.add_argument(
        "--out",
        metavar="PATH",
        default=None,
        help="campaign row output (JSONL; default: <campaign>.results.jsonl) "
        "or the report output directory (required for 'report')",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed scenarios already present in the campaign output",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="campaign: stream heartbeat events (scenario start/finish, "
        "wall-clock, sims/sec) to stderr as JSON lines",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="campaign: content-addressed result store (directory path, or a "
        "file:/memory: URL) — cache hits replay without simulating, fresh "
        "results are written back",
    )
    parser.add_argument(
        "--service",
        metavar="ADDR",
        default=None,
        help="campaign: dispatch through the coordinator/worker scheduler, "
        "listening on ADDR ([HOST:]PORT; port 0 picks an ephemeral port, "
        "printed to stderr); point serve-worker processes at it",
    )
    parser.add_argument(
        "--retry-for",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="serve-worker: keep retrying the initial connect this long "
        "(workers may start before their coordinator)",
    )
    parser.add_argument(
        "--fail-after",
        type=_positive_int,
        default=None,
        metavar="N",
        help="serve-worker: SIGKILL this worker on its N-th lease "
        "(deterministic fault injection for tests/CI)",
    )
    parser.add_argument(
        "--no-analytics",
        action="store_true",
        help="report: skip the analytic cost/power figures",
    )
    parser.add_argument(
        "--png",
        action="store_true",
        help="report: additionally render PNG figures (requires matplotlib)",
    )
    return parser


def run_experiment(name: str, scale, seed: int, **kw):
    fn, _ = EXPERIMENTS[name]
    return fn(scale=scale, seed=seed, **kw)


def _run_campaign_cli(args) -> int:
    from repro.scenarios import Campaign, run_campaign

    if not args.files:
        print("campaign needs a JSON file argument", file=sys.stderr)
        return 2
    if len(args.files) > 1:
        print(
            f"campaign takes exactly one JSON file, got {len(args.files)} "
            f"(run several campaigns as separate invocations)",
            file=sys.stderr,
        )
        return 2
    if args.json:
        # Campaigns stream JSONL rows via --out; silently dropping the
        # flag would look like the results were written.
        print(
            "--json applies to experiments; campaigns write rows to --out",
            file=sys.stderr,
        )
        return 2
    if args.no_analytics or args.png:
        print("--no-analytics/--png apply to the 'report' subcommand only",
              file=sys.stderr)
        return 2
    # Everything but --workers/--out/--resume/--store/--service is
    # baked into the spec file; silently dropping a flag would
    # misrepresent the rows.
    ignored = [
        flag
        for flag, value, default in (
            ("--scale", args.scale, "default"),
            ("--seed", args.seed, 0),
            ("--pattern", args.pattern, "uniform"),
            ("--workload", args.workload, "alltoall"),
            ("--replicas", args.replicas, 1),
            ("--cable-model", args.cable_model, "mellanox-fdr10"),
            ("--retry-for", args.retry_for, 10.0),
            ("--fail-after", args.fail_after, None),
        )
        if value != default
    ]
    if ignored:
        print(
            f"{', '.join(ignored)} cannot apply to a campaign — those axes "
            "live in the campaign JSON; edit the spec instead",
            file=sys.stderr,
        )
        return 2
    path = Path(args.files[0])
    if not path.exists():
        print(f"no such campaign file: {path}", file=sys.stderr)
        return 2
    try:
        campaign = Campaign.load(path)
    except ValueError as exc:  # JSON syntax errors included
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2
    out = args.out or str(path.with_suffix("")) + ".results.jsonl"
    service = None
    if args.service is not None:
        from repro.service.coordinator import ServiceConfig

        try:
            host, port = _parse_bind(args.service)
        except ValueError as exc:
            print(str(exc), file=sys.stderr)
            return 2
        service = ServiceConfig(
            host=host,
            port=port,
            on_bound=lambda h, p: print(
                f"[service] coordinator listening on {h}:{p}",
                file=sys.stderr,
                flush=True,
            ),
        )
    start = time.time()
    report = run_campaign(
        campaign, workers=args.workers, out=out, resume=args.resume,
        progress=args.progress, store=args.store, service=service,
    )
    print(report.summary())
    print(f"[campaign finished in {time.time() - start:.1f}s]")
    return 0


def _parse_bind(value: str) -> tuple[str, int]:
    """A coordinator bind address: HOST:PORT or a bare PORT."""
    from repro.service.worker import parse_address

    if ":" in value:
        return parse_address(value)
    if value.isdigit():
        return "127.0.0.1", int(value)
    raise ValueError(f"--service takes [HOST:]PORT, got {value!r}")


def _serve_worker_cli(args) -> int:
    from repro.scenarios.spec import canonical_json
    from repro.service.worker import serve_worker

    if len(args.files) != 1:
        print("serve-worker needs exactly one HOST:PORT argument", file=sys.stderr)
        return 2
    # serve-worker executes leases as-shipped; every flag that shapes
    # *what* runs belongs to the coordinator side and is rejected
    # loudly, mirroring the campaign subcommand's strictness.
    ignored = [
        flag
        for flag, value, default in (
            ("--scale", args.scale, "default"),
            ("--seed", args.seed, 0),
            ("--pattern", args.pattern, "uniform"),
            ("--workload", args.workload, "alltoall"),
            ("--replicas", args.replicas, 1),
            ("--cable-model", args.cable_model, "mellanox-fdr10"),
            ("--json", args.json, None),
            ("--out", args.out, None),
            ("--resume", args.resume, False),
            ("--store", args.store, None),
            ("--service", args.service, None),
            ("--no-analytics", args.no_analytics, False),
            ("--png", args.png, False),
        )
        if value != default
    ]
    if ignored:
        print(
            f"{', '.join(ignored)} cannot apply to serve-worker — a worker "
            "only executes the leases its coordinator ships",
            file=sys.stderr,
        )
        return 2
    progress = None
    if args.progress:
        progress = lambda event: print(  # noqa: E731
            canonical_json(event), file=sys.stderr, flush=True
        )
    try:
        served = serve_worker(
            args.files[0],
            workers=args.workers,
            retry_for=args.retry_for,
            fail_after=args.fail_after,
            progress=progress,
        )
    except ValueError as exc:  # bad address
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"serve-worker: {exc}", file=sys.stderr)
        return 1
    print(f"[serve-worker done: {served} lease(s) completed]")
    return 0


def _run_report_cli(args) -> int:
    from repro.analysis.figures import HAVE_MATPLOTLIB
    from repro.analysis.report import build_report

    if not args.out:
        print("report needs --out <directory>", file=sys.stderr)
        return 2
    if Path(args.out).exists() and not Path(args.out).is_dir():
        print(f"--out must be a directory, and {args.out} is a file",
              file=sys.stderr)
        return 2
    if args.png and not HAVE_MATPLOTLIB:
        # Fail before the (potentially long) simulations, not after.
        print(
            "--png needs matplotlib, which is not installed; the SVG "
            "backend needs no extra dependencies",
            file=sys.stderr,
        )
        return 2
    # Axes that cannot apply to report rendering are rejected loudly,
    # mirroring the campaign subcommand's strictness.
    ignored = [
        flag
        for flag, value, default in (
            ("--json", args.json, None),
            ("--resume", args.resume, False),
            ("--progress", args.progress, False),
            ("--pattern", args.pattern, "uniform"),
            ("--workload", args.workload, "alltoall"),
            ("--replicas", args.replicas, 1),
            ("--store", args.store, None),
            ("--service", args.service, None),
            ("--retry-for", args.retry_for, 10.0),
            ("--fail-after", args.fail_after, None),
        )
        if value != default
    ]
    if ignored:
        print(
            f"{', '.join(ignored)} cannot apply to 'report' (campaigns "
            "resume automatically; other axes live in the input files)",
            file=sys.stderr,
        )
        return 2
    if args.no_analytics and args.cable_model != "mellanox-fdr10":
        print(
            "--cable-model applies to the analytic cost figure, which "
            "--no-analytics skips",
            file=sys.stderr,
        )
        return 2
    if args.files and args.no_analytics and (
        args.scale != "default" or args.seed != 0
    ):
        # With input files and no analytics nothing consumes these
        # axes — same loud-rejection rule as the flags above.
        print(
            "--scale/--seed only apply to simulations and analytic "
            "figures; with input files and --no-analytics neither runs",
            file=sys.stderr,
        )
        return 2
    missing = [f for f in args.files if not Path(f).exists()]
    if missing:
        print(f"no such input file(s): {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.files and args.workers != 1:
        # With input files nothing simulates, so the flag would be
        # silently dropped — same loud-rejection rule as above.
        print(
            "--workers only applies when report runs the default campaigns "
            "(no input files); the given files already hold the rows",
            file=sys.stderr,
        )
        return 2
    # Unknown suffixes are rejected inside build_report (before any
    # simulation); its ValueError becomes the exit-2 diagnostic below.
    formats = ("svg", "png") if args.png else ("svg",)
    start = time.time()
    try:
        result = build_report(
            args.files,
            args.out,
            scale=args.scale,
            seed=args.seed,
            workers=args.workers,
            analytics=not args.no_analytics,
            cable_model=args.cable_model,
            formats=formats,
        )
    except ValueError as exc:
        # Malformed inputs (e.g. a campaign spec passed as a results
        # file) get the same clean exit-2 diagnostic as flag misuse.
        print(str(exc), file=sys.stderr)
        return 2
    print(result.summary())
    print(f"[report finished in {time.time() - start:.1f}s]")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.experiment:
        width = max(len(k) for k in EXPERIMENTS)
        for key, (_, desc) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {desc}")
        print(
            "\nsubcommands: campaign <grid.json> [--workers N] [--resume] "
            "[--store PATH] [--service ADDR]  |  "
            "serve-worker <host:port> [--workers N]  |  "
            "report [data.jsonl ...] --out <dir>"
        )
        return 0

    if args.experiment == "campaign":
        return _run_campaign_cli(args)
    if args.experiment == "serve-worker":
        return _serve_worker_cli(args)
    if args.experiment == "report":
        return _run_report_cli(args)
    if args.out or args.resume:
        print(
            "--out/--resume apply to the 'campaign' and 'report' subcommands only",
            file=sys.stderr,
        )
        return 2
    if args.store or args.service:
        print("--store/--service apply to the 'campaign' subcommand only",
              file=sys.stderr)
        return 2
    if args.retry_for != 10.0 or args.fail_after is not None:
        print("--retry-for/--fail-after apply to the 'serve-worker' "
              "subcommand only", file=sys.stderr)
        return 2
    if args.progress:
        print("--progress applies to the 'campaign' and 'serve-worker' "
              "subcommands only", file=sys.stderr)
        return 2
    if args.no_analytics or args.png:
        print("--no-analytics/--png apply to the 'report' subcommand only",
              file=sys.stderr)
        return 2
    if args.files:
        # Only 'campaign'/'report' take extra positionals; catching it
        # here keeps e.g. `fig6 worstcase` (forgotten --pattern) loud.
        print(
            f"unexpected argument {args.files[0]!r} "
            f"(only 'campaign' and 'report' take file arguments)",
            file=sys.stderr,
        )
        return 2

    targets = ALL_ORDER if args.experiment == "all" else [args.experiment]
    results = []
    for name in targets:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; --list shows options", file=sys.stderr)
            return 2
        kw = {}
        if name in ("fig6", "fig6-paper"):
            kw["pattern"] = args.pattern
        if name == "workload_completion":
            kw["workload"] = args.workload
        if name in ("table4", "fig11-cost"):
            kw["cable_model"] = args.cable_model
        if name in PARALLEL_SWEEPS:
            kw["workers"] = args.workers
        if name in REPLICATED_SWEEPS and args.replicas != 1:
            kw["replicas"] = args.replicas
        start = time.time()
        result = run_experiment(name, args.scale, args.seed, **kw)
        results.append(result)
        print(result.render())
        print(f"[{name} finished in {time.time() - start:.1f}s]\n")
    if args.json:
        Path(args.json).write_text(
            json.dumps([r.to_dict() for r in results], indent=2) + "\n"
        )
        print(f"[wrote {len(results)} result(s) to {args.json}]")
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
