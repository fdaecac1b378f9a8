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

Each command takes only its own flags, and ``<command> --help`` lists
them.  Every experiment takes ``--scale``, ``--seed`` and ``--json``
plus the options its :data:`EXPERIMENTS` entry declares; ``all`` takes
the union of its members' options and hands each one only to the
members that declare it.  A flag the command does not take is a usage
error (exit 2), never silently ignored.

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
import importlib
import json
import sys
import time
from pathlib import Path

from repro.experiments.common import Scale


class _lazy:
    """Deferred-import experiment entry with pre-bound keyword args.

    ``fixed`` is how figure variants are registered as plain campaign
    parameters (``pattern="uniform"``, ``what="cost"``) instead of
    bespoke wrapper closures; caller kwargs win on conflict.  Nothing
    is imported until the entry runs, so parsing loads no figure module.
    """

    def __init__(self, modname: str, attr: str = "run", **fixed):
        self.modname, self.attr, self.fixed = modname, attr, fixed

    def function(self):
        """The experiment function this entry defers to."""
        module = importlib.import_module(f"repro.experiments.{self.modname}")
        return getattr(module, self.attr)

    def __call__(self, **kw):
        return self.function()(**{**self.fixed, **kw})


#: experiment name -> (callable(scale, seed, **kw), description, the
#: options it takes besides --scale, --seed and --json)
EXPERIMENTS = {
    "fig1": (_lazy("fig1_avg_hops"), "Fig 1: average hops vs network size", ()),
    "fig5a": (_lazy("fig5a_moore2"), "Fig 5a: Moore bound, diameter 2", ()),
    "fig5b": (_lazy("fig5b_moore3"), "Fig 5b: Moore bound, diameter 3", ()),
    "fig5c": (_lazy("fig5c_bisection"), "Fig 5c: bisection bandwidth", ()),
    "table2": (_lazy("table2_diameter"), "Table II: network diameters", ()),
    "table3": (
        _lazy("table3_disconnection"), "Table III: disconnection resiliency", ()
    ),
    "res-diameter": (
        _lazy("resiliency_extra", "run_diameter"),
        "§III-D2: diameter-increase resiliency",
        (),
    ),
    "res-pathlen": (
        _lazy("resiliency_extra", "run_pathlen"),
        "§III-D3: path-length-increase resiliency",
        (),
    ),
    "fig6": (
        _lazy("fig6_performance"),
        "Fig 6: latency vs load (use --pattern)",
        ("pattern", "workers", "replicas"),
    ),
    "fig6a": (
        _lazy("fig6_performance", pattern="uniform"),
        "Fig 6a: uniform random traffic",
        ("workers", "replicas"),
    ),
    "fig6b": (
        _lazy("fig6_performance", pattern="bitrev"),
        "Fig 6b: bit-reversal traffic",
        ("workers", "replicas"),
    ),
    "fig6c": (
        _lazy("fig6_performance", pattern="shift"),
        "Fig 6c: shift traffic",
        ("workers", "replicas"),
    ),
    "fig6d": (
        _lazy("fig6_performance", pattern="worstcase"),
        "Fig 6d: worst-case traffic",
        ("workers", "replicas"),
    ),
    # --workers for parity with fig6: the flow backend solves
    # in-process, and rows are identical at any worker count.
    "fig6-paper": (
        _lazy("fig6_performance", "run_paper"),
        "Fig 6 at paper scale (q=25 MMS, flow-level backend; use --pattern)",
        ("pattern", "workers"),
    ),
    "fig8a": (
        _lazy("fig8_buffers_oversub", "run_buffers"),
        "Fig 8a: buffer-size study",
        ("workers",),
    ),
    "fig9": (
        _lazy("fig9_channel_load"),
        "Fig 9: channel-load distribution (telemetry probes)",
        ("workers",),
    ),
    "fig8-oversub": (
        _lazy("fig8_buffers_oversub", "run_oversub"),
        "Fig 8b-e: oversubscribed Slim Fly",
        ("workers",),
    ),
    "table4": (
        _lazy("table4_cost_power"),
        "Table IV: cost & power per node",
        ("cable_model",),
    ),
    "costmodel": (
        _lazy("fig11_cost_power", what="models"),
        "Figs 11a/b-13a/b: cable & router cost models",
        (),
    ),
    "fig11-cost": (
        _lazy("fig11_cost_power", what="cost"),
        "Figs 11c/12c/13c: total network cost",
        ("cable_model",),
    ),
    "fig11-power": (
        _lazy("fig11_cost_power", what="power"),
        "Figs 11d/12d/13d: total network power",
        (),
    ),
    "workload_completion": (
        _lazy("workload_completion"),
        "Closed-loop collective/stencil completion time (use --workload)",
        ("workload", "workers"),
    ),
    "fault-degradation": (
        _lazy("fault_degradation"),
        "Performance under failure: latency/throughput vs dead-link fraction",
        ("workers",),
    ),
    "vc-counts": (_lazy("vc_counts"), "§IV-D: deadlock-freedom VC counts", ()),
    "ablate-ugal": (
        _lazy("ablations", "run_ugal_candidates"),
        "Ablation: UGAL candidate count (§IV-C)",
        (),
    ),
    "ablate-val": (
        _lazy("ablations", "run_val_maxhops"),
        "Ablation: Valiant path-length cap (§IV-B)",
        (),
    ),
    "ablate-xi": (
        _lazy("ablations", "run_primitive_element_invariance"),
        "Ablation: primitive-element invariance (§II-B1)",
        (),
    ),
}

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


#: Options that more than one command takes, by destination name (the
#: flag is ``--`` plus the name with dashes); each default is written
#: here once.
_OPTIONS = {
    "scale": dict(
        default="default",
        choices=[s.value for s in Scale],
        help="size preset (quick | default | paper)",
    ),
    "seed": dict(type=int, default=0),
    "json": dict(
        metavar="PATH",
        help="also write the experiment results as a JSON list to PATH",
    ),
    "pattern": dict(default="uniform", help="traffic pattern"),
    "workload": dict(
        default="alltoall",
        help="workload kind (alltoall | ring-allreduce | rd-allreduce | "
        "broadcast | gather | halo2d | halo3d | all)",
    ),
    "workers": dict(
        type=_nonnegative_int,
        default=1,
        help="simulation processes (0 = one per core, 1 = in-process; "
        "results are identical either way)",
    ),
    "replicas": dict(
        type=_positive_int,
        default=1,
        help="seed replicas averaged per load point",
    ),
    "cable_model": dict(default="mellanox-fdr10", help="cost-model cable product"),
    "progress": dict(
        action="store_true",
        help="stream heartbeat events (scenario start/finish, wall-clock, "
        "sims/sec) to stderr as JSON lines",
    ),
}

#: Options every experiment takes.
_EXPERIMENT_OPTIONS = ("scale", "seed", "json")


def _flag(dest: str) -> str:
    return "--" + dest.replace("_", "-")


def _changed(args, *dests: str) -> list[str]:
    """The flags among ``dests`` whose value is not their default."""
    return [
        _flag(d) for d in dests if getattr(args, d) != _OPTIONS[d].get("default")
    ]


class _CommandParser(argparse.ArgumentParser):
    """A command's parser: a flag the command does not take is reported
    under the command's own usage line, which lists the flags it does."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extra = super().parse_known_args(args, namespace)
        if extra:
            self.error(f"unrecognized arguments: {' '.join(extra)}")
        return namespace, extra


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the Slim Fly paper's tables and figures, "
        "or run a declarative scenario campaign.",
    )
    parser.add_argument("--list", action="store_true", help="list experiments")
    commands = parser.add_subparsers(
        dest="command", metavar="command", parser_class=_CommandParser
    )

    def command(name, description, run, *options):
        sub = commands.add_parser(name, help=description, description=description)
        for dest in options:
            sub.add_argument(_flag(dest), **_OPTIONS[dest])
        sub.set_defaults(run=run)
        return sub

    for name, (_, description, options) in EXPERIMENTS.items():
        command(name, description, _run_experiments, *_EXPERIMENT_OPTIONS, *options)
    command(
        "all", "every table and figure in turn (fig6 as fig6a-fig6d)",
        _run_experiments, *_EXPERIMENT_OPTIONS,
        *dict.fromkeys(o for name in ALL_ORDER for o in EXPERIMENTS[name][2]),
    )

    campaign = command(
        "campaign", "run a declarative scenario campaign",
        _run_campaign_cli, "workers", "progress",
    )
    campaign.add_argument("file", help="campaign JSON file")
    campaign.add_argument(
        "--out",
        metavar="PATH",
        help="row output (JSONL; default: <campaign>.results.jsonl)",
    )
    campaign.add_argument(
        "--resume",
        action="store_true",
        help="reuse completed scenarios already present in the campaign output",
    )
    campaign.add_argument(
        "--store",
        metavar="PATH",
        help="content-addressed result store (directory path, or a "
        "file:/memory: URL) — cache hits replay without simulating, fresh "
        "results are written back",
    )
    campaign.add_argument(
        "--service",
        metavar="ADDR",
        help="dispatch through the coordinator/worker scheduler, "
        "listening on ADDR ([HOST:]PORT; port 0 picks an ephemeral port, "
        "printed to stderr); point serve-worker processes at it",
    )

    worker = command(
        "serve-worker", "execute the work units a campaign coordinator leases",
        _serve_worker_cli, "workers", "progress",
    )
    worker.add_argument("address", metavar="HOST:PORT", help="coordinator address")
    worker.add_argument(
        "--retry-for",
        type=float,
        default=10.0,
        metavar="SECONDS",
        help="keep retrying the initial connect this long "
        "(workers may start before their coordinator)",
    )
    worker.add_argument(
        "--fail-after",
        type=_positive_int,
        metavar="N",
        help="SIGKILL this worker on its N-th lease "
        "(deterministic fault injection for tests/CI)",
    )

    report = command(
        "report", "render REPORT.md and its figures",
        _run_report_cli, "scale", "seed", "workers", "cable_model",
    )
    report.add_argument(
        "files",
        nargs="*",
        help="input data files: campaign .jsonl rows and/or --json .json "
        "results (none: run the standard campaigns)",
    )
    report.add_argument(
        "--out", required=True, metavar="DIR", help="report output directory"
    )
    report.add_argument(
        "--no-analytics",
        action="store_true",
        help="skip the analytic cost/power figures",
    )
    report.add_argument(
        "--png",
        action="store_true",
        help="additionally render PNG figures (requires matplotlib)",
    )
    return parser


def run_experiment(name: str, scale, seed: int, **kw):
    fn = EXPERIMENTS[name][0]
    return fn(scale=scale, seed=seed, **kw)


def experiment_calls(args) -> list[tuple[str, dict]]:
    """``(experiment, keyword arguments)`` for each experiment a parsed
    experiment or ``all`` command runs: ``scale``, ``seed`` and the
    options the experiment's entry declares."""
    names = ALL_ORDER if args.command == "all" else [args.command]
    return [
        (name, {d: getattr(args, d) for d in ("scale", "seed", *EXPERIMENTS[name][2])})
        for name in names
    ]


def _run_experiments(args) -> int:
    results = []
    for name, kw in experiment_calls(args):
        start = time.time()
        result = run_experiment(name, **kw)
        results.append(result)
        print(result.render())
        print(f"[{name} finished in {time.time() - start:.1f}s]\n")
    if args.json:
        Path(args.json).write_text(
            json.dumps([r.to_dict() for r in results], indent=2) + "\n"
        )
        print(f"[wrote {len(results)} result(s) to {args.json}]")
    return 0


def _run_campaign_cli(args) -> int:
    from repro.scenarios import Campaign, run_campaign

    path = Path(args.file)
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

    progress = None
    if args.progress:
        progress = lambda event: print(  # noqa: E731
            canonical_json(event), file=sys.stderr, flush=True
        )
    try:
        served = serve_worker(
            args.address,
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
    # The flags below are the report's own, but some values leave
    # nothing to consume them; a flag that would be silently dropped is
    # an error instead.
    if args.no_analytics and _changed(args, "cable_model"):
        print(
            "--cable-model applies to the analytic cost figure, which "
            "--no-analytics skips",
            file=sys.stderr,
        )
        return 2
    if args.files and args.no_analytics and _changed(args, "scale", "seed"):
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
    if args.files and _changed(args, "workers"):
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # a usage error (2), or --help (0)
        return exc.code
    if args.list or args.command is None:
        width = max(len(k) for k in EXPERIMENTS)
        for key, (_, desc, _) in EXPERIMENTS.items():
            print(f"{key.ljust(width)}  {desc}")
        print(
            "\nalso: all  |  campaign <grid.json>  |  serve-worker <HOST:PORT>  "
            "|  report [data.jsonl ...] --out <dir>\n"
            "<command> --help lists the flags a command takes"
        )
        return 0
    return args.run(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
