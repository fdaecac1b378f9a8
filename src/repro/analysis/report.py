"""Campaign JSONL -> figures -> self-documenting REPORT.md (Layer 6).

:func:`build_report` is the last mile of the reproduction pipeline: it
ingests campaign output files (plus the analytic cost/power
experiments), renders every figure family the rows support through
:mod:`repro.analysis.figures`, and writes a ``REPORT.md`` that opens
with the verdict of every paper claim (:mod:`repro.analysis.claims`)
and whose every figure carries its claims' verdicts and provenance
(scenario hashes, seeds, worker counts).

Figure families are recognised by campaign-name prefix — ``fig6-*``
(latency/throughput curves), ``fig8a-*`` (buffer panels),
``fig8-oversub-*`` (oversubscription), ``fig9-*`` (channel-load
distributions), ``workload-completion-*`` (completion-time bars) —
with a generic fallback for any other campaign, so arbitrary user
grids still produce figures.  A rows file whose campaign armed
telemetry probes brings its ``.metrics.jsonl`` sidecar along
implicitly: the per-channel load vectors render as a CDF + heatmap
pair regardless of family.

Determinism: figures are pure functions of the row data and the SVG
backend is byte-deterministic, so rebuilding a report from the same
JSONL (at any worker count) reproduces every SVG byte for byte — the
property CI asserts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from repro._version import __version__
from repro.analysis import claims
from repro.analysis.figures import (
    BarFigure,
    GroupedBarFigure,
    HeatmapFigure,
    LineFigure,
    LineSeries,
    save_figure,
)
from repro.analysis.frames import (
    MetricsTable,
    RowTable,
    fault_sweeps,
    metrics_sidecar,
    provenance,
    saturation_point,
)

@dataclass
class FigureArtifact:
    """One rendered figure plus everything REPORT.md says about it
    (``commentary`` holds claim verdict lines among the notes)."""

    name: str
    title: str
    paths: list[Path]
    family: str
    commentary: list[str] = field(default_factory=list)
    provenance: list[dict] = field(default_factory=list)
    source: str | None = None
    workers: int | None = None


@dataclass
class ReportResult:
    """Outcome of :func:`build_report`."""

    out_dir: Path
    report_path: Path
    figures: list[FigureArtifact] = field(default_factory=list)
    data_files: list[Path] = field(default_factory=list)
    #: Data-quality notes (skipped torn/invalid lines), also printed
    #: into REPORT.md so a degraded input cannot pass silently.
    warnings: list[str] = field(default_factory=list)
    simulated: int = 0
    skipped: int = 0

    def summary(self) -> str:
        return (
            f"report: {len(self.figures)} figures from "
            f"{len(self.data_files)} data file(s) "
            f"(scenarios simulated={self.simulated} reused={self.skipped}) "
            f"-> {self.report_path}"
        )


def _slug(text: str) -> str:
    out = "".join(c if c.isalnum() else "-" for c in text.lower())
    while "--" in out:
        out = out.replace("--", "-")
    return out.strip("-")


def _anchor(title: str) -> str:
    """GitHub-style heading anchor: drop punctuation, spaces become dashes.

    Unlike :func:`_slug` (filenames), consecutive dashes are kept —
    that is what GitHub's renderer generates, and collapsing them
    would leave dead links in the Contents list.
    """
    kept = (c for c in title.lower() if c.isalnum() or c in " -_")
    return "".join(kept).replace(" ", "-")


def _display_path(path, out_dir: Path) -> str:
    """Out-dir-relative path when possible (keeps REPORT.md relocatable
    and byte-stable across output directories)."""
    p = Path(path)
    try:
        return p.relative_to(out_dir).as_posix()
    except ValueError:
        return str(p)


def _unique_name(base: str, used_names: set) -> str:
    """Claim a figure file name, suffixing an ordinal on collision."""
    name, ordinal = base, 2
    while name in used_names:
        name = f"{base}-{ordinal}"
        ordinal += 1
    used_names.add(name)
    return name


def _open_loop_figures(campaign: str, table: RowTable, family: str):
    """Latency + throughput curve figures for one open-loop campaign.

    Campaigns mixing engine fidelities overlay: flow-level curves
    render dashed, suffixed ``(flow)``, in their protocol's color —
    cycle-accurate and flow-level results of one scenario read as one
    entity distinguished by line style.
    """
    curves = table.curves()
    mixed = len({c.fidelity for c in curves}) > 1

    def series_name(c) -> str:
        if mixed and c.fidelity != "cycle":
            return f"{c.label} ({c.fidelity})"
        return c.label

    latency = LineFigure(
        title=f"{campaign}: latency vs offered load",
        xlabel="offered load",
        ylabel="latency [cycles]",
        series=[
            LineSeries(
                series_name(c), c.loads, c.latency, c.saturated,
                dash=c.fidelity != "cycle",
            )
            for c in curves
        ],
    )
    accepted = LineFigure(
        title=f"{campaign}: accepted vs offered load",
        xlabel="offered load",
        ylabel="accepted load",
        diagonal=True,
        series=[
            LineSeries(
                series_name(c), c.loads, c.accepted, c.saturated,
                dash=c.fidelity != "cycle",
            )
            for c in curves
        ],
    )
    observed = []
    for c in curves:
        sat = saturation_point(c)
        name = series_name(c)
        observed.append(
            f"{name}: saturates at load {sat:g}"
            if sat is not None
            else f"{name}: no saturation over the measured range"
        )
    figures = [(f"{_slug(campaign)}-latency", latency),
               (f"{_slug(campaign)}-throughput", accepted)]
    if family == "oversub":
        figures.append(
            (
                f"{_slug(campaign)}-accepted-bars",
                BarFigure(
                    title=f"{campaign}: max accepted throughput",
                    xlabel="concentration",
                    ylabel="max accepted load",
                    categories=[c.label for c in curves],
                    values=[c.peak_accepted or 0.0 for c in curves],
                    value_fmt="{:.2f}",
                ),
            )
        )
    return figures, observed


def _fault_figures(campaign: str, table: RowTable):
    """Degradation overlays for a fault-fraction sweep campaign.

    Curves labelled ``PROTOCOL/f=FRACTION`` (the ``fault_degradation``
    family convention) collapse into one series per protocol: low-load
    latency and peak accepted throughput against the dead-link
    fraction read from each row's embedded fault spec (0 for the
    healthy baseline).  Disconnected points — a fault sample that
    fragmented the network — contribute no y-value and render as gaps,
    with a commentary line calling them out.
    """
    per_protocol = {
        protocol: [(frac, c.low_load_latency, c.peak_accepted,
                    c.low_load_latency is None and c.peak_accepted is None)
                   for frac, c in sweeps]
        for protocol, sweeps in fault_sweeps(table).items()
    }

    def series(idx: int):
        return [
            LineSeries(
                protocol,
                [p[0] for p in points if p[idx] is not None],
                [p[idx] for p in points if p[idx] is not None],
            )
            for protocol, points in per_protocol.items()
        ]

    latency = LineFigure(
        title=f"{campaign}: low-load latency vs dead-link fraction",
        xlabel="dead-link fraction",
        ylabel="latency [cycles]",
        series=series(1),
    )
    throughput = LineFigure(
        title=f"{campaign}: peak accepted throughput vs dead-link fraction",
        xlabel="dead-link fraction",
        ylabel="max accepted load",
        series=series(2),
    )
    observed = []
    for protocol, points in per_protocol.items():
        healthy = next((p for p in points if p[0] == 0.0), None)
        worst = points[-1]
        if healthy and healthy[2] and worst[2]:
            observed.append(
                f"{protocol}: peak throughput {healthy[2]:.3f} -> "
                f"{worst[2]:.3f} at {worst[0]:g} dead links"
            )
        for frac, _, _, disconnected in points:
            if disconnected:
                observed.append(
                    f"{protocol}: disconnected at fraction {frac:g} "
                    f"(structured rows, nothing simulated)"
                )
    return (
        [(f"{_slug(campaign)}-fault-latency", latency),
         (f"{_slug(campaign)}-fault-throughput", throughput)],
        observed,
    )


def _closed_loop_figures(campaign: str, table: RowTable):
    """Completion-time bars for one closed-loop campaign.

    Labels of the form ``PROTOCOL/workload`` (the experiment
    convention) render as grouped bars; anything else as one bar per
    label.  Unfinished runs (cycle-cap hits) become gaps.
    """
    rows = table.closed_rows().rows
    observed = []

    # Rows sharing a label (e.g. a seed axis the label does not show)
    # aggregate to the mean of their finished runs, never last-wins.
    by_label: dict[str, list[dict]] = {}
    for r in rows:
        by_label.setdefault(r["label"], []).append(r)
    cells: dict[str, float | None] = {}
    for label, group_rows in by_label.items():
        vals = [
            float(r["makespan"]) for r in group_rows if r["finished"]
        ]
        cells[label] = sum(vals) / len(vals) if vals else None
        unfinished = len(group_rows) - len(vals)
        if unfinished:
            runs = f" in {unfinished}/{len(group_rows)} runs" \
                if len(group_rows) > 1 else ""
            observed.append(f"{label}: hit the cycle cap{runs} (unfinished)")
        if len(group_rows) > 1 and vals:
            observed.append(
                f"{label}: mean over {len(vals)} finished of "
                f"{len(group_rows)} runs"
            )

    if all("/" in label for label in by_label):
        protocols = list(
            dict.fromkeys(label.split("/", 1)[0] for label in by_label)
        )
        kinds = list(
            dict.fromkeys(label.split("/", 1)[1] for label in by_label)
        )
        values = [
            [cells.get(f"{p}/{k}") for k in kinds] for p in protocols
        ]
        fig = GroupedBarFigure(
            title=f"{campaign}: completion time",
            xlabel="workload",
            ylabel="completion [cycles]",
            groups=kinds,
            series=protocols,
            values=values,
        )
        for k in kinds:
            finished = {p: cells.get(f"{p}/{k}") for p in protocols}
            finished = {p: v for p, v in finished.items() if v is not None}
            if finished:
                best = min(finished, key=finished.get)
                observed.append(
                    f"{k}: fastest completion {best} "
                    f"at {finished[best]:g} cycles"
                )
    else:
        fig = GroupedBarFigure(
            title=f"{campaign}: completion time",
            xlabel="scenario",
            ylabel="completion [cycles]",
            groups=list(by_label),
            series=["completion"],
            values=[[cells[label] for label in by_label]],
        )
    return [(f"{_slug(campaign)}-completion", fig)], observed


def _channel_load_figures(campaign: str, loads_by_label: dict):
    """Fig 9-style channel-load CDF + heatmap from telemetry rows.

    ``loads_by_label`` maps scenario label -> per-channel load vector
    (:meth:`MetricsTable.channel_loads`).  The CDF plots the sorted
    loads against the cumulative channel fraction; the heatmap ranks
    channels hottest-first per label, padding ragged rows (different
    topologies have different channel counts) with blank cells.
    """
    sorted_loads = {
        label: sorted(loads) for label, loads in loads_by_label.items()
    }
    cdf = LineFigure(
        title=f"{campaign}: channel-load distribution (CDF)",
        xlabel="channel load [flits/cycle]",
        ylabel="fraction of channels",
        series=[
            LineSeries(
                label,
                loads,
                [(i + 1) / len(loads) for i in range(len(loads))],
            )
            for label, loads in sorted_loads.items()
            if loads
        ],
    )
    width = max((len(v) for v in sorted_loads.values()), default=0)
    heat = HeatmapFigure(
        title=f"{campaign}: per-channel load, hottest first",
        xlabel="channel rank",
        ylabel="protocol",
        rows=list(sorted_loads),
        values=[
            list(reversed(loads)) + [None] * (width - len(loads))
            for loads in sorted_loads.values()
        ],
        scale_label="flits/cycle",
    )
    observed = []
    for label, loads in sorted_loads.items():
        if not loads:
            continue
        n = len(loads)
        idle = sum(1 for v in loads if v == 0.0)
        observed.append(
            f"{label}: hottest channel {loads[-1]:.3f} flits/cycle, mean "
            f"{sum(loads) / n:.3f} over {n} channels ({idle} idle)"
        )
    figures = [(f"{_slug(campaign)}-channel-cdf", cdf)]
    if heat.rows:
        figures.append((f"{_slug(campaign)}-channel-heatmap", heat))
    return figures, observed


def _campaign_artifacts(
    table: RowTable,
    figures_dir: Path,
    formats: Sequence[str],
    workers_by_campaign: dict,
    sources_by_campaign: dict,
    used_names: set,
    metrics: MetricsTable,
) -> list[FigureArtifact]:
    artifacts = []
    for campaign in table.campaigns():
        workers = workers_by_campaign.get(campaign)
        sub = table.filter(campaign=campaign)
        verdicts = claims.campaign_verdicts(sub, metrics)
        family = claims.family(campaign)
        # A campaign may mix engines; each engine renders its own family.
        parts = []
        if sub.open_rows():
            figures, observed = _open_loop_figures(
                campaign, sub.open_rows(), family
            )
            if family == "fault":
                extra, extra_observed = _fault_figures(campaign, sub.open_rows())
                figures += extra
                observed += extra_observed
            parts.append((family, figures, observed, provenance(sub.open_rows())))
        if sub.closed_rows():
            figures, observed = _closed_loop_figures(campaign, sub)
            parts.append(
                ("workload", figures, observed, provenance(sub.closed_rows()))
            )
        loads_by_label = metrics.filter(campaign=campaign).channel_loads()
        if loads_by_label:
            figures, observed = _channel_load_figures(campaign, loads_by_label)
            prov = [
                p
                for p in provenance(sub.open_rows())
                if p["label"] in loads_by_label
            ]
            parts.append(("fig9", figures, observed, prov))
        for part, figures, observed, prov in parts:
            # Channel-load figures carry their campaign's claims: the
            # fig9 claims read fig9 campaigns only.
            judged = verdicts.get((campaign, "workload" if part == "workload" else family), [])
            for name, fig in figures:
                # Distinct campaign names can slugify identically
                # ("my.run" vs "my-run"); never overwrite a figure.
                name = _unique_name(name, used_names)
                paths = save_figure(fig, figures_dir, name, formats)
                artifacts.append(
                    FigureArtifact(
                        name=name,
                        title=fig.title,
                        paths=paths,
                        family=part,
                        commentary=[v.line() for v in judged] + observed,
                        provenance=prov,
                        source=sources_by_campaign.get(campaign),
                        workers=workers,
                    )
                )
    return artifacts


def _analytic_artifacts(scale, seed: int, figures_dir: Path,
                        formats: Sequence[str],
                        cable_model: str) -> list[FigureArtifact]:
    """Cost/power bars from the analytic (simulation-free) experiments."""
    from repro.experiments.runner import run_experiment

    artifacts = []
    for exp, family, ylabel, fmt, kw in (
        ("fig11-cost", "cost", "cost [$ / endpoint]", "{:.0f}",
         {"cable_model": cable_model}),
        ("fig11-power", "power", "power [W / endpoint]", "{:.1f}", {}),
    ):
        result = run_experiment(exp, scale, seed, **kw)
        headers, rows = result.tables[-1]
        # Locate the column by header, so a reshaped experiment table
        # fails loudly instead of silently plotting the wrong measure.
        col = next(
            (i for i, h in enumerate(headers) if "endpoint at largest N" in h),
            None,
        )
        if col is None:
            raise ValueError(
                f"{exp} table shape changed (headers: {headers}); update "
                f"repro.analysis.report._analytic_artifacts to match"
            )
        fig = BarFigure(
            title=f"{result.title} - per endpoint at largest N",
            xlabel="topology",
            ylabel=ylabel,
            categories=[str(r[0]) for r in rows],
            values=[float(r[col]) for r in rows],
            value_fmt=fmt,
        )
        name = _slug(f"{exp}-{scale.value}-per-endpoint")
        paths = save_figure(fig, figures_dir, name, formats)
        artifacts.append(
            FigureArtifact(
                name=name,
                title=fig.title,
                paths=paths,
                family=family,
                commentary=list(result.notes),
                provenance=[
                    {
                        "scenario": "analytic",
                        "label": exp,
                        "campaign": f"experiment {exp} --scale {scale.value}",
                        "engine": "analytic",
                        "rows": len(rows),
                        "seeds": {"seed": seed},
                    }
                ],
                source=f"analytic experiment {exp} (scale={scale.value})",
            )
        )
    return artifacts


def _load_experiment_results(path: Path) -> list:
    """Parse + validate one ``--json`` experiment-results file.

    Runs before any figure is written, so a malformed input fails the
    whole report without leaving a partially-updated output directory.
    """
    from repro.experiments.common import ExperimentResult

    data = json.loads(path.read_text(encoding="utf-8"))
    if not (isinstance(data, list)
            and all(isinstance(d, dict) and "experiment" in d for d in data)):
        raise ValueError(
            f"{path} is not an experiment-results file (expected the JSON "
            f"list written by `--json`; campaign specs replay through the "
            f"'campaign' subcommand, and campaign rows are .jsonl)"
        )
    if not data:
        # Mirror the loud .jsonl empty-input rejection: a wrong file
        # must not silently vanish from the report.
        raise ValueError(f"{path} contains no experiment results")
    results = []
    for entry in data:
        try:
            results.append(ExperimentResult.from_dict(entry))
        except (KeyError, TypeError) as exc:
            # Truncated/hand-built results files get the same loud
            # ValueError path as every other malformed input.
            raise ValueError(
                f"{path}: malformed experiment result "
                f"{entry.get('experiment', '?')!r}: {exc!r}"
            ) from exc
    return results


def _experiment_json_artifacts(path: Path, results: list, figures_dir: Path,
                               formats: Sequence[str],
                               used_names: set,
                               out_dir: Path) -> list[FigureArtifact]:
    """Figures from pre-validated experiment results (series bundles).

    ``used_names`` dedupes figure file names across input files, so
    two results files holding the same experiment id cannot silently
    overwrite each other's images.
    """
    artifacts = []
    for result in results:
        for i, bundle in enumerate(result.bundles):
            fig = LineFigure(
                title=bundle.title,
                xlabel=bundle.xlabel,
                ylabel=bundle.ylabel,
                series=[
                    LineSeries(s.name, list(s.x), list(s.y))
                    for s in bundle.series
                ],
            )
            base = _slug(f"{result.experiment}-bundle{i}")
            name = _unique_name(base, used_names)
            # Titles carry the same dedup ordinal, so REPORT.md
            # headings (and their Contents anchors) stay unique too.
            suffix = "" if name == base else f" ({name[len(base) + 1:]})"
            paths = save_figure(fig, figures_dir, name, formats)
            artifacts.append(
                FigureArtifact(
                    name=name,
                    title=f"{result.experiment}: {bundle.title}{suffix}",
                    paths=paths,
                    family="generic",
                    commentary=list(result.notes),
                    provenance=[],
                    source=_display_path(path, out_dir),
                )
            )
    return artifacts


def default_campaigns(scale, seed: int = 0):
    """The report's standard figure-set campaigns at ``scale``.

    One panel per simulated figure family: Fig 6 uniform traffic, the
    Fig 8a buffer study, the Fig 8 oversubscription study, the Fig 9
    channel-load snapshot (telemetry probes armed), and the all-to-all
    workload-completion comparison.
    """
    from repro.experiments import (
        fig6_performance,
        fig8_buffers_oversub,
        fig9_channel_load,
        workload_completion,
    )

    return [
        fig6_performance.campaign(scale, seed=seed, pattern="uniform"),
        fig8_buffers_oversub.campaign_buffers(scale, seed=seed),
        fig8_buffers_oversub.campaign_oversub(scale, seed=seed),
        fig9_channel_load.campaign(scale, seed=seed),
        workload_completion.campaign(scale, seed=seed, workload="alltoall"),
    ]


def _cell(text) -> str:
    # Labels are arbitrary user strings; a raw pipe would split the
    # Markdown cell and shift the columns.
    return str(text).replace("|", "\\|")


def _split(a: FigureArtifact) -> tuple[list, list[str]]:
    """An artifact's commentary as (claim verdicts, other notes)."""
    evidence = a.provenance[0]["campaign"] if a.provenance else a.source or ""
    parsed = [(claims.parse(text, evidence), text) for text in a.commentary]
    return [v for v, _ in parsed if v], [t for v, t in parsed if not v]


def _claims_table(verdicts: list) -> list[str]:
    """REPORT.md's opening section: every claim's verdicts."""
    rows = claims.summary(list(dict.fromkeys(verdicts)))
    counts = ", ".join(f"{sum(v.status == s for v in rows)} {s}" for s in claims.VERDICTS)
    lines = [
        "## Paper claims", "",
        f"{len(rows)} verdicts on {len(claims.CLAIMS)} claims: {counts}. "
        "References are to arXiv:1912.08968 unless they name another paper; "
        "DESIGN.md (Layer 6) states the verdict rules.", "",
        "| verdict | claim | statement | reference | evidence | detail |",
        "|---|---|---|---|---|---|",
    ]
    lines.extend(
        f"| {v.status} | `{v.claim.id}` | {_cell(v.claim.statement)} | {v.claim.ref} "
        f"| {_cell(v.evidence or '-')} | {_cell(v.detail)} |"
        for v in rows
    )
    return lines + [""]


def _render_markdown(title: str, artifacts: list[FigureArtifact],
                     data_files: list[Path], out_dir: Path,
                     scale_value: str, warnings: Sequence[str] = ()) -> str:
    lines = [
        f"# {title}",
        "",
        f"Generated by `python -m repro.experiments report` "
        f"(repro {__version__}, scale `{scale_value}`). Do not edit: "
        f"rerunning the command regenerates this file and every figure.",
        "",
        "Simulation rows are worker-count independent and every figure is "
        "a byte-deterministic function of its rows, so rebuilding this "
        "report from the same campaign JSONL reproduces each SVG byte for "
        "byte - at any `--workers` value.",
        "",
    ]
    if data_files:
        lines.append("Input data files:")
        lines.extend(f"- `{_display_path(p, out_dir)}`" for p in data_files)
        lines.append("")
    if warnings:
        lines.append("Data-quality warnings:")
        lines.extend(f"- {w}" for w in warnings)
        lines.append("")
    split = [_split(a) for a in artifacts]
    lines.extend(_claims_table([v for judged, _ in split for v in judged]))
    lines.extend(["## Contents", "", "- [Paper claims](#paper-claims)"])
    lines.extend(
        f"- [{a.title}](#{_anchor(a.title)})" for a in artifacts
    )
    lines.append("")
    for a, (judged, observed) in zip(artifacts, split):
        rel = a.paths[0].relative_to(out_dir)
        lines.extend([f"## {a.title}", "", f"![{a.name}]({rel.as_posix()})", "",
                      "**Paper claims.**" + ("" if judged else " None read these rows.")])
        lines.extend(f"- {v.status}: {v.claim.statement} ({v.claim.ref}) — {v.detail}"
                     for v in judged)
        lines.append("")
        if observed:
            lines.append("**Observed in this reproduction.**")
            lines.extend(f"- {c}" for c in observed)
            lines.append("")
        lines.append("**Provenance.**")
        if a.source:
            lines.append(f"- source: `{a.source}`")
        if a.workers is not None:
            lines.append(
                f"- simulated with workers={a.workers} "
                f"(rows identical for any worker count)"
            )
        if a.provenance:
            lines.extend(
                [
                    "",
                    "| scenario | label | engine | fidelity | rows | seeds |",
                    "|---|---|---|---|---|---|",
                ]
            )
            for p in a.provenance:
                seeds = ", ".join(f"{k}={v}" for k, v in p["seeds"].items())
                label = _cell(p["label"])
                fidelity = p.get("fidelity", "cycle") \
                    if p["engine"] != "analytic" else "-"
                lines.append(
                    f"| `{p['scenario']}` | {label} | {p['engine']} | "
                    f"{fidelity} | {p['rows']} | {seeds or '-'} |"
                )
        lines.append("")
    return "\n".join(lines)


def build_report(
    inputs: Sequence = (),
    out_dir=".",
    *,
    scale="quick",
    seed: int = 0,
    workers: int = 1,
    analytics: bool = True,
    cable_model: str = "mellanox-fdr10",
    formats: Sequence[str] = ("svg",),
    title: str = "Slim Fly reproduction report",
) -> ReportResult:
    """Build ``REPORT.md`` + figures under ``out_dir``.

    ``inputs`` are campaign JSONL files and/or ``--json`` experiment
    result files; with no inputs the standard figure-set campaigns
    (:func:`default_campaigns`) are run at ``scale`` into
    ``out_dir/data/`` with ``resume=True`` — so rebuilding an existing
    report directory simulates nothing and reproduces every SVG byte
    for byte.  ``analytics`` adds the simulation-free cost/power
    figures (``cable_model`` picks the cost model's cable product);
    ``formats`` may add ``"png"`` (requires matplotlib).
    """
    from repro.experiments.common import Scale
    from repro.scenarios import run_campaign

    scale = Scale.coerce(scale)
    out_dir = Path(out_dir)
    figures_dir = out_dir / "figures"
    figures_dir.mkdir(parents=True, exist_ok=True)

    result = ReportResult(out_dir=out_dir, report_path=out_dir / "REPORT.md")
    inputs = [Path(p) for p in inputs]
    if not inputs:
        data_dir = out_dir / "data"
        data_dir.mkdir(parents=True, exist_ok=True)
        for campaign in default_campaigns(scale, seed=seed):
            out = data_dir / f"{campaign.name}.jsonl"
            report = run_campaign(
                campaign, workers=workers, out=out, resume=out.exists()
            )
            result.simulated += report.simulated
            result.skipped += report.skipped
            inputs.append(out)

    bad = [p for p in inputs if p.suffix not in (".jsonl", ".json")]
    if bad:
        raise ValueError(
            f"report inputs must be .jsonl campaign rows or .json "
            f"experiment results, got {', '.join(map(str, bad))}"
        )
    # All JSONL inputs merge into one table before rendering, so a
    # campaign whose rows span several files (sharded runs) renders
    # one figure set instead of the last file silently overwriting
    # the earlier ones.
    tables = []
    metrics = MetricsTable()
    for p in inputs:
        if p.suffix != ".jsonl":
            continue
        table = RowTable.from_jsonl(p)
        table.source = _display_path(p, out_dir)
        if not table:
            raise ValueError(
                f"{p} holds no valid campaign rows "
                f"({len(table.invalid)} schema-invalid, "
                f"{table.torn_lines} unparseable line(s)) — is it really "
                f"a campaign JSONL output?"
            )
        if table.invalid or table.torn_lines:
            result.warnings.append(
                f"`{p}`: skipped {len(table.invalid)} schema-invalid and "
                f"{table.torn_lines} unparseable line(s)"
            )
        tables.append(table)
        # The telemetry sidecar rides along implicitly: rows files
        # from probe-armed campaigns grow channel-load figures, plain
        # ones render exactly as before.
        mt = MetricsTable.from_jsonl(metrics_sidecar(p))
        if mt.invalid or mt.torn_lines:
            result.warnings.append(
                f"`{metrics_sidecar(p)}`: skipped {len(mt.invalid)} "
                f"schema-invalid and {mt.torn_lines} unparseable "
                f"metrics line(s)"
            )
        metrics.rows.extend(mt.rows)
    # Parse/validate every .json input BEFORE rendering anything, so a
    # malformed input cannot leave a half-updated output directory.
    parsed_json = [
        (p, _load_experiment_results(p)) for p in inputs if p.suffix == ".json"
    ]
    result.data_files.extend(inputs)
    used_names: set = set()
    if tables:
        workers_by_campaign: dict = {}
        sources_by_campaign: dict = {}
        for t in tables:
            meta = t.meta or {}
            for c in t.campaigns():
                if c == meta.get("campaign") and c not in workers_by_campaign:
                    workers_by_campaign[c] = meta.get("workers")
                sources_by_campaign.setdefault(c, []).append(t.source)
        result.figures.extend(
            _campaign_artifacts(
                RowTable.concat(tables),
                figures_dir,
                formats,
                workers_by_campaign,
                {
                    c: ", ".join(dict.fromkeys(s))
                    for c, s in sources_by_campaign.items()
                },
                used_names,
                metrics,
            )
        )
    for path, results in parsed_json:
        artifacts = _experiment_json_artifacts(
            path, results, figures_dir, formats, used_names, out_dir
        )
        if not artifacts:
            # Tables-only results (table2, costmodel, ...) carry no
            # series bundles; say so rather than silently omitting
            # the file from the figure set.
            result.warnings.append(
                f"`{_display_path(path, out_dir)}`: no series bundles "
                f"(tables-only experiment results render no figures)"
            )
        result.figures.extend(artifacts)

    if analytics:
        result.figures.extend(
            _analytic_artifacts(scale, seed, figures_dir, formats,
                                cable_model)
        )

    # A reused --out directory must not mix this build's figures with
    # a previous run's (different scale/inputs): remove strays so the
    # directory always matches REPORT.md exactly.
    current = {p for a in result.figures for p in a.paths}
    for ext in ("svg", "png"):
        for stray in sorted(figures_dir.glob(f"*.{ext}")):
            if stray not in current:
                stray.unlink()

    result.report_path.write_text(
        _render_markdown(
            title, result.figures, result.data_files, out_dir, scale.value,
            result.warnings,
        ),
        encoding="utf-8",
        newline="\n",
    )
    return result
