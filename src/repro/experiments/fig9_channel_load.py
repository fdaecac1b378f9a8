"""Fig 9: per-channel load distribution under adversarial traffic.

The paper's Fig 9 plots how offered traffic spreads over the network's
channels when the pattern is worst-case for minimal routing: SF-MIN
funnels everything through a handful of hot cables while adaptive
UGAL flattens the distribution across many lightly-loaded channels.

This experiment is the telemetry plane's showcase: the campaign arms
the ``channel_flits`` and ``routing_decisions`` probes
(:class:`repro.sim.telemetry.TelemetrySpec`), the runner streams the
per-channel counters into the ``.metrics.jsonl`` sidecar, and the
report layer renders the channel-load CDF and heatmap from those rows
(see :mod:`repro.analysis.report`).
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.frames import MetricsTable
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    performance_trio_specs,
    sim_config_for,
)
from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TrafficSpec,
    run_campaign,
)
from repro.sim.telemetry import TelemetrySpec
from repro.util.series import SeriesBundle

#: Offered load at which the channel distribution is sampled — past
#: SF-MIN's worst-case collapse (~1/(p+1)) so its hot channels are
#: saturated, below UGAL's sustainable ~40-45% so adaptive routing
#: still spreads cleanly.
SAMPLE_LOAD = 0.3


def protocol_specs(scale: Scale, seed: int):
    """(label, TopologySpec, RoutingSpec) rows for the Fig 9 panel."""
    sf, df, _ = performance_trio_specs(scale)
    return [
        ("SF-MIN", sf, RoutingSpec("min")),
        ("SF-UGAL-L", sf, RoutingSpec("ugal-l", {"seed": seed})),
        ("DF-UGAL-L", df, RoutingSpec("df-ugal-l", {"seed": seed})),
    ]


def campaign(scale=Scale.DEFAULT, seed: int = 0,
             backend: str = "cycle") -> Campaign:
    """The Fig 9 panel as a telemetry-armed declarative campaign.

    One load point per protocol (:data:`SAMPLE_LOAD`): Fig 9 is a
    distribution snapshot, not a sweep.  Every scenario carries the
    same :class:`TelemetrySpec`, so each row lands a companion metrics
    row holding the full per-channel load vector.
    """
    scale = Scale.coerce(scale)
    telemetry = TelemetrySpec(channel_flits=True, routing_decisions=True)
    scenarios = [
        Scenario(
            topology=tspec,
            routing=rspec,
            sim=sim_config_for(scale),
            traffic=TrafficSpec("worstcase", seed=seed),
            loads=[SAMPLE_LOAD],
            label=name,
            backend=backend,
            telemetry=telemetry,
        )
        for name, tspec, rspec in protocol_specs(scale, seed)
    ]
    name = f"fig9-{scale.value}"
    if backend != "cycle":
        name += f"-{backend}"
    return Campaign(name, scenarios)


def run(scale=Scale.DEFAULT, seed=0, workers: int = 1) -> ExperimentResult:
    """Render the Fig 9 panel: hottest channels + distribution stats."""
    scale = Scale.coerce(scale)
    report = run_campaign(campaign(scale, seed=seed), workers=workers)

    result = ExperimentResult(
        "fig9",
        "Per-channel load distribution — worst-case traffic "
        f"(offered load {SAMPLE_LOAD})",
    )
    bundle = SeriesBundle(
        title="Fig 9: channel-load CDF (worst-case traffic)",
        xlabel="channel load [flits/cycle]",
        ylabel="fraction of channels",
    )
    table_rows = []
    by_label: dict[str, dict] = {}
    for row in report.metrics_rows:
        if "channel_load" in row:
            by_label[row["label"]] = row
    for label, row in by_label.items():
        loads = sorted(float(v) for v in row["channel_load"])
        n = len(loads)
        series = bundle.new(label)
        for i, v in enumerate(loads):
            series.append(round(v, 4), round((i + 1) / n, 4))
        hot = loads[-1] if loads else 0.0
        mean = sum(loads) / n if n else 0.0
        result.note(
            f"{label}: {n} channels, hottest {hot:.3f} flits/cycle, "
            f"mean {mean:.3f}, diverted non-minimally "
            f"{row.get('route_diverted_frac', 0.0):.1%}"
        )
        for rank, v in enumerate(loads[::-1][:10], start=1):
            table_rows.append([label, rank, round(v, 4)])
    result.add_bundle(bundle)
    result.add_table(["protocol", "rank (hottest first)", "channel load"],
                     table_rows)
    claims.note(result, "fig9", MetricsTable(rows=report.metrics_rows))
    return result
