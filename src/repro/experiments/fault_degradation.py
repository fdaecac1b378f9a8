"""Performance under failure: latency/throughput vs dead-link fraction.

The paper's §III-D resiliency argument (Table 3) shows Slim Fly's
router graph stays connected and low-diameter under heavy link loss;
the deployment follow-up (Blach et al., 2023) measures what that means
for *performance* on real degraded hardware.  This family reproduces
that methodology in silico: one Slim Fly, a grid of seeded random
link-kill fractions, and the fault-aware protocols (MIN/VAL/UGAL-L
re-routed over the degraded tables), swept to saturation at every
fault point.

Defined declaratively — :func:`campaign` returns the
{routing × fault-fraction} grid as serializable scenarios whose
``fault`` axis the resolver rewrites into a
:class:`~repro.analysis.faults.DegradedTopology` — so the sweep runs
through any backend, worker count, store, or service transport with
byte-identical rows.

Labels follow ``PROTOCOL/f=FRACTION``; the report layer's ``fault``
figure family groups on that convention to render the degradation
overlays (latency and throughput vs fault fraction, one series per
routing).
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.frames import RowTable, fault_sweeps
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    TRIO_SHAPES,
    sim_config_for,
)
from repro.scenarios import (
    Campaign,
    FaultSpec,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    run_campaign,
)
from repro.util.series import SeriesBundle

#: Dead-link fractions per scale preset.  0.0 is the healthy baseline
#: (it normalises to a fault-free spec, so its rows are shared with —
#: and resumable from — any healthy campaign of the same scenario).
FRACTIONS = {
    Scale.QUICK: [0.0, 0.05, 0.1],
    Scale.DEFAULT: [0.0, 0.02, 0.05, 0.1, 0.15],
    Scale.PAPER: [0.0, 0.02, 0.05, 0.08, 0.1, 0.15, 0.2],
}

#: The fault-aware protocol set (label, routing-spec factory).
PROTOCOLS = [
    ("SF-MIN", lambda seed: RoutingSpec("min")),
    ("SF-VAL", lambda seed: RoutingSpec("val", {"seed": seed})),
    ("SF-UGAL-L", lambda seed: RoutingSpec("ugal-l", {"seed": seed})),
]


def _loads(scale: Scale) -> list[float]:
    n = {Scale.QUICK: 4, Scale.DEFAULT: 7, Scale.PAPER: 12}[scale]
    step = 0.9 / n
    return [round(step * (i + 1), 4) for i in range(n)]


def campaign(
    scale=Scale.DEFAULT,
    seed: int = 0,
    fractions=None,
    backend: str = "cycle",
    q: int | None = None,
) -> Campaign:
    """The fault-degradation grid as a declarative campaign.

    ``fractions`` overrides the per-scale dead-link grid; ``q`` pins
    the Slim Fly size (default: the scale's §V trio shape).  ``seed``
    seeds both the adaptive/oblivious routings and the fault sample —
    every fraction kills a fresh sample from the same generator seed,
    so the sweep is one deterministic family of degraded networks.
    """
    scale = Scale.coerce(scale)
    cfg = sim_config_for(scale)
    loads = _loads(scale)
    if fractions is None:
        fractions = FRACTIONS[scale]
    tspec = TopologySpec("SF", params={"q": q if q is not None else TRIO_SHAPES[scale][0]})
    scenarios = []
    for name, rspec in PROTOCOLS:
        for frac in fractions:
            fault = FaultSpec(link_fraction=frac, seed=seed) if frac else None
            scenarios.append(
                Scenario(
                    topology=tspec,
                    routing=rspec(seed),
                    sim=cfg,
                    traffic=TrafficSpec("uniform"),
                    loads=loads,
                    label=f"{name}/f={frac:g}",
                    backend=backend,
                    fault=fault,
                )
            )
    name = f"fault-degradation-{scale.value}"
    if backend != "cycle":
        name += f"-{backend}"
    return Campaign(name, scenarios)


def _fraction_of(scenario: Scenario) -> float:
    return scenario.fault.link_fraction if scenario.fault is not None else 0.0


def run(
    scale=Scale.DEFAULT,
    seed=0,
    workers: int = 1,
    backend: str = "cycle",
) -> ExperimentResult:
    """Run the fault sweep and render the degradation curves.

    One bundle series per protocol in each of two bundles: low-load
    latency vs fault fraction, and peak accepted throughput vs fault
    fraction.  Disconnected points (a sample that fragmented the
    network) render as gaps and are called out in the notes — never a
    crash.
    """
    scale = Scale.coerce(scale)
    camp = campaign(scale, seed=seed, backend=backend)
    table = RowTable.from_rows(run_campaign(camp, workers=workers).rows)
    sweeps = fault_sweeps(table)

    result = ExperimentResult(
        "fault-degradation",
        "Latency/throughput degradation vs dead-link fraction (uniform "
        "traffic, fault-aware SF protocols)",
    )
    latency_bundle = SeriesBundle(
        title="Low-load latency vs fault fraction",
        xlabel="dead-link fraction",
        ylabel="latency [cycles]",
    )
    throughput_bundle = SeriesBundle(
        title="Peak accepted throughput vs fault fraction",
        xlabel="dead-link fraction",
        ylabel="max accepted load",
    )
    table_rows = []
    for name, _ in PROTOCOLS:
        lat_series = latency_bundle.new(name)
        acc_series = throughput_bundle.new(name)
        for frac, c in sweeps.get(name, []):
            low_lat, peak = c.low_load_latency, c.peak_accepted
            disconnected = low_lat is None and peak is None
            if low_lat is not None:
                lat_series.append(frac, round(low_lat, 2))
            if peak is not None:
                acc_series.append(frac, round(peak, 3))
            table_rows.append(
                [
                    name,
                    frac,
                    round(low_lat, 1) if low_lat is not None else None,
                    round(peak, 3) if peak is not None else None,
                    disconnected,
                ]
            )
            if disconnected:
                result.note(
                    f"{c.label}: fault sample disconnected the network "
                    f"(structured rows, no simulation)"
                )
    result.add_bundle(latency_bundle)
    result.add_bundle(throughput_bundle)
    result.add_table(
        ["protocol", "fault fraction", "low-load latency [cyc]",
         "peak accepted", "disconnected"],
        table_rows,
    )
    result.note(
        "methodology: seeded random link kills, rerouted over degraded "
        "all-pairs tables (§III-D resiliency argument, measured as in "
        "the 2023 deployment paper)"
    )
    claims.note(result, "fault", table)
    return result
