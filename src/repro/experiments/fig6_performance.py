"""E9–E12 / Fig 6: latency vs offered load — SF vs DF vs FT-3.

Protocols exactly as the paper: SF-MIN, SF-VAL, SF-UGAL-L, SF-UGAL-G,
DF-UGAL-L, FT-ANCA.  Patterns: uniform random (6a), bit reversal (6b),
shift (6c), worst-case adversarial (6d; per-topology patterns — Fig 9
for SF, group+1 for DF, cross-pod for FT).

The experiment is *defined* as a campaign — :func:`campaign` returns
the declarative {protocol × load × replica} grid as serializable
:class:`~repro.scenarios.Scenario` objects — and :func:`run` is a thin
wrapper that executes it through
:func:`~repro.scenarios.run_campaign` and renders the same rows the
pre-campaign implementation produced.  Each panel's notes end with
the verdicts of the ``fig6`` claims (:mod:`repro.analysis.claims`)
over its rows.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.frames import RowTable
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    performance_protocol_specs,
    performance_trio_specs,
    sim_config_for,
)
from repro.scenarios import (
    Campaign,
    Scenario,
    TrafficSpec,
    resolve_topology,
    rows_by_label,
    run_campaign,
)
# Re-exported under its historical name: this module owned the pattern
# list before the traffic registry existed, and callers still reach it
# as fig6_performance.PATTERNS.
from repro.traffic.registry import PATTERN_KINDS as PATTERNS  # noqa: F401
from repro.util.series import SeriesBundle


def _collect_panel(result: ExperimentResult, report, title: str) -> ExperimentResult:
    """Campaign rows -> ``result``'s bundle, table and claim verdicts.

    The shared aggregation of every Fig 6 panel renderer: one bundle
    series per protocol (finite-latency points only), the full result
    table, and the ``fig6`` claims' verdicts over the rows.
    """
    bundle = SeriesBundle(title=title, xlabel="offered load", ylabel="latency [cycles]")
    rows = []
    for name, points in rows_by_label(report).items():
        series = bundle.new(name)
        for pt in points:
            if pt["latency"] is not None:
                series.append(pt["load"], round(pt["latency"], 2))
            rows.append(
                [
                    name,
                    pt["load"],
                    round(pt["latency"], 1) if pt["latency"] is not None else None,
                    round(pt["accepted"], 3) if pt["accepted"] is not None else None,
                    pt["saturated"],
                ]
            )
    result.add_bundle(bundle)
    result.add_table(
        ["protocol", "offered load", "latency [cyc]", "accepted", "saturated"], rows
    )
    claims.note(result, "fig6", RowTable.from_rows(report.rows))
    return result


def _loads(scale: Scale, pattern: str) -> list[float]:
    hi = 0.5 if pattern == "worstcase" else 0.95
    n = {Scale.QUICK: 5, Scale.DEFAULT: 8, Scale.PAPER: 14}[scale]
    step = hi / n
    return [round(step * (i + 1), 4) for i in range(n)]


def campaign(
    scale=Scale.DEFAULT,
    seed: int = 0,
    pattern: str = "uniform",
    replicas: int = 1,
    backend: str = "cycle",
) -> Campaign:
    """One Fig 6 panel as a declarative campaign (six load sweeps).

    ``backend`` selects the engine fidelity; the default keeps the
    historical campaign name (and every scenario hash) unchanged,
    while e.g. ``backend="flow"`` yields a ``fig6-<pattern>-<scale>-
    flow`` campaign whose rows solve through the flow-level model.
    """
    scale = Scale.coerce(scale)
    cfg = sim_config_for(scale)
    loads = _loads(scale, pattern)
    scenarios = [
        Scenario(
            topology=tspec,
            routing=rspec,
            sim=cfg,
            traffic=TrafficSpec(pattern, seed=seed),
            loads=loads,
            replicas=replicas,
            label=name,
            backend=backend,
        )
        for name, tspec, rspec in performance_protocol_specs(scale, seed)
    ]
    name = f"fig6-{pattern}-{scale.value}"
    if backend != "cycle":
        name += f"-{backend}"
    return Campaign(name, scenarios)


#: The paper-scale §V trio: SF q=25 (N=23,750) vs the closest balanced
#: Dragonfly (h=9, N=26,406) and three-level fat tree (p=29, N=24,389).
#: Only the flow-level backend sweeps these sizes in reasonable time —
#: the reason the paper-scale variant exists.
PAPER_SCALE_SHAPES = {"q": 25, "h": 9, "p": 29}


def paper_campaign(
    scale=Scale.DEFAULT,
    seed: int = 0,
    pattern: str = "uniform",
    sf_only: bool = False,
) -> Campaign:
    """Fig 6 at full paper scale (q=25 MMS), flow-level backend only.

    Protocols: SF MIN/VAL/UGAL-L against DF-UGAL-L and FT-ANCA on the
    :data:`PAPER_SCALE_SHAPES` trio.  ``sf_only`` keeps just the three
    Slim Fly sweeps (the CI wall-clock gate); the full campaign run
    with ``resume=True`` over the same output file then adds only the
    comparison networks.  ``scale`` picks the load-point count — the
    shapes stay paper-size at every scale.
    """
    from repro.scenarios import RoutingSpec, TopologySpec

    scale = Scale.coerce(scale)
    loads = _loads(scale, pattern)
    sf = TopologySpec("SF", params={"q": PAPER_SCALE_SHAPES["q"]})
    df = TopologySpec("DF", params={"h": PAPER_SCALE_SHAPES["h"]})
    ft = TopologySpec("FT-3", params={"p": PAPER_SCALE_SHAPES["p"]})
    rows = [
        ("SF-MIN", sf, RoutingSpec("min")),
        ("SF-VAL", sf, RoutingSpec("val", {"seed": seed})),
        ("SF-UGAL-L", sf, RoutingSpec("ugal-l", {"seed": seed})),
        ("DF-UGAL-L", df, RoutingSpec("df-ugal-l", {"seed": seed})),
        ("FT-ANCA", ft, RoutingSpec("ft-anca", {"seed": seed})),
    ]
    if sf_only:
        rows = [r for r in rows if r[1] is sf]
    scenarios = [
        Scenario(
            topology=tspec,
            routing=rspec,
            sim=sim_config_for(scale),
            traffic=TrafficSpec(pattern, seed=seed),
            loads=loads,
            label=name,
            backend="flow",
        )
        for name, tspec, rspec in rows
    ]
    return Campaign(f"fig6-paper-{pattern}", scenarios)


def run_paper(
    scale=Scale.DEFAULT,
    seed=0,
    pattern: str = "uniform",
    workers: int = 1,
) -> ExperimentResult:
    """Render the paper-scale Fig 6 panel through the flow backend.

    ``workers`` is accepted for CLI parity; the flow backend solves
    in-process and its rows are byte-identical at any worker count.
    """
    scale = Scale.coerce(scale)
    camp = paper_campaign(scale, seed=seed, pattern=pattern)
    report = run_campaign(camp, workers=workers)

    q, h, p = (PAPER_SCALE_SHAPES[k] for k in ("q", "h", "p"))
    result = ExperimentResult(
        f"fig6-paper-{pattern}",
        f"Latency vs offered load at paper scale — {pattern} traffic "
        f"(flow-level backend)",
    )
    result.note(
        f"networks: SF q={q} (N=23750), DF h={h} (N=26406), "
        f"FT-3 p={p} (N=24389) — full §V sizes, flow-level fidelity"
    )
    return _collect_panel(result, report, f"Fig 6 paper scale ({pattern})")


def run(
    scale=Scale.DEFAULT,
    seed=0,
    pattern: str = "uniform",
    workers: int = 1,
    replicas: int = 1,
) -> ExperimentResult:
    """Regenerate one Fig 6 panel (identical rows to the legacy path).

    ``workers`` fans the panel's scenarios across processes, or each
    scenario's loads when the scenarios are fewer than the workers (0
    = one per core, 1 = in-process); rows are identical for any value.
    ``replicas`` averages each point over derived seeds.
    """
    scale = Scale.coerce(scale)
    camp = campaign(scale, seed=seed, pattern=pattern, replicas=replicas)
    report = run_campaign(camp, workers=workers)

    sf, df, ft = (resolve_topology(t) for t in performance_trio_specs(scale))
    result = ExperimentResult(
        f"fig6-{pattern}", f"Latency vs offered load — {pattern} traffic"
    )
    result.note(
        f"networks: SF N={sf.num_endpoints}, DF N={df.num_endpoints}, "
        f"FT-3 N={ft.num_endpoints} (balanced variants, §V)"
    )
    return _collect_panel(result, report, f"Fig 6 ({pattern})")

