"""E13 / Fig 8a (buffer sizes) and E14 / Fig 8b–e (oversubscription).

Both studies are defined as campaigns (:func:`campaign_buffers`,
:func:`campaign_oversub`) — the buffer study is literally a
:meth:`~repro.scenarios.Campaign.from_grid` over
``sim.buffer_per_port``, the oversubscription study a grid over the
Slim Fly concentration — with :func:`run_buffers`/:func:`run_oversub`
as thin wrappers rendering the legacy rows.

- **Fig 8a**: worst-case traffic under UGAL-L with input buffers of
  8..256 flits/port; notes the ``buffers`` claims' verdicts.
- **Fig 8b–e**: oversubscribed Slim Flies (p above the balanced
  concentration) under uniform traffic; notes the ``oversub`` claim's.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.frames import RowTable
from repro.core.balance import balanced_concentration, saturation_load_estimate
from repro.experiments.common import (
    TRIO_SHAPES,
    ExperimentResult,
    Scale,
    sim_config_for,
)
from repro.scenarios import (
    Campaign,
    RoutingSpec,
    Scenario,
    TopologySpec,
    TrafficSpec,
    resolve_topology,
    rows_by_label,
    run_campaign,
)
from repro.topologies import SlimFly
from repro.util.series import SeriesBundle

BUFFER_SIZES = (8, 16, 32, 64, 128, 256)


def _sf_q(scale: Scale) -> int:
    # The §V comparison Slim Fly — same instance fig6 sweeps.
    return TRIO_SHAPES[scale][0]


def campaign_buffers(scale=Scale.DEFAULT, seed: int = 0, buffers=None) -> Campaign:
    """Fig 8a as a grid campaign over ``sim.buffer_per_port``."""
    scale = Scale.coerce(scale)
    buffers = list(buffers) if buffers is not None else (
        [16, 64, 256] if scale != Scale.PAPER else list(BUFFER_SIZES)
    )
    n_loads = {Scale.QUICK: 4, Scale.DEFAULT: 6, Scale.PAPER: 8}[scale]
    loads = [round(0.1 + 0.4 * i / (n_loads - 1), 3) for i in range(n_loads)]
    base = Scenario(
        topology=TopologySpec("SF", params={"q": _sf_q(scale)}),
        routing=RoutingSpec("ugal-l", {"seed": seed}),
        sim=sim_config_for(scale),
        traffic=TrafficSpec("worstcase", seed=seed),
        loads=loads,
    )
    return Campaign.from_grid(
        f"fig8a-{scale.value}",
        base,
        {"sim.buffer_per_port": buffers},
        label=lambda s: f"{s.sim.buffer_per_port} flits",
    )


def run_buffers(
    scale=Scale.DEFAULT, seed=0, buffers=None, workers: int = 1
) -> ExperimentResult:
    scale = Scale.coerce(scale)
    report = run_campaign(
        campaign_buffers(scale, seed=seed, buffers=buffers), workers=workers
    )

    result = ExperimentResult("fig8a", "Buffer-size study, worst-case traffic")
    bundle = SeriesBundle(
        title="Fig 8a", xlabel="offered load", ylabel="latency [cycles]"
    )
    rows = []
    for srows in rows_by_label(report).values():
        buf = srows[0]["spec"]["sim"]["buffer_per_port"]
        series = bundle.new(f"{buf} flits")
        for r in srows:
            if r["latency"] is not None:
                series.append(r["load"], round(r["latency"], 2))
            rows.append([buf, r["load"],
                         round(r["latency"], 1) if r["latency"] is not None else None,
                         r["saturated"]])
    result.add_bundle(bundle)
    result.add_table(["buffer [flits]", "offered load", "latency", "saturated"], rows)
    claims.note(result, "buffers", RowTable.from_rows(report.rows))
    return result


def campaign_oversub(scale=Scale.DEFAULT, seed: int = 0, extra_ps=None) -> Campaign:
    """Fig 8b–e as a grid campaign over the SF concentration."""
    scale = Scale.coerce(scale)
    q = _sf_q(scale)
    base_topo = resolve_topology(TopologySpec("SF", params={"q": q}))
    p_bal = balanced_concentration(base_topo.num_routers, base_topo.network_radix)
    if extra_ps is None:
        extra_ps = [p_bal + 1, p_bal + 3] if scale == Scale.PAPER else [p_bal + 1, p_bal + 2]
    n_loads = {Scale.QUICK: 5, Scale.DEFAULT: 7, Scale.PAPER: 10}[scale]
    loads = [round((i + 1) / n_loads, 3) for i in range(n_loads)]
    base = Scenario(
        topology=TopologySpec("SF", params={"q": q, "concentration": p_bal}),
        routing=RoutingSpec("min"),
        sim=sim_config_for(scale),
        traffic=TrafficSpec("uniform"),
        loads=loads,
    )
    return Campaign.from_grid(
        f"fig8-oversub-{scale.value}",
        base,
        {"topology.params.concentration": [p_bal] + list(extra_ps)},
        label=lambda s: f"p={s.topology.params['concentration']}",
    )


def run_oversub(
    scale=Scale.DEFAULT, seed=0, extra_ps=None, workers: int = 1
) -> ExperimentResult:
    scale = Scale.coerce(scale)
    camp = campaign_oversub(scale, seed=seed, extra_ps=extra_ps)
    table = RowTable.from_rows(run_campaign(camp, workers=workers).rows)
    q = _sf_q(scale)
    base_topo = resolve_topology(TopologySpec("SF", params={"q": q}))
    p_bal = balanced_concentration(base_topo.num_routers, base_topo.network_radix)

    result = ExperimentResult(
        "fig8-oversub", f"Oversubscribed Slim Fly (q={q}, balanced p={p_bal})"
    )
    rows = []
    for c in table.curves():
        p = c.spec["topology"]["params"]["concentration"]
        sf: SlimFly = resolve_topology(TopologySpec.from_dict(c.spec["topology"]))
        acc = c.peak_accepted or 0.0
        est = saturation_load_estimate(sf.num_routers, sf.network_radix, p)
        rows.append([p, sf.num_endpoints, round(acc, 3), round(est, 3)])
    result.add_table(
        ["p", "N", "max accepted (uniform, MIN)", "analytic estimate"], rows
    )
    claims.note(result, "oversub", table)
    return result
