"""E16–E18 / Figs 11–13: cable/router cost models and total cost/power
vs network size, for each cable product.

- ``what="models"`` — the pricing fits themselves (Figs 11a/b, 12a/b,
  13a/b): $/Gb/s vs length for electric and optical cables, and router
  price vs radix, including the electric→optical crossover length.
- ``what="cost"`` — total network cost vs N (Figs 11c/12c/13c).
- ``what="power"`` — total power vs N (Figs 11d/12d/13d).

The paper finds SF the cheapest and most power-efficient curve beyond
~5K endpoints, LH-HC/HC/T5D the most expensive, and the ordering
insensitive to the cable product (≈1–2%); the ``fig11-cost`` and
``fig11-power`` claims check SF's place.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.costmodel.cables import CABLE_MODELS, get_cable_model
from repro.costmodel.cost import analytic_network_cost
from repro.costmodel.counts import sweep_counts
from repro.costmodel.power import network_power_watts
from repro.costmodel.routers import get_router_model
from repro.experiments.common import ExperimentResult, Scale
from repro.util.series import SeriesBundle

SWEEP_TOPOLOGIES = ["LH-HC", "HC", "T5D", "FT-3", "T3D", "DLN", "FBF-3", "DF", "SF"]


def run(
    scale=Scale.DEFAULT,
    seed=0,
    what: str = "cost",
    cable_model: str = "mellanox-fdr10",
    max_endpoints: int | None = None,
) -> ExperimentResult:
    scale = Scale.coerce(scale)
    if what == "models":
        return _run_models(cable_model)
    if max_endpoints is None:
        max_endpoints = {Scale.QUICK: 5000, Scale.DEFAULT: 40000, Scale.PAPER: 50000}[
            scale
        ]
    if what == "cost":
        return _run_cost(cable_model, max_endpoints)
    if what == "power":
        return _run_power(max_endpoints)
    raise ValueError(f"what must be 'models', 'cost' or 'power', got {what!r}")


def _run_models(cable_name: str) -> ExperimentResult:
    result = ExperimentResult("costmodel", "Cable and router cost models")
    rows = []
    for key, model in CABLE_MODELS.items():
        rows.append(
            [
                key,
                model.rate_gbps,
                f"{model.electric.slope:.4f}x+{model.electric.intercept:.4f}",
                f"{model.optical.slope:.4f}x+{model.optical.intercept:.4f}",
                round(model.crossover_length(), 2),
                "estimated" if model.estimated else "paper fit",
            ]
        )
    result.add_table(
        ["cable model", "Gb/s", "electric $/Gb/s", "optical $/Gb/s",
         "crossover [m]", "source"],
        rows,
    )
    router = get_router_model()
    result.add_table(
        ["router radix k", "price [$]"],
        [[k, round(router.cost(k))] for k in (12, 24, 36, 48, 64, 96, 108)],
    )
    result.note("router fit: 350.4k − 892.3 $ (paper §VI-B2, Mellanox IB FDR10)")
    return result


def _run_cost(cable_name: str, max_endpoints: int) -> ExperimentResult:
    get_cable_model(cable_name)  # validate early
    result = ExperimentResult(
        "fig11-cost", f"Total network cost vs size ({cable_name})"
    )
    bundle = SeriesBundle(
        title="Fig 11c/12c/13c", xlabel="network size [endpoints]",
        ylabel="total cost [$]",
    )
    final_cost: dict[str, float] = {}
    for name in SWEEP_TOPOLOGIES:
        series = bundle.new(name)
        for counts in sweep_counts(name, max_endpoints):
            if counts.num_endpoints < 64:
                continue
            report = analytic_network_cost(counts, cable_model=cable_name)
            series.append(counts.num_endpoints, round(report.total_cost))
        if series.y:
            final_cost[name] = series.y[-1] / series.x[-1]
    result.add_bundle(bundle)
    result.add_table(
        ["topology", "largest N", "$ / endpoint at largest N"],
        [
            [name, bundle.get(name).x[-1], round(v)]
            for name, v in final_cost.items()
        ],
    )
    claims.note(result)
    return result


def _run_power(max_endpoints: int) -> ExperimentResult:
    result = ExperimentResult("fig11-power", "Total network power vs size")
    bundle = SeriesBundle(
        title="Fig 11d/12d/13d", xlabel="network size [endpoints]",
        ylabel="power [W]",
    )
    per_node: dict[str, float] = {}
    for name in SWEEP_TOPOLOGIES:
        series = bundle.new(name)
        for counts in sweep_counts(name, max_endpoints):
            if counts.num_endpoints < 64:
                continue
            watts = network_power_watts(counts.num_routers, counts.router_radix)
            series.append(counts.num_endpoints, round(watts))
        if series.y:
            per_node[name] = series.y[-1] / series.x[-1]
    result.add_bundle(bundle)
    result.add_table(
        ["topology", "largest N", "W / endpoint at largest N"],
        [[name, bundle.get(name).x[-1], round(v, 2)] for name, v in per_node.items()],
    )
    claims.note(result)
    return result
