"""Ablation studies for the paper's design choices (DESIGN.md §5).

Three knobs the paper fixes empirically get swept here:

- **UGAL candidate count** (§IV-C): "we compared implementations using
  between 2 and 10 random selections and found 4 results in lower
  overall latency."
- **Valiant path-length cap** (§IV-B): "one may impose a constraint …
  at most 3 hops.  However, our simulations indicate that this results
  in higher average packet latency."
- **Generator-set primitive element**: the MMS construction is defined
  up to the choice of ξ; different primitive elements must yield
  isomorphic-grade graphs (same degree/diameter/average distance) —
  the structural invariance behind "no universal scheme for finding ξ
  is needed".
"""

from __future__ import annotations

from repro.analysis import claims
from repro.experiments.common import ExperimentResult, Scale, sim_config_for
from repro.routing import RoutingTables, UGALRouting, ValiantRouting
from repro.sim.engine import simulate
from repro.topologies import SlimFly
from repro.traffic import UniformRandom


def _network(scale: Scale) -> SlimFly:
    return SlimFly.from_q({Scale.QUICK: 5, Scale.DEFAULT: 7, Scale.PAPER: 19}[scale])


def run_ugal_candidates(scale=Scale.DEFAULT, seed=0, counts=(1, 2, 4, 8)) -> ExperimentResult:
    scale = Scale.coerce(scale)
    sf = _network(scale)
    tables = RoutingTables(sf.adjacency)
    cfg = sim_config_for(scale)
    traffic = UniformRandom(sf.num_endpoints)
    load = 0.5
    result = ExperimentResult(
        "ablate-ugal", "Ablation: UGAL random-candidate count (§IV-C)"
    )
    rows = []
    for c in counts:
        res = simulate(
            sf, UGALRouting(tables, "local", num_candidates=c, seed=seed),
            traffic, load, cfg,
        )
        rows.append([c, round(res.avg_latency, 2), round(res.accepted_load, 3),
                     res.saturated])
    result.add_table(["candidates", "latency @ 0.5 load", "accepted", "saturated"], rows)
    claims.note(result)
    return result


def run_val_maxhops(scale=Scale.DEFAULT, seed=0) -> ExperimentResult:
    scale = Scale.coerce(scale)
    sf = _network(scale)
    tables = RoutingTables(sf.adjacency)
    cfg = sim_config_for(scale)
    traffic = UniformRandom(sf.num_endpoints)
    result = ExperimentResult(
        "ablate-val", "Ablation: Valiant path-length cap (§IV-B)"
    )
    rows = []
    for cap, label in ((None, "unconstrained (2-4 hops)"), (3, "capped at 3 hops")):
        res = simulate(
            sf, ValiantRouting(tables, seed=seed, max_hops=cap), traffic, 0.35, cfg
        )
        rows.append([label, round(res.avg_latency, 2), round(res.accepted_load, 3)])
    result.add_table(["variant", "latency @ 0.35 load", "accepted"], rows)
    claims.note(result)
    return result


def run_primitive_element_invariance(scale=Scale.DEFAULT, seed=0) -> ExperimentResult:
    from repro.analysis.distance import diameter_and_average_distance
    from repro.core.mms import MMSGraph
    from repro.galois.field import GaloisField
    from repro.galois.primitive import primitive_elements

    scale = Scale.coerce(scale)
    q = 5 if scale == Scale.QUICK else 13
    field = GaloisField.get(q)
    result = ExperimentResult(
        "ablate-xi", f"Ablation: primitive-element choice for q={q} (§II-B1)"
    )
    rows = []
    for xi in primitive_elements(field)[:4]:
        graph = MMSGraph(q, xi=xi)
        d, avg = diameter_and_average_distance(graph.adjacency)
        degrees = {len(n) for n in graph.adjacency}
        rows.append([xi, d, round(avg, 4), sorted(degrees)])
    result.add_table(["xi", "diameter", "avg distance", "degrees"], rows)
    claims.note(result)
    return result
