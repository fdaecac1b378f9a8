"""E19 / §IV-D: virtual channels needed for deadlock freedom.

Two results reproduced:

1. **Gopal hop-indexed VCs**: minimal SF routing is deadlock-free with
   2 VCs (max 2 hops), adaptive routing with 4 (max 4 hops) — verified
   by building the extended channel dependency graph of an actual path
   population and checking acyclicity.
2. **DFSSSP-style layering**: deterministic min-path routes packed
   into acyclic VC layers first-fit.  Paper: OFED DFSSSP needs 3 VCs
   on every SF, versus 8–15 on DLN random topologies of 338–1682
   endpoints.

The ``vc-counts`` claim checks both.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.experiments.common import ExperimentResult, Scale
from repro.routing import (
    MinimalRouting,
    RoutingTables,
    ValiantRouting,
    dfsssp_vc_count,
    gopal_vc_assignment_is_deadlock_free,
)
from repro.topologies import RandomDLN, SlimFly


def _plan(scale: Scale) -> tuple[list[int], int]:
    """(SF q values, DLN router count)."""
    if scale == Scale.QUICK:
        return [5], 60
    if scale == Scale.DEFAULT:
        return [5, 7], 128
    return [5, 7, 11, 13], 338


def run(scale=Scale.DEFAULT, seed=0) -> ExperimentResult:
    scale = Scale.coerce(scale)
    qs, dln_routers = _plan(scale)
    result = ExperimentResult("vc-counts", "Deadlock-freedom VC requirements (§IV-D)")

    rows = []
    for q in qs:
        sf = SlimFly.from_q(q)
        tables = RoutingTables(sf.adjacency)
        # Gopal: verify on all-pairs minimal paths and sampled VAL paths.
        min_paths = [
            tables.min_path(s, d)
            for s in range(sf.num_routers)
            for d in range(sf.num_routers)
            if s != d
        ]
        gopal_min_ok = gopal_vc_assignment_is_deadlock_free(min_paths, num_vcs=2)
        val = ValiantRouting(tables, seed=seed)
        val_paths = [
            val.plan(s, (s + 7) % sf.num_routers)
            for s in range(0, sf.num_routers, max(1, sf.num_routers // 64))
        ]
        gopal_val_ok = gopal_vc_assignment_is_deadlock_free(val_paths, num_vcs=4)
        layers = dfsssp_vc_count(tables)
        rows.append(
            [f"SF q={q}", sf.num_endpoints, gopal_min_ok, gopal_val_ok, layers]
        )

    sf_for_radix = SlimFly.from_q(qs[-1])
    dln = RandomDLN.balanced(sf_for_radix.router_radix, dln_routers, seed=seed)
    dln_tables = RoutingTables(dln.adjacency)
    dln_min_paths = [
        dln_tables.min_path(s, d)
        for s in range(dln.num_routers)
        for d in range(dln.num_routers)
        if s != d
    ]
    dln_gopal = gopal_vc_assignment_is_deadlock_free(
        dln_min_paths, num_vcs=dln_tables.diameter()
    )
    dln_layers = dfsssp_vc_count(dln_tables)
    rows.append([f"DLN Nr={dln.num_routers}", dln.num_endpoints, dln_gopal, "-", dln_layers])

    result.add_table(
        ["network", "N", "Gopal 2-VC MIN acyclic", "Gopal 4-VC adaptive acyclic",
         "DFSSSP-style VC layers"],
        rows,
    )
    claims.note(result)
    return result
