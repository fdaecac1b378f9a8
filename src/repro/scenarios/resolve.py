"""Spec -> live-object resolution for the scenario layer.

Scenarios reference everything by registry name; this module turns
those references into the objects the simulator consumes.  Topologies
and their all-pairs :class:`~repro.routing.tables.RoutingTables` are
by far the most expensive inputs and recur across a campaign (the
fig6 grid reuses three networks for six protocols × many loads), so
both are cached per canonical spec encoding.  Routing algorithms are
the opposite: adaptive schemes carry RNG state, so resolution hands
out a *factory* and a fresh instance is built inside each simulation
task — the same contract :mod:`repro.sim.parallel` already enforces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable

from repro.routing.registry import make_routing, routing_needs_tables
from repro.routing.tables import RoutingTables
from repro.scenarios.spec import FaultSpec, Scenario, TopologySpec, canonical_json
from repro.sim.config import SimConfig
from repro.topologies.base import Topology
from repro.topologies.registry import balanced_instance
from repro.traffic.registry import make_pattern
from repro.workloads.registry import make_placed_workload

#: spec-key -> instance caches.  Bounded FIFO: campaigns touch a
#: handful of networks, but a long-lived process sweeping many sizes
#: should not accumulate paper-scale tables forever.
_TOPOLOGIES: dict[str, Topology] = {}
_TABLES: dict[str, RoutingTables] = {}
_CACHE_CAP = 32


def clear_caches() -> None:
    """Drop cached topologies/tables (tests, memory pressure)."""
    _TOPOLOGIES.clear()
    _TABLES.clear()


def _bounded_put(cache: dict, key: str, value) -> None:
    if len(cache) >= _CACHE_CAP:
        cache.pop(next(iter(cache)))
    cache[key] = value


def resolve_topology(
    spec: TopologySpec, fault: FaultSpec | None = None
) -> Topology:
    """Build (or fetch) the topology instance a spec describes.

    With a ``fault``, the healthy instance is built (or fetched) first
    and rewritten into a :class:`~repro.analysis.faults.DegradedTopology`
    via :func:`~repro.analysis.faults.apply_fault`; the degraded
    instance is cached under the combined (topology, fault) key, so a
    fault-fraction sweep over one network degrades it once per point.
    """
    key = canonical_json(spec.to_dict())
    if fault is not None:
        key += "|fault:" + canonical_json(fault.to_dict())
    if key not in _TOPOLOGIES:
        if fault is not None:
            from repro.analysis.faults import apply_fault

            topology = apply_fault(
                resolve_topology(spec),
                link_fraction=fault.link_fraction,
                router_fraction=fault.router_fraction,
                seed=fault.seed,
                cut_links=fault.cut_links,
                cut_routers=fault.cut_routers,
            )
        else:
            topology = balanced_instance(
                spec.name, spec.target_endpoints, seed=spec.seed, **spec.params
            )
        _bounded_put(_TOPOLOGIES, key, topology)
    return _TOPOLOGIES[key]


def tables_for(
    spec: TopologySpec, fault: FaultSpec | None = None
) -> RoutingTables:
    """All-pairs routing tables for a topology spec (cached).

    Keyed by a digest of the adjacency itself, not the spec: specs
    that differ only in concentration (oversubscription sweeps) share
    one router graph, so they share one all-pairs BFS.  A faulted
    spec's degraded adjacency digests differently by construction, so
    degraded tables can never be served for the healthy network (or
    vice versa).
    """
    adjacency = resolve_topology(spec, fault).adjacency
    key = hashlib.sha256(canonical_json(adjacency).encode()).hexdigest()
    if key not in _TABLES:
        _bounded_put(_TABLES, key, RoutingTables(adjacency))
    return _TABLES[key]


@dataclass
class ResolvedScenario:
    """A scenario's live simulator inputs, ready for dispatch.

    ``backend`` names the engine fidelity the runner dispatches to
    (validated against :mod:`repro.sim.backends` here, so an unknown
    backend fails at resolution, not mid-campaign).  It may differ
    from the spec's backend: default-``cycle`` scenarios on large
    instances execute on ``cycle-vec`` (see :func:`_execution_backend`)
    while rows and hashes keep reporting the spec's fidelity.
    """

    scenario: Scenario
    topology: Topology
    routing_factory: Callable[[], object]
    config: SimConfig
    traffic: object | None = None
    workload: object | None = None
    backend: str = "cycle"
    #: Armed probe plane (:class:`repro.sim.telemetry.TelemetrySpec`)
    #: or None — passed straight through to the engine dispatch.
    telemetry: object | None = None
    #: True when a fault axis degraded the topology past connectivity:
    #: routing tables over the fragments are undefined, so the runner
    #: emits structured ``disconnected`` rows instead of simulating.
    disconnected: bool = False


def _unroutable(scenario: Scenario):
    def factory():  # pragma: no cover - guarded by `disconnected`
        raise RuntimeError(
            f"scenario {scenario.label or scenario.hash()} is disconnected; "
            "it has no routing"
        )

    return factory


#: Router count from which cycle-fidelity scenarios execute on the
#: batched ``cycle-vec`` engine by default (Slim Fly q=7 -> 2q^2 = 98
#: routers).  The micro-benchmark record cited for it measured SF MIN
#: at load 0.6 only at q=5 (50 routers: cycle-vec ~2.0x the flat
#: engine) and q=11 (242 routers: ~6.6x); q=7 itself was never
#: measured.  A per-routing rule from a measured matrix is to replace it.
_VEC_DEFAULT_ROUTERS = 98


def _vec_feasible(scenario: Scenario, topology: Topology) -> bool:
    """Conservative screen for ``cycle-vec``'s packed int64 sort keys.

    The batched engine refuses instances whose grant keys could
    overflow (:func:`~repro.sim.engine_vec.packed_key_spans`); this
    checks the same bound, over-estimating the VC count (which the
    routing algorithm may raise), so the auto-default below never
    upgrades a scenario into a constructor error.
    """
    from repro.sim.engine_vec import packed_key_spans

    if scenario.workload is not None:
        from repro.sim.engine import DEFAULT_MAX_CYCLES

        limit = (
            DEFAULT_MAX_CYCLES
            if scenario.max_cycles is None
            else scenario.max_cycles
        )
    else:
        cfg = scenario.sim
        limit = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles
    try:
        packed_key_spans(topology, max(scenario.sim.num_vcs, 8), limit)
    except ValueError:
        return False
    return True


def _execution_backend(scenario: Scenario, topology: Topology) -> str:
    """Engine fidelity the runner should dispatch to.

    Cycle-fidelity scenarios on large instances default to the batched
    ``cycle-vec`` engine: the rows are bit-identical (the differential
    suite's contract), the scenario hash and the rows' ``fidelity``
    key both come from the *spec's* backend, so published results,
    resume identities and figure pipelines are untouched — only the
    wall-clock changes.  Explicit ``backend="cycle-vec"``/``"flow"``
    are honoured as written, and small instances stay on the flat
    engine (below ~100 routers its lower per-cycle overhead wins).
    """
    if (
        scenario.backend == "cycle"
        and topology.num_routers >= _VEC_DEFAULT_ROUTERS
        and _vec_feasible(scenario, topology)
    ):
        return "cycle-vec"
    return scenario.backend


def resolve(scenario: Scenario) -> ResolvedScenario:
    """Resolve every spec of a scenario into live objects.

    Tables are only built when the routing algorithm (or a Slim
    Fly-style worst-case pattern) actually routes over them.  A fault
    axis rewrites the topology into its degraded form first; if the
    degraded graph fell apart, resolution returns early with
    ``disconnected=True`` — a structured result, not a crash.
    """
    from repro.sim.backends import get_backend

    get_backend(scenario.backend)  # unknown backends fail loudly here
    fault = scenario.fault
    topology = resolve_topology(scenario.topology, fault)
    tspec = scenario.topology
    if fault is not None:
        from repro.analysis.connectivity import is_connected

        if not is_connected(topology.num_routers, topology.edge_array()):
            return ResolvedScenario(
                scenario=scenario,
                topology=topology,
                routing_factory=_unroutable(scenario),
                config=scenario.sim,
                backend=scenario.backend,
                telemetry=scenario.telemetry,
                disconnected=True,
            )
    if routing_needs_tables(scenario.routing.name):
        tables = tables_for(tspec, fault)
    else:
        tables = None
    rspec = scenario.routing

    def routing_factory():
        return make_routing(rspec.name, topology, tables=tables, **rspec.params)

    traffic = None
    workload = None
    if scenario.traffic is not None:
        traffic = make_pattern(
            scenario.traffic.pattern,
            topology,
            tables=lambda: tables_for(tspec, fault),
            seed=scenario.traffic.seed,
        )
    else:
        w = scenario.workload
        workload = make_placed_workload(
            w.kind,
            topology,
            w.ranks,
            size_flits=w.size_flits,
            iterations=w.iterations,
            placement=w.placement,
        )
    return ResolvedScenario(
        scenario=scenario,
        topology=topology,
        routing_factory=routing_factory,
        config=scenario.sim,
        traffic=traffic,
        workload=workload,
        backend=_execution_backend(scenario, topology),
        telemetry=scenario.telemetry,
    )
