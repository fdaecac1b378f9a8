"""Engine-backend registry: one simulation contract, several fidelities.

Layer 2 used to *be* the cycle engine; it is now an interface with
three implementations selected by name (the ``backend`` axis of a
:class:`~repro.scenarios.spec.Scenario`, the ``backend=`` argument of
:func:`repro.sim.parallel.parallel_latency_vs_load`):

- ``cycle`` — the cycle-accurate flit-level engine
  (:mod:`repro.sim.engine`): bit-exact against the frozen seed
  implementation, worker-count independent rows, open and closed loop.
- ``cycle-vec`` — the same cycle-accurate semantics rebuilt as batched
  numpy phases (:mod:`repro.sim.engine_vec`): bit-exact against
  ``cycle`` across the full contract — open and closed loop;
  table-driven, source-routed and per-hop adaptive algorithms — with a
  speedup that grows with instance size (~2x at q=5, ~7x at q=11,
  >10x by q=17 — per-cycle numpy dispatch overhead amortises over
  wider batches).  Because the rows are bit-identical, scenario
  resolution defaults large cycle-fidelity instances (>= 98 routers,
  i.e. Slim Fly q>=7) to this backend transparently.
- ``flow`` — the flow-level fluid solver (:mod:`repro.sim.flowlevel`):
  steady-state link rates by iterated water-filling, ~100-1000x faster,
  scales to full paper-size MMS instances; open loop only, rows
  byte-identical across worker counts (it consumes no RNG and runs
  in-process).

Every backend answers the same question — one load point
(:meth:`EngineBackend.simulate` -> :class:`~repro.sim.stats.SimResult`)
— plus one per-sweep hook, :meth:`EngineBackend.point_simulator`,
which the one load-sweep walk
(:func:`repro.sim.parallel.parallel_latency_vs_load`) calls once per
curve.  Campaigns can therefore grid over fidelities, and the analysis
layer can overlay their curves.  Rows carry the backend under the
``fidelity`` key.

The determinism contracts are deliberately different and all load-
bearing (see DESIGN.md, "Layer 2 — backends"): ``cycle`` must stay bit
identical to :mod:`repro.sim.reference`; ``cycle-vec`` must stay bit
identical to ``cycle`` (the differential suite
``tests/test_vec_equivalence.py``); ``flow`` must produce
byte-identical rows for any worker count, pinned against the cycle
engine by the cross-fidelity tolerance suite.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.sim.config import SimConfig
from repro.sim.stats import SimResult
from repro.sim.telemetry import TelemetrySpec


class EngineBackend(ABC):
    """One simulation fidelity behind the common Layer-2 contract.

    Attributes
    ----------
    name:
        Registry key (the ``backend`` value scenarios serialize).
    fidelity:
        Human-readable fidelity label for docs and reports.
    determinism:
        One-line statement of the backend's determinism contract.
    supports_closed_loop:
        Whether workload (closed-loop) scenarios can dispatch here.
    pure:
        Whether a point is a pure function of its inputs (no RNG, no
        scheduling).  The sweep walk then solves each load once,
        in-process, and ignores ``workers`` and ``replicas``.
    """

    name: str = "backend"
    fidelity: str = ""
    determinism: str = ""
    supports_closed_loop: bool = False
    pure: bool = False

    @abstractmethod
    def engine(self) -> Callable[..., SimResult]:
        """The engine's one-point function, imported on first use.

        Called as ``engine(topology, routing, traffic, offered_load,
        config, telemetry=...)``.
        """

    def simulate(
        self,
        topology,
        routing,
        traffic,
        offered_load: float,
        config: SimConfig | None = None,
        telemetry: TelemetrySpec | None = None,
    ) -> SimResult:
        """Solve a single (topology, routing, traffic, load) point.

        ``telemetry`` arms the opt-in probe plane
        (:mod:`repro.sim.telemetry`); ``None`` — the default — is the
        zero-cost path with bit-identical results to a probe-free
        build.
        """
        return self.engine()(
            topology, routing, traffic, offered_load, config,
            telemetry=telemetry,
        )

    def point_simulator(
        self,
        topology,
        routing_factory: Callable[[], object],
        traffic,
        telemetry: TelemetrySpec | None = None,
    ) -> Callable[[float, SimConfig], SimResult]:
        """The ``(load, config) -> SimResult`` function of one sweep.

        The default calls the engine directly with a fresh routing per
        point, so stateful RNG streams never leak between points.
        """
        engine = self.engine()

        def simulate_point(load: float, config: SimConfig) -> SimResult:
            return engine(
                topology, routing_factory(), traffic, load, config,
                telemetry=telemetry,
            )

        return simulate_point


class CycleBackend(EngineBackend):
    """The cycle-accurate flit-level engine (DESIGN.md Layers 1-2)."""

    name = "cycle"
    fidelity = "cycle-accurate (flit level)"
    determinism = (
        "bit-exact vs the frozen seed engine (sim/reference.py) for any "
        "seed and routing; rows identical for any worker count"
    )
    supports_closed_loop = True

    def engine(self):
        from repro.sim.engine import simulate

        return simulate


class CycleVecBackend(EngineBackend):
    """The batched-numpy cycle engine (:mod:`repro.sim.engine_vec`).

    Same flit-level semantics as ``cycle``, executed as vectorised
    phases over preallocated arrays.  Open and closed loop;
    table-driven (MIN), source-routed (VAL/UGAL) and per-hop adaptive
    (FT ANCA) algorithms.
    """

    name = "cycle-vec"
    fidelity = "cycle-accurate (flit level, batched numpy)"
    determinism = (
        "bit-exact vs the cycle backend (open and closed loop, all "
        "registry routings); rows identical for any worker count"
    )
    supports_closed_loop = True

    def engine(self):
        from repro.sim.engine_vec import vec_simulate

        return vec_simulate


class FlowBackend(EngineBackend):
    """The flow-level fluid solver (:mod:`repro.sim.flowlevel`).

    The model is deterministic (no RNG, no scheduling), so it is
    ``pure``: a replica average equals the single solution, and the
    in-process computation is byte-identical at any worker count — the
    property CI pins with a ``cmp`` between ``--workers 1`` and
    ``--workers 4`` campaign outputs.
    """

    name = "flow"
    fidelity = "flow-level (steady-state rates)"
    determinism = (
        "pure function of the spec: no RNG consumed, solved in-process; "
        "rows byte-identical across worker counts and reruns"
    )
    supports_closed_loop = False
    pure = True

    def engine(self):
        from repro.sim.flowlevel import flow_simulate

        return flow_simulate

    def point_simulator(self, topology, routing_factory, traffic, telemetry=None):
        """Build the :class:`~repro.sim.flowlevel.FlowModel` once per
        sweep; each load is then a cheap solve."""
        from repro.sim.flowlevel import FlowModel

        model = FlowModel(topology, routing_factory(), traffic)
        return lambda load, config: model.simulate(load, config, telemetry)


#: name -> backend singleton (backends are stateless dispatchers).
ENGINE_BACKENDS: dict[str, EngineBackend] = {
    backend.name: backend
    for backend in (CycleBackend(), CycleVecBackend(), FlowBackend())
}

#: Accepted ``backend`` values, registry order (``cycle`` first: the
#: default every pre-backend spec implicitly carries).
BACKEND_KINDS = tuple(ENGINE_BACKENDS)


def backends_supporting(kind: str) -> list[str]:
    """Registry names able to run a scenario kind, registry order.

    ``kind`` is a scenario's engine mode: ``"open"`` (traffic + loads
    axis — every backend) or ``"closed"`` (workload DAG — backends
    whose :attr:`EngineBackend.supports_closed_loop` is set).  Error
    paths enumerate this list so a rejected spec names its fixes.
    """
    if kind == "closed":
        return [
            name
            for name, backend in ENGINE_BACKENDS.items()
            if backend.supports_closed_loop
        ]
    if kind == "open":
        return list(ENGINE_BACKENDS)
    raise ValueError(f"unknown scenario kind {kind!r}; choose 'open' or 'closed'")


def _capability_summary() -> str:
    """One-line capability listing for dispatch error messages."""
    return (
        f"open-loop capable: {backends_supporting('open')}; "
        f"closed-loop capable: {backends_supporting('closed')}"
    )


def get_backend(name: str) -> EngineBackend:
    """Look up an engine backend by registry name."""
    try:
        return ENGINE_BACKENDS[name]
    except KeyError:
        raise KeyError(
            f"unknown engine backend {name!r}; choose from "
            f"{sorted(ENGINE_BACKENDS)} ({_capability_summary()})"
        ) from None
