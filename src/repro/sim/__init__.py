"""Cycle-based flit-level network simulator (paper §V methodology).

Implements the paper's simulation setup from scratch: input-queued
routers with virtual channels and credit-based flow control,
single-flit packets injected by a Bernoulli process, warmup to steady
state before measurement, and the stated pipeline constants (2-cycle
credit processing; 1 cycle each for channel, switch allocation, VC
allocation and crossbar; internal speedup 2 over the channel rate).

Modules
-------
- :mod:`repro.sim.config` — :class:`SimConfig` with the paper defaults.
- :mod:`repro.sim.packet` — the packet/flit record.
- :mod:`repro.sim.network` — flat struct-of-arrays state for a topology.
- :mod:`repro.sim.engine` — the cycle loop and measurement logic, plus
  the closed-loop (workload) variant :class:`ClosedLoopEngine`.
- :mod:`repro.sim.stats` — results (latency, accepted throughput,
  workload completion).
- :mod:`repro.sim.sweep` — the serial latency-vs-offered-load sweep
  and curve statistics.
- :mod:`repro.sim.parallel` — the one load-sweep walk and the fork
  pool it shares with closed-loop workload points.
- :mod:`repro.sim.backends` — the engine-backend registry (``cycle``,
  ``cycle-vec`` and ``flow`` fidelities behind one simulate contract).
- :mod:`repro.sim.flowlevel` — the flow-level fluid solver (steady-
  state link rates; paper-scale sweeps).
- :mod:`repro.sim.telemetry` — the opt-in probe plane (latency
  histograms, channel loads, queue occupancy, routing decisions)
  shared by all backends; zero cost when off.
- :mod:`repro.sim.reference` — the frozen seed engine (differential
  oracle and benchmark baseline; not for production use).

See DESIGN.md at the repository root for the architecture and the
determinism contract between the flat engine and the reference.
"""

from repro.sim.backends import (
    BACKEND_KINDS,
    ENGINE_BACKENDS,
    CycleBackend,
    CycleVecBackend,
    EngineBackend,
    FlowBackend,
    get_backend,
)
from repro.sim.engine_vec import (
    VecClosedLoopEngine,
    VecEngine,
    vec_simulate,
    vec_simulate_workload,
)
from repro.sim.config import SimConfig
from repro.sim.flowlevel import FlowModel, flow_simulate, flow_sweep
from repro.sim.packet import Packet
from repro.sim.network import SimNetwork
from repro.sim.engine import (
    ClosedLoopEngine,
    SimEngine,
    simulate,
    simulate_workload,
)
from repro.sim.stats import SimResult, LoadPoint, WorkloadResult
from repro.sim.sweep import latency_vs_load, find_saturation_load
from repro.sim.telemetry import (
    LATENCY_BIN_EDGES,
    TelemetryResult,
    TelemetrySpec,
    latency_histogram,
    merge_telemetry,
)
from repro.sim.parallel import (
    CompletionTask,
    parallel_latency_vs_load,
    parallel_workload_completion,
    replica_seed,
    simulations_started,
)

__all__ = [
    "BACKEND_KINDS",
    "ENGINE_BACKENDS",
    "CycleBackend",
    "CycleVecBackend",
    "EngineBackend",
    "FlowBackend",
    "VecClosedLoopEngine",
    "VecEngine",
    "vec_simulate",
    "vec_simulate_workload",
    "FlowModel",
    "flow_simulate",
    "flow_sweep",
    "get_backend",
    "SimConfig",
    "Packet",
    "SimNetwork",
    "SimEngine",
    "ClosedLoopEngine",
    "simulate",
    "simulate_workload",
    "SimResult",
    "LoadPoint",
    "WorkloadResult",
    "latency_vs_load",
    "parallel_latency_vs_load",
    "parallel_workload_completion",
    "CompletionTask",
    "replica_seed",
    "simulations_started",
    "find_saturation_load",
    "LATENCY_BIN_EDGES",
    "TelemetrySpec",
    "TelemetryResult",
    "latency_histogram",
    "merge_telemetry",
]
