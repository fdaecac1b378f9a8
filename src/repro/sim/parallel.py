"""The load-sweep walk and the fork pool it shares (DESIGN.md, Layer 3).

:func:`parallel_latency_vs_load` is the one latency-vs-load walk in the
repo: every backend, every worker count, and the serial wrappers
:func:`~repro.sim.sweep.latency_vs_load` and
:func:`~repro.sim.flowlevel.flow_sweep` run through it.

- **The walk** — loads run in ascending waves of ``workers //
  replicas`` points (one point per wave at one worker).  After each
  wave the saturation cutoff is re-checked: once
  ``stop_after_saturation`` consecutive points saturated, every later
  load becomes a fill row (latency ``None``, the last measured
  accepted load), and points a wave computed past the cutoff are
  discarded.  Rows are therefore independent of the worker count,
  and wasted work is bounded by one wave.
- **Determinism** — each (point, replica) derives its RNG seed from
  the config seed and the replica index alone, so results are
  identical for any worker count.  Replica 0 keeps the config seed
  itself, which makes a 1-replica sweep equal to the serial one.
- **Backends** — the walk asks the :mod:`repro.sim.backends` registry
  for a per-sweep ``(load, config) -> SimResult`` function.  A backend
  that is a pure function of its inputs (``flow``) is solved
  in-process, once per load, whatever ``workers`` and ``replicas``
  say.
- **Worker transport** — :func:`_fork_map`, shared with
  :func:`parallel_workload_completion` and the campaign runner,
  publishes the mapped function (often a closure over an unpicklable
  routing factory) in a module global *before* the pool forks, so
  children inherit it by copy-on-write and tasks carry only small
  items.  A campaign's workers fan its work units: when its pending
  units can fill every worker,
  :func:`repro.scenarios.runner.run_campaign` runs each whole in one
  child of one pool; otherwise each unit fans its loads here or its
  batch in :func:`parallel_workload_completion`.  This requires
  the ``fork`` start method; platforms without it (Windows, macOS
  spawn default) map in-process.

With ``replicas > 1`` each load point is simulated under several
derived seeds and the row reports the replica mean (latency averaged
over non-saturated replicas, accepted load over all, saturation by
majority vote) — the cheap way to put confidence behind a curve.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from repro.sim.backends import get_backend
from repro.sim.config import SimConfig
from repro.sim.engine import simulate_workload
from repro.sim.stats import LoadPoint, SimResult, WorkloadResult
from repro.sim.telemetry import TelemetrySpec, merge_telemetry

#: The function the current fork pool maps (set per pool).
_WORK: Callable | None = None


class _Simulations(threading.local):
    """Simulations scheduled by the current thread (in-process runs and
    tasks handed to a pool alike) since import.

    Scheduled == executed — waves only ever contain tasks that run — so
    the delta across a call is the number of simulations it cost.  The
    count is per thread, so a service worker running as a thread of the
    coordinator's process neither adds to the coordinator's count nor
    takes in another worker's.  The campaign resume tests and CI assert
    a zero delta when every scenario is reused from cache.
    """

    started = 0


_SIMULATIONS = _Simulations()


def simulations_started() -> int:
    """Monotonic count of simulations the calling thread has scheduled."""
    return _SIMULATIONS.started


def _count_simulations(n: int) -> None:
    _SIMULATIONS.started += n


def credit_simulations(n: int) -> None:
    """Credit simulations executed elsewhere to the calling thread.

    Work units that run in another process — a campaign's fork-pool
    children, service workers on other hosts — report how many
    simulations each cost, and the thread that ordered them credits
    them here, so :func:`simulations_started` keeps meaning
    "simulations this campaign scheduled" regardless of where they ran.
    A no-op resume still credits nothing.
    """
    if n > 0:
        _count_simulations(int(n))


def replica_seed(base_seed: int, replica: int) -> int:
    """Deterministic seed for one replica, independent of scheduling.

    Replica 0 is the config seed itself (serial equivalence); higher
    replicas hash (seed, replica) through ``numpy.random.SeedSequence``
    for statistically independent streams.
    """
    if replica == 0:
        return int(base_seed)
    ss = np.random.SeedSequence([int(base_seed), int(replica)])
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _aggregate(load: float, results: Sequence[SimResult]) -> LoadPoint:
    """Collapse one point's replica results into a LoadPoint row."""
    if len(results) == 1:
        r = results[0]
        latency = None if r.saturated and r.delivered == 0 else r.avg_latency
        return LoadPoint(
            load=load, latency=latency, accepted=r.accepted_load,
            saturated=r.saturated, telemetry=r.telemetry,
        )
    # Strict majority: a tie (e.g. 1 of 2 replicas) does not mark the
    # point saturated, so the sweep keeps simulating the tail.
    saturated = 2 * sum(r.saturated for r in results) > len(results)
    lats = [
        r.avg_latency
        for r in results
        if not (r.saturated and r.delivered == 0)
        and r.avg_latency == r.avg_latency  # drop NaN
    ]
    latency = sum(lats) / len(lats) if lats else None
    accepted = sum(r.accepted_load for r in results) / len(results)
    telemetry = merge_telemetry([r.telemetry for r in results])
    return LoadPoint(
        load=load, latency=latency, accepted=accepted, saturated=saturated,
        telemetry=telemetry,
    )


def _fork_context():
    # fork is listed as available on macOS but is unsafe there once
    # Accelerate/CoreFoundation state exists (the reason CPython moved
    # macOS to spawn-by-default); honour the documented serial fallback.
    if sys.platform == "darwin":
        return None
    try:
        if "fork" in mp.get_all_start_methods():
            return mp.get_context("fork")
    except ValueError:  # pragma: no cover - exotic platforms
        pass
    return None


def resolve_workers(workers: int | None, num_tasks: int) -> int:
    """Processes a fan-out of ``num_tasks`` uses: 0/None means one per
    core, bounded by the task count, and 1 where processes cannot fork."""
    if _fork_context() is None:
        return 1
    if not workers or workers <= 0:
        workers = os.cpu_count() or 1
    return max(1, min(workers, num_tasks))


def default_loads(maximum: float = 1.0, points: int = 10) -> list[float]:
    """Evenly spaced offered loads in (0, maximum]."""
    step = maximum / points
    return [round(step * (i + 1), 10) for i in range(points)]


def _run_work(item):
    return _WORK(item)


@contextmanager
def _fork_map(fn: Callable, workers: int):
    """Yield ``map(items) -> iterator`` applying ``fn`` in one fork pool.

    ``fn`` is published to :data:`_WORK` before the pool forks, so it
    may close over anything; only ``items`` and results are pickled.
    Results come back lazily and in item order (``imap``, one item per
    task), so a caller can use each as soon as it and every earlier one
    finished; an exception raised by ``fn`` is raised at its item.  One
    worker, or a platform without ``fork``, maps in-process.
    """
    global _WORK
    ctx = _fork_context() if workers > 1 else None
    if ctx is None:
        yield lambda items: map(fn, items)
        return
    _WORK = fn
    try:
        with ctx.Pool(processes=workers) as pool:
            yield lambda items: pool.imap(_run_work, items, chunksize=1)
    finally:
        _WORK = None


def parallel_latency_vs_load(
    topology,
    routing_factory: Callable[[], object],
    traffic,
    loads: Sequence[float] | None = None,
    config: SimConfig | None = None,
    workers: int | None = None,
    replicas: int = 1,
    stop_after_saturation: int = 1,
    backend: str = "cycle",
    telemetry: TelemetrySpec | None = None,
) -> list[LoadPoint]:
    """Latency-vs-load curve, fanned across processes.

    The walk described in the module docstring: identical rows for
    any ``workers`` (``replicas=1`` equals the serial
    :func:`repro.sim.sweep.latency_vs_load`), plus seed replication.
    ``workers=None`` or ``0`` auto-sizes to the CPU count;
    ``workers=1`` runs in-process.  ``backend`` selects the engine
    fidelity through the :mod:`repro.sim.backends` registry.
    """
    if replicas < 1:
        raise ValueError("replicas must be >= 1")
    engine_backend = get_backend(backend)
    loads = list(loads) if loads is not None else default_loads()
    config = config or SimConfig()
    if engine_backend.pure:
        workers = replicas = 1
    workers = resolve_workers(workers, len(loads) * replicas)
    simulate_point = engine_backend.point_simulator(
        topology, routing_factory, traffic, telemetry
    )
    configs = [config] + [
        replace(config, seed=replica_seed(config.seed, rep))
        for rep in range(1, replicas)
    ]

    def run_point(item: tuple[float, int]) -> SimResult:
        load, rep = item
        return simulate_point(load, configs[rep])

    per_wave = max(1, workers // replicas)
    points: list[LoadPoint] = []
    run = 0
    with _fork_map(run_point, workers) as pool_map:
        while len(points) < len(loads) and run < stop_after_saturation:
            wave = loads[len(points) : len(points) + per_wave]
            items = [(load, rep) for load in wave for rep in range(replicas)]
            _count_simulations(len(items))
            results = list(pool_map(items))
            for k, load in enumerate(wave):
                if run >= stop_after_saturation:
                    break  # the wave overshot the cutoff
                pt = _aggregate(load, results[k * replicas : (k + 1) * replicas])
                points.append(pt)
                run = run + 1 if pt.saturated else 0
    # Fill rows carry the last measured accepted throughput (the
    # curve's plateau), so tables keep a full accepted column.
    accepted = points[-1].accepted if points else None
    points += [
        LoadPoint(load=load, latency=None, accepted=accepted, saturated=True)
        for load in loads[len(points) :]
    ]
    return points


@dataclass
class CompletionTask:
    """One closed-loop simulation point for the workload fan-out.

    ``routing_factory`` builds a fresh routing instance inside the
    worker (stateful RNG streams never cross task boundaries), exactly
    like the load-sweep contract.
    """

    topology: object
    routing_factory: Callable[[], object]
    workload: object
    config: SimConfig = field(default_factory=SimConfig)
    max_cycles: int | None = None
    label: str = ""
    #: Engine fidelity: ``"cycle"`` (flat) or ``"cycle-vec"`` (batched
    #: numpy) — bit-identical rows either way, per the differential
    #: suite, so dispatch is a pure speed choice.
    backend: str = "cycle"


def parallel_workload_completion(
    tasks: Sequence[CompletionTask],
    workers: int | None = None,
) -> list[WorkloadResult]:
    """Fan closed-loop workload points across processes.

    Returns one :class:`~repro.sim.stats.WorkloadResult` per task, in
    task order.  Tasks are independent closed-loop runs, each
    deterministic given its config seed, so the rows — including every
    per-message completion timestamp — are identical for any worker
    count (the acceptance bar of the workload experiment family).
    Transport is the sweep's :func:`_fork_map`: workers receive only
    task indices, so topologies/closures never pickle.  Each task names
    its engine fidelity (:attr:`CompletionTask.backend`); ``cycle`` and
    ``cycle-vec`` produce bit-identical rows, so mixing fidelities in
    one fan-out changes nothing but speed.
    """
    tasks = list(tasks)
    if not tasks:
        return []
    _count_simulations(len(tasks))

    def complete(index: int) -> WorkloadResult:
        t = tasks[index]
        if t.backend == "cycle-vec":
            from repro.sim.engine_vec import vec_simulate_workload as engine
        else:
            engine = simulate_workload
        return engine(
            t.topology, t.routing_factory(), t.workload, t.config, t.max_cycles
        )

    with _fork_map(complete, resolve_workers(workers, len(tasks))) as pool_map:
        return list(pool_map(range(len(tasks))))
