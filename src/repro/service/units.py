"""Work-unit execution shared by service workers and the coordinator.

A *unit* is the scheduling grain produced by
:func:`repro.scenarios.runner.partition_units`: one open-loop scenario,
or one batch of consecutive pending closed-loop scenarios.  This module
owns the single code path that turns a unit into result payloads.
:func:`~repro.scenarios.runner.run_campaign` runs it for every unit of
a local campaign, service workers run it for leased units, and the
coordinator runs it for its in-process fallback, so remote and local
execution cannot drift apart.

Payloads are built by the runner's own row builders, which is what
makes the service byte-transparent: a row that crossed the wire is
constructed by the same code as a row that never left the process.
"""

from __future__ import annotations

import time

from repro.scenarios.resolve import resolve
from repro.scenarios.runner import (
    _closed_payload,
    _open_scenario_payloads,
    _sims_per_s,
)
from repro.scenarios.spec import Scenario, scenario_hash
from repro.sim.parallel import (
    CompletionTask,
    parallel_workload_completion,
    simulations_started,
)

__all__ = ["UnitEntry", "execute_unit", "from_wire", "to_wire"]


class UnitEntry:
    """One scenario of a work unit, with its campaign position.

    ``index``/``of`` locate the scenario in the campaign (heartbeat
    events carry them so progress reads the same whether a scenario
    ran locally or on a worker three hosts away).
    """

    __slots__ = ("index", "of", "scenario")

    def __init__(self, index: int, of: int, scenario: Scenario):
        self.index = index
        self.of = of
        self.scenario = scenario


def to_wire(entry: UnitEntry) -> dict:
    """Serialize a unit entry for a lease message."""
    return {"index": entry.index, "of": entry.of, "spec": entry.scenario.to_dict()}


def from_wire(data: dict) -> UnitEntry:
    """Parse a lease message's unit entry back into spec form."""
    return UnitEntry(
        index=int(data["index"]),
        of=int(data["of"]),
        scenario=Scenario.from_dict(data["spec"]),
    )


def execute_unit(
    campaign: str,
    kind: str,
    entries: list[UnitEntry],
    workers: int = 1,
    heartbeat=None,
) -> tuple[list[dict], int]:
    """Run one work unit; return its payloads and simulation count.

    ``kind`` is ``"open"`` (exactly one entry, the load × replica grid
    fanned across ``workers``) or ``"closed"`` (the batch handed to
    :func:`~repro.sim.parallel.parallel_workload_completion` whole).
    Returns one payload dict per entry, in entry order —
    ``{"scenario": hash, "rows": [...], "metrics": [...]}`` — plus the
    number of simulations the unit scheduled.  ``heartbeat`` receives
    its scenario_start/finish (open) or batch_start/finish (closed)
    events, the same wherever the unit runs.
    """

    def _emit(**fields) -> None:
        if heartbeat is not None:
            heartbeat(**fields)

    sims0 = simulations_started()
    t0 = time.perf_counter()
    if kind == "open":
        (entry,) = entries
        s = entry.scenario
        h = scenario_hash(s)
        _emit(
            event="scenario_start", campaign=campaign, scenario=h,
            label=s.label, index=entry.index, of=entry.of, workers=workers,
        )
        rows, metrics = _open_scenario_payloads(s, workers)
        wall = time.perf_counter() - t0
        sims = simulations_started() - sims0
        _emit(
            event="scenario_finish", campaign=campaign, scenario=h,
            label=s.label, index=entry.index, of=entry.of, workers=workers,
            wall_s=round(wall, 3), sims=sims,
            sims_per_s=_sims_per_s(sims, wall),
        )
        payloads = [{"scenario": h, "rows": rows, "metrics": metrics}]
    elif kind == "closed":
        tasks = []
        for entry in entries:
            r = resolve(entry.scenario)
            tasks.append(
                CompletionTask(
                    topology=r.topology,
                    routing_factory=r.routing_factory,
                    workload=r.workload,
                    config=r.config,
                    max_cycles=entry.scenario.max_cycles,
                    label=entry.scenario.label,
                    backend=r.backend,
                )
            )
        _emit(
            event="batch_start", campaign=campaign, engine="closed",
            scenarios=len(entries), index=entries[0].index,
            of=entries[0].of, workers=workers,
        )
        results = parallel_workload_completion(tasks, workers=workers)
        wall = time.perf_counter() - t0
        sims = simulations_started() - sims0
        _emit(
            event="batch_finish", campaign=campaign, engine="closed",
            scenarios=len(entries), index=entries[0].index,
            of=entries[0].of, workers=workers, wall_s=round(wall, 3),
            sims=sims, sims_per_s=_sims_per_s(sims, wall),
        )
        payloads = [
            {
                "scenario": scenario_hash(entry.scenario),
                "rows": _closed_payload(entry.scenario, result),
                "metrics": [],
            }
            for entry, result in zip(entries, results)
        ]
    else:
        raise ValueError(f"unknown unit kind {kind!r}")
    return payloads, simulations_started() - sims0
