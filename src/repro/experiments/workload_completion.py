"""Workload completion time — SF vs DF vs FT-3, closed loop.

The paper's §V evaluation is open-loop (latency vs offered load); the
deployment follow-up (Blach et al., "A High-Performance Design,
Implementation, Deployment, and Evaluation of The Slim Fly Network")
judges the topology the way applications do: by *completion time* of
collectives and stencil exchanges.  The experiment is defined as a
campaign of closed-loop scenarios (:func:`campaign`) over the §V
comparison networks and protocols:

- SF-MIN, SF-VAL, SF-UGAL-L on Slim Fly,
- DF-UGAL-L on the balanced Dragonfly,
- FT-ANCA on the three-level fat tree,

reporting per-protocol completion cycles, message latency and
delivered bandwidth.  ``--workload`` picks the communication pattern
(``all`` sweeps every kind); :func:`~repro.scenarios.run_campaign`
batches the scenarios across ``--workers`` through
:func:`repro.sim.parallel.parallel_workload_completion` with
bit-identical results for any worker count.
"""

from __future__ import annotations

from repro.analysis import claims
from repro.analysis.frames import RowTable
from repro.experiments.common import (
    ExperimentResult,
    Scale,
    performance_protocol_specs,
    performance_trio_specs,
)
from repro.scenarios import (
    Campaign,
    Scenario,
    WorkloadSpec,
    resolve_topology,
    run_campaign,
)
from repro.sim import SimConfig
from repro.workloads import WORKLOAD_KINDS

#: Rank counts / halo-style message sizes per scale preset.  Ranks are
#: capped by the smallest comparison network so every topology hosts
#: the identical workload.
RANKS = {Scale.QUICK: 24, Scale.DEFAULT: 48, Scale.PAPER: 256}
FLITS = {Scale.QUICK: 8, Scale.DEFAULT: 16, Scale.PAPER: 64}
MAX_CYCLES = 300_000


def campaign(
    scale=Scale.DEFAULT,
    seed: int = 0,
    workload: str = "alltoall",
    ranks: int | None = None,
    message_flits: int | None = None,
) -> Campaign:
    """The completion-time grid as {workload × protocol} scenarios."""
    scale = Scale.coerce(scale)
    kinds = list(WORKLOAD_KINDS) if workload == "all" else [workload]
    for kind in kinds:
        if kind not in WORKLOAD_KINDS:
            raise ValueError(
                f"unknown workload {kind!r}; choose from {WORKLOAD_KINDS} or 'all'"
            )
    protocols = performance_protocol_specs(scale, seed, include_ugal_g=False)
    sizes = [resolve_topology(t).num_endpoints for _, t, _ in protocols]
    n_ranks = ranks if ranks is not None else RANKS[scale]
    n_ranks = min(n_ranks, *sizes)
    flits = message_flits if message_flits is not None else FLITS[scale]
    scenarios = [
        Scenario(
            topology=tspec,
            routing=rspec,
            sim=SimConfig(seed=seed),
            workload=WorkloadSpec(kind, ranks=n_ranks, size_flits=flits),
            max_cycles=MAX_CYCLES,
            label=f"{name}/{kind}",
        )
        for kind in kinds
        for name, tspec, rspec in protocols
    ]
    return Campaign(f"workload-completion-{workload}-{scale.value}", scenarios)


def run(
    scale=Scale.DEFAULT,
    seed=0,
    workload: str = "alltoall",
    workers: int = 1,
    ranks: int | None = None,
    message_flits: int | None = None,
) -> ExperimentResult:
    """Compare collective/stencil completion time across topologies.

    ``workload`` is one of :data:`repro.workloads.WORKLOAD_KINDS` or
    ``"all"``; ``ranks``/``message_flits`` override the scale presets
    (tests use tiny values).
    """
    scale = Scale.coerce(scale)
    kinds = list(WORKLOAD_KINDS) if workload == "all" else [workload]
    camp = campaign(
        scale, seed=seed, workload=workload, ranks=ranks, message_flits=message_flits
    )
    report = run_campaign(camp, workers=workers)

    sf, df, ft = (resolve_topology(t) for t in performance_trio_specs(scale))
    n_ranks = camp.scenarios[0].workload.ranks
    flits = camp.scenarios[0].workload.size_flits
    out = ExperimentResult(
        "workload-completion",
        f"Closed-loop completion time — {', '.join(kinds)}",
    )
    out.note(
        f"networks: SF N={sf.num_endpoints}, DF N={df.num_endpoints}, "
        f"FT-3 N={ft.num_endpoints}; {n_ranks} ranks, {flits}-flit units, "
        "round-robin router placement"
    )
    def _round(value, digits):
        # Stalled runs carry None (serialized NaN) latency fields.
        return round(value, digits) if value is not None else None

    rows = []
    for row in report.rows:
        name, kind = row["label"].split("/")
        rows.append(
            [
                kind,
                name,
                row["num_messages"],
                row["delivered_flits"],
                row["makespan"],
                _round(row["avg_message_latency"], 1),
                _round(row["p99_message_latency"], 1),
                _round(row["flits_per_cycle"], 3),
                row["finished"],
            ]
        )
    out.add_table(
        [
            "workload", "protocol", "messages", "flits",
            "completion [cyc]", "avg msg lat", "p99 msg lat",
            "flits/cyc", "finished",
        ],
        rows,
    )
    claims.note(out, "workload", RowTable.from_rows(report.rows))
    return out
