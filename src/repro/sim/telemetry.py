"""Opt-in telemetry plane shared by all three engine backends.

The engines compute far more than the scalar summaries in
:class:`~repro.sim.stats.SimResult` — full latency distributions,
per-channel flit counts, queue depths, and routing decisions — but
historically discarded all of it.  This module defines the opt-in
probe selection (:class:`TelemetrySpec`) and the result container
(:class:`TelemetryResult`) that carries those measurements out of a
run, in a shape identical across the ``cycle``, ``cycle-vec`` and
``flow`` backends.

Design constraints (see DESIGN.md, "The telemetry plane"):

- **Zero cost when off.**  ``telemetry=None`` (the default everywhere)
  leaves the engine hot loops untouched: results are bit-identical to
  a build without this module, and the benchmark suite gates the
  off-mode overhead below 3%.
- **Deterministic when on.**  Every probe is defined so that the
  scalar ``cycle`` engine and the batched ``cycle-vec`` engine produce
  *identical* values (same histogram counts, same per-channel flits,
  same max occupancy, same diversion counters), and results are
  independent of worker count.  No probe consumes RNG.
- **Picklable and comparable.**  :class:`TelemetryResult` stores plain
  tuples/ints/floats only (never numpy arrays), so dataclass equality
  works and results travel through the fork pool unchanged.

Channel numbering is the flat scheme shared by the whole repo: channel
``c = port_base[u] + p`` carries ``u -> adjacency[u][p]``, so
cycle-engine flit counts and flow-solver link rates are directly
comparable index by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "LATENCY_BIN_EDGES",
    "TelemetrySpec",
    "TelemetryResult",
    "latency_histogram",
    "merge_telemetry",
]


def _log_spaced_edges(lo: int = 1, hi: int = 1 << 20, per_octave: int = 4) -> tuple[int, ...]:
    """Fixed quarter-octave integer bin edges from ``lo`` to ``hi``.

    Rounded to integers and deduplicated, so consecutive small bins
    (1, 2, 3, 4, ...) widen smoothly into log-spaced ones.  The edges
    are a module-level constant: every histogram ever produced uses the
    same bins, which is what makes histograms comparable across
    engines, runs and PRs.
    """
    edges = [lo]
    k = 0
    while edges[-1] < hi:
        k += 1
        e = int(round(lo * 2.0 ** (k / per_octave)))
        if e > edges[-1]:
            edges.append(e)
    return tuple(edges)


#: Shared latency histogram bin edges (cycles).  Bin ``i`` of a
#: histogram counts samples with ``edges[i-1] <= s < edges[i]``; the
#: first slot counts samples below ``edges[0]`` and the last slot
#: counts samples at or above ``edges[-1]`` (overflow).
LATENCY_BIN_EDGES: tuple[int, ...] = _log_spaced_edges()


def latency_histogram(samples: Iterable[int] | np.ndarray) -> tuple[int, ...]:
    """Histogram latency samples over :data:`LATENCY_BIN_EDGES`.

    Returns ``len(LATENCY_BIN_EDGES) + 1`` counts (underflow bin,
    one bin per consecutive edge pair, overflow bin).  Order of the
    samples does not matter, so the scalar engine's Python list and
    the vectorised engine's chunked arrays histogram identically.
    """
    arr = np.asarray(samples, dtype=np.int64)
    if arr.size == 0:
        return (0,) * (len(LATENCY_BIN_EDGES) + 1)
    idx = np.searchsorted(np.asarray(LATENCY_BIN_EDGES, dtype=np.int64), arr, side="right")
    counts = np.bincount(idx, minlength=len(LATENCY_BIN_EDGES) + 1)
    return tuple(int(c) for c in counts)


@dataclass(frozen=True)
class TelemetrySpec:
    """Which probes to arm for a run.  All probes default to off.

    An all-off spec is equivalent to passing ``telemetry=None`` (both
    serialize to nothing, so scenario hashes are unaffected), which is
    what makes the axis safe to thread through every API level.
    """

    #: Full latency distribution over :data:`LATENCY_BIN_EDGES`
    #: (measured packets only, like ``avg_latency``/``p99``).
    latency_hist: bool = False
    #: Per-channel flit counters over the whole run (warmup included),
    #: plus the derived per-channel utilisation ``flits / cycles``.
    #: Subsumes the legacy engine-only ``trace_channels`` kwarg.
    channel_flits: bool = False
    #: Per-router maximum queue occupancy (packets resident in the
    #: router's input-VC FIFOs and its endpoints' injection queues).
    queue_occupancy: bool = False
    #: Routing-decision counters: planned packets and the fraction
    #: diverted onto non-minimal paths (VAL/UGAL adaptivity, measured).
    routing_decisions: bool = False

    @property
    def enabled(self) -> bool:
        """True if any probe is armed."""
        return bool(
            self.latency_hist
            or self.channel_flits
            or self.queue_occupancy
            or self.routing_decisions
        )

    @classmethod
    def full(cls) -> "TelemetrySpec":
        """Every probe armed — the common case for exploratory runs."""
        return cls(
            latency_hist=True,
            channel_flits=True,
            queue_occupancy=True,
            routing_decisions=True,
        )

    def to_dict(self) -> dict:
        """Serializable form; only armed probes are written."""
        data: dict = {}
        for name in ("latency_hist", "channel_flits", "queue_occupancy", "routing_decisions"):
            if getattr(self, name):
                data[name] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetrySpec":
        if not isinstance(data, dict):
            raise ValueError(f"telemetry must be a JSON object, got {data!r}")
        known = {"latency_hist", "channel_flits", "queue_occupancy", "routing_decisions"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown telemetry probes: {sorted(unknown)}")
        return cls(**{k: bool(v) for k, v in data.items()})


@dataclass
class TelemetryResult:
    """Probe measurements from one simulation (or one merged replica set).

    Fields are ``None`` when the corresponding probe was not armed (or
    when the backend cannot produce it: the fluid flow solver has no
    packets, so it fills only ``channel_load`` and
    ``route_diverted_frac``).  Tuples only — never numpy arrays — so
    equality and pickling behave.
    """

    #: Simulated cycles backing the counters (0 for the flow backend).
    cycles: int = 0
    #: Latency histogram counts over :data:`LATENCY_BIN_EDGES`
    #: (see :func:`latency_histogram` for the bin convention).
    latency_hist: tuple[int, ...] | None = None
    #: Whole-run flit count per flat channel id.
    channel_flits: tuple[int, ...] | None = None
    #: Per-channel load: ``flits / cycles`` for cycle engines,
    #: steady-state solver rates (flits/cycle) for the flow backend.
    channel_load: tuple[float, ...] | None = None
    #: Per-router maximum queue occupancy (packets).
    max_queue: tuple[int, ...] | None = None
    #: Packets whose route was planned (all injected packets).
    route_packets: int | None = None
    #: Of those, packets sent on a longer-than-minimal path.
    route_diverted: int | None = None
    #: ``route_diverted / route_packets`` (flow backend: the UGAL
    #: blend fraction / 1.0 for VAL / 0.0 for minimal routing).
    route_diverted_frac: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready form (tuples become lists); ``None`` fields omitted."""
        data: dict = {"cycles": self.cycles}
        for name in (
            "latency_hist",
            "channel_flits",
            "channel_load",
            "max_queue",
            "route_packets",
            "route_diverted",
            "route_diverted_frac",
        ):
            value = getattr(self, name)
            if value is not None:
                data[name] = list(value) if isinstance(value, tuple) else value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "TelemetryResult":
        def tup(name, kind):
            value = data.get(name)
            return None if value is None else tuple(kind(v) for v in value)

        return cls(
            cycles=int(data.get("cycles", 0)),
            latency_hist=tup("latency_hist", int),
            channel_flits=tup("channel_flits", int),
            channel_load=tup("channel_load", float),
            max_queue=tup("max_queue", int),
            route_packets=data.get("route_packets"),
            route_diverted=data.get("route_diverted"),
            route_diverted_frac=data.get("route_diverted_frac"),
        )


def _sum_tuples(values: Sequence[tuple[int, ...]]) -> tuple[int, ...]:
    return tuple(sum(col) for col in zip(*values))


def merge_telemetry(results: Sequence[TelemetryResult]) -> TelemetryResult | None:
    """Combine replica telemetry into one result (deterministic).

    Histograms and flit/decision counters sum; queue maxima take the
    elementwise max; derived rates/fractions are recomputed from the
    merged counters so the merge order never matters.  Replica results
    arrive in seed order from the sweep orchestrator, which keeps the
    (order-insensitive) merge byte-stable across worker counts.
    """
    results = [r for r in results if r is not None]
    if not results:
        return None
    if len(results) == 1:
        return results[0]
    cycles = sum(r.cycles for r in results)
    hists = [r.latency_hist for r in results if r.latency_hist is not None]
    flits = [r.channel_flits for r in results if r.channel_flits is not None]
    queues = [r.max_queue for r in results if r.max_queue is not None]
    packets = [r.route_packets for r in results if r.route_packets is not None]
    diverted = [r.route_diverted for r in results if r.route_diverted is not None]
    channel_flits = _sum_tuples(flits) if flits else None
    channel_load: tuple[float, ...] | None = None
    if channel_flits is not None and cycles > 0:
        channel_load = tuple(f / cycles for f in channel_flits)
    elif channel_flits is None:
        loads = [r.channel_load for r in results if r.channel_load is not None]
        if loads:
            # Flow backend: no flit counters; average the solver rates.
            n = len(loads)
            channel_load = tuple(sum(col) / n for col in zip(*loads))
    route_packets = sum(packets) if packets else None
    route_diverted = sum(diverted) if diverted else None
    frac: float | None = None
    if route_packets is not None:
        frac = (route_diverted or 0) / route_packets if route_packets else 0.0
    else:
        fracs = [r.route_diverted_frac for r in results if r.route_diverted_frac is not None]
        if fracs:
            frac = sum(fracs) / len(fracs)
    return TelemetryResult(
        cycles=cycles,
        latency_hist=_sum_tuples(hists) if hists else None,
        channel_flits=channel_flits,
        channel_load=channel_load,
        max_queue=tuple(max(col) for col in zip(*queues)) if queues else None,
        route_packets=route_packets,
        route_diverted=route_diverted,
        route_diverted_frac=frac,
    )
