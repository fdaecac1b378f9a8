"""Flat struct-of-arrays simulator state (see DESIGN.md).

Every directed router-to-router channel gets a *flat channel id*:
channel ``c = port_base[r] + p`` is network port ``p`` of router ``r``
(ports numbered as in :class:`~repro.topologies.base.Topology`), and
carries flits from ``r`` to ``chan_dst[c]``.  All flow-control state is
preallocated over these ids instead of the seed implementation's
per-router dicts (kept in :mod:`repro.sim.reference`):

- ``credits`` — ``(num_channels, num_vcs)`` array of free slots in the
  downstream input buffer of each channel/VC (``credits_flat`` is the
  ravelled view the engine's hot loops index with
  ``c * num_vcs + vc``).
- ``in_fifo[c * num_vcs + vc]`` — the input FIFO *fed by* channel
  ``c``, resident at router ``chan_dst[c]``.
- ``out_stage[c]`` — the output staging queue of channel ``c`` (fed at
  up to ``speedup`` flits/cycle, drained at channel rate 1
  flit/cycle).
- ``channel_busy_until`` / ``eject_busy_until`` — fixed-size arrays
  replacing the unbounded busy-until dicts of the seed engine (their
  growth on long multi-flit runs was a leak; arrays cap it by
  construction).
- injection queues are unbounded (open-loop source queues; their
  occupancy is what diverges past saturation) and ejection is one
  flit per endpoint per cycle.

``in_order[r]`` records the first-use order of router ``r``'s input
FIFOs.  The seed engine iterated lazily-created dict entries, so its
switch-allocation tie-break among equally-old flits follows buffer
*creation* order; tracking that order explicitly keeps the flat engine
bitwise identical to the reference (see DESIGN.md, "Determinism
contract").

``queue_length(u, v)`` exposes the congestion signal UGAL variants
read: the output staging occupancy plus flits already buffered
downstream (capacity − credits).  Source-routed planners read it
through a :class:`QueueSnapshot`, the same type in both cycle engines.
"""

from __future__ import annotations

import operator
from collections import deque

import numpy as np

from repro.sim.config import SimConfig
from repro.topologies.base import Topology


def channel_layout(topology: Topology):
    """Flat channel arrays of a topology: ``(degrees, port_base, chan_src,
    chan_dst)``.

    The shared numbering both cycle engines index flow-control state
    with: channel ``c = port_base[r] + p`` is network port ``p`` of
    router ``r`` and carries flits ``r -> chan_dst[c]``.  Factored out
    of :class:`SimNetwork` so the vectorised engine
    (:mod:`repro.sim.engine_vec`) can build its preallocated arrays
    without instantiating the per-channel deques it never uses.
    """
    nr = topology.num_routers
    adjacency = topology.adjacency
    degrees = np.fromiter((len(n) for n in adjacency), dtype=np.int64, count=nr)
    port_base = np.zeros(nr + 1, dtype=np.int64)
    np.cumsum(degrees, out=port_base[1:])
    C = int(port_base[-1])
    chan_src = np.repeat(np.arange(nr, dtype=np.int64), degrees)
    chan_dst = np.fromiter(
        (v for nbrs in adjacency for v in nbrs), dtype=np.int64, count=C
    )
    return degrees, port_base, chan_src, chan_dst


class QueueSnapshot:
    """The ``queue_length`` view source-routed planners read at injection.

    Both cycle engines hand one to every ``plan()`` call of an injection
    phase.  ``fill()`` returns every channel's ``queue_length`` indexed
    by flat channel id; it runs on the first read, so a phase whose
    planners read no queue (VAL) pays nothing.  That is exact: the
    injection loops write only injection queues and path rows, never
    credits or output stages, so every read within one phase sees the
    same state.  ``chan_of[router][neighbor]`` is the flat channel id.
    """

    __slots__ = ("_chan_of", "_fill", "_q")

    def __init__(self, chan_of, fill):
        self._chan_of = chan_of
        self._fill = fill
        self._q = None

    def queue_length(self, router: int, neighbor: int) -> int:
        q = self._q
        if q is None:
            q = self._q = self._fill()
        return q[self._chan_of[router][neighbor]]


class SimNetwork:
    """Mutable flow-control state of a simulated network, flat layout."""

    def __init__(self, topology: Topology, config: SimConfig):
        self.topology = topology
        self.config = config
        nr = topology.num_routers
        adjacency = topology.adjacency
        V = config.num_vcs
        self.num_vcs = V

        #: neighbor id -> port index per router (dict lookup beats .index()).
        self.port_index: list[dict[int, int]] = [
            {v: i for i, v in enumerate(nbrs)} for nbrs in adjacency
        ]
        #: (router, port) -> flat channel id: ``port_base[r] + port``.
        degrees, self.port_base, self.chan_src, self.chan_dst = channel_layout(
            topology
        )
        C = int(self.port_base[-1])
        self.num_channels = C
        self.port_base_list: list[int] = self.port_base.tolist()
        self.chan_src_list: list[int] = self.chan_src.tolist()
        self.chan_dst_list: list[int] = self.chan_dst.tolist()
        #: buffer id -> source router of its channel (credit-return target).
        self.buf_src_list: list[int] = np.repeat(self.chan_src, V).tolist()
        #: neighbor id -> flat channel id per router (queue reads).
        self.chan_of: list[dict[int, int]] = [
            {v: pb + i for v, i in pi.items()}
            for pb, pi in zip(self.port_base_list, self.port_index)
        ]
        #: Channel *into* router r on its arrival port p (reverse lookup).
        pb = self.port_base_list
        self.in_chan: list[list[int]] = [
            [pb[v] + self.port_index[v][u] for v in nbrs]
            for u, nbrs in enumerate(adjacency)
        ]

        cap = config.buffer_per_vc
        #: Downstream slots of one channel over all its VCs.
        self.channel_capacity = cap * V
        #: Free downstream slots per (channel, VC), flat-indexed by
        #: ``c * num_vcs + vc``.  Stored as a preallocated Python list:
        #: the switch-allocation loop does one read-modify-write per
        #: grant, and CPython list indexing is ~2.5x faster than numpy
        #: scalar indexing there (see DESIGN.md); the :attr:`credits`
        #: property exposes the ``(num_channels, num_vcs)`` array view.
        self.credits_flat: list[int] = [cap] * (C * V)
        #: Input FIFOs, one per (channel, VC), preallocated.
        self.in_fifo: list[deque] = [deque() for _ in range(C * V)]
        #: First-use order of input FIFOs per router, as
        #: (scan sequence, flat id, FIFO) triples: the allocation scan
        #: neither re-indexes nor enumerates, and the sequence number
        #: is the switch-allocation tie-break (see module doc).
        self.in_order: list[list[tuple[int, int, deque]]] = [[] for _ in range(nr)]
        self._in_seen = bytearray(C * V)
        #: Scan sequence offset placing injection FIFOs after every
        #: possible input FIFO of a router.
        self.inject_seq_base = C * V + 1
        #: Output staging queues, one per directed channel.
        self.out_stage: list[deque] = [deque() for _ in range(C)]
        #: Bitmask of locally-staged output ports per router (bit p set
        #: iff ``out_stage[port_base[r] + p]`` is non-empty); lets
        #: transmission and idle checks skip empty ports.
        self.stage_mask: list[int] = [0] * nr
        #: Injection FIFOs, one per endpoint (unbounded).
        self.inject_queue: list[deque] = [deque() for _ in range(topology.num_endpoints)]
        #: (scan sequence, endpoint, FIFO) triples per router.
        self.inject_pairs: list[list[tuple[int, int, deque]]] = [
            [
                (self.inject_seq_base + i, ep, self.inject_queue[ep])
                for i, ep in enumerate(eps)
            ]
            for eps in topology.endpoints_of_router
        ]
        #: Routers that may have switch-allocation work this cycle.
        self.active_routers: set[int] = set()
        #: Channel serialisation for multi-flit packets (busy-until
        #: cycle), one fixed slot per channel — the seed engine's
        #: unbounded ``dict[(router, port) -> cycle]`` grew without
        #: limit on long runs.
        self.channel_busy_until: list[int] = [0] * C
        #: Ejection-port occupancy per endpoint (busy-until cycle).
        self.eject_busy_until: list[int] = [0] * topology.num_endpoints

    # -- array views ---------------------------------------------------------

    @property
    def credits(self) -> np.ndarray:
        """``(num_channels, num_vcs)`` credit snapshot (copy)."""
        return np.asarray(self.credits_flat, dtype=np.int64).reshape(
            self.num_channels, self.num_vcs
        )

    @property
    def channel_busy_array(self) -> np.ndarray:
        return np.asarray(self.channel_busy_until, dtype=np.int64)

    @property
    def eject_busy_array(self) -> np.ndarray:
        return np.asarray(self.eject_busy_until, dtype=np.int64)

    # -- congestion signal (UGAL) ------------------------------------------------

    def queue_length(self, router: int, neighbor: int) -> int:
        """Output-queue occupancy toward ``neighbor`` as UGAL sees it."""
        c = self.chan_of[router][neighbor]
        V = self.num_vcs
        s = c * V
        return (
            len(self.out_stage[c])
            + self.channel_capacity
            - sum(self.credits_flat[s : s + V])
        )

    def queue_lengths(self) -> list[int]:
        """:meth:`queue_length` of every channel, by flat channel id."""
        V = self.num_vcs
        used = [self.channel_capacity] * self.num_channels
        # One C-level pass per VC over its strided credit column.
        for vc in range(V):
            used = map(operator.sub, used, self.credits_flat[vc::V])
        return list(map(operator.add, map(len, self.out_stage), used))

    def total_buffered(self) -> int:
        """Flits resident in input buffers + staging (conservation checks)."""
        total = sum(len(b) for b in self.in_fifo)
        total += sum(len(s) for s in self.out_stage)
        total += sum(len(q) for q in self.inject_queue)
        return total
