"""The cycle loop, batched-numpy edition (the ``cycle-vec`` backend).

Same four phases per cycle as :mod:`repro.sim.engine` — arrivals,
injection, switch allocation, transmission (credit return rides the
arrival phase) — but every phase operates as batched numpy operations
over preallocated flat arrays instead of per-flit Python loops:

- **Packet state** lives in struct-of-arrays form: one ``(pool, 4)``
  int64 array holding (dst endpoint, dst router, hop, inject time) per
  pool id, recycled through a free-list stack.  No ``Packet`` objects
  are ever built.
- **FIFOs** (input VC buffers, injection queues, output stages) are
  2-D ring buffers: a ``(queues, capacity)`` id array plus head/length
  vectors, so pushes and pops across all queues are fancy-indexed
  scatters/gathers.
- **Event wheels** (flit arrivals, credit returns) are fixed index
  arrays over the modulo horizon — one slice assignment schedules a
  whole cycle's events, one gather applies them.
- **Switch allocation** packs each head-flit request into a single
  int64 key ``(resource group, rank, seq)`` — group is the output
  channel for forwarding or the destination endpoint for ejection,
  rank/seq exactly the flat engine's tie-break.  Output resources are
  independent (credits belong to one port's buffers, ejection to one
  endpoint), so groups never interact: a request in a group holding no
  more requests than its capacity is granted outright, and only the
  *contested* groups (found with one ``bincount``) are sorted — the
  first ``speedup`` (or 1, for ejection) of each win.  When some
  requested buffer runs low on credits the decision is no longer
  positional; a wave loop then replays the per-group scan order with
  explicit credit accounting (rare below saturation).
- **MIN next-hops** resolve by fancy indexing a precomputed
  ``(router, destination) -> output channel`` matrix whose diagonal
  (-1) doubles as the ejection test.

Determinism: the engine replays the flat engine's RNG draw sequence
(one Bernoulli batch per cycle, one batched destination draw, source-
routed plans in source order) and its switch-allocation tie-break
(rank, then buffer first-use sequence, then endpoint order).  Event
ordering normally reduces to canonical ascending-channel order, with
one subtlety at cold start: the flat engine iterates a Python *set* of
active routers, whose order deviates from ascending while the set's
hash table is still small.  The engine mirrors that set exactly
(same add/discard traffic) and sorts transmissions by its iteration
order until the mirror provably turns ascending-forever, at which
point it is dropped.  The differential suite
(``tests/test_vec_equivalence.py``) pins ``cycle-vec`` against
``cycle`` bit-for-bit across the contract matrix, with the pinned
saturation/latency tolerance as the documented fallback contract.

Supported: open- and closed-loop traffic; table-driven (MIN),
source-routed (VAL/UGAL) and per-hop adaptive (FT ANCA) algorithms;
single- and multi-flit packets.  Closed-loop workloads run on
:class:`VecClosedLoopEngine`, which batches the dependency-gated
injection frontier (ready messages as index arrays, message->packet
segmentation via ``np.repeat``) and reuses the open-loop allocation
and transmit phases unchanged.  Per-hop adaptive algorithms consult
``next_hop()`` per head request per cycle from one shared RNG while
reading queue state that same-cycle grants mutate — a serial
dependency with no batched form — so switch allocation for them
replays the flat engine's scan scalar (:meth:`VecEngine._alloc_adaptive`)
while arrivals, injection and transmit stay vectorised.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.sim.config import SimConfig
from repro.sim.network import QueueSnapshot, channel_layout
from repro.sim.stats import SimResult
from repro.sim.telemetry import TelemetryResult, TelemetrySpec, latency_histogram
from repro.topologies.base import Topology
from repro.util.rng import make_rng

#: Hops a stored source-routed path may span (2x diameter covers VAL's
#: two stitched minimal legs on every topology this repo builds).
_PATH_SLOTS = 8


def packed_key_spans(topology: Topology, num_vcs: int, limit: int) -> tuple[int, int]:
    """``(rank span, seq span)`` of the engine's packed int64 grant keys.

    A key is ``(group * RANK_SPAN + rank) * SEQ_SPAN + seq`` over one
    group per channel and per ejection port, the flat engine's rank
    ``inject_time << 1 | is_injection`` for inject times up to
    ``limit`` cycles, and one seq per input buffer plus the injection
    slots of the busiest router.  Raises ``ValueError`` when a key
    could reach 2**62.
    """
    C = sum(len(nbrs) for nbrs in topology.adjacency)
    max_eps = max((len(e) for e in topology.endpoints_of_router), default=1)
    seq_span = C * num_vcs + 2 + max_eps
    rank_span = 2 * (limit + 2)
    if (C + topology.num_endpoints) * rank_span * seq_span >= 2**62:
        raise ValueError("simulation too large for packed int64 sort keys")
    return rank_span, seq_span


class _QueueView:
    """The live ``queue_length`` view per-hop adaptive routing reads.

    Exposes the same congestion signal as
    :meth:`repro.sim.network.SimNetwork.queue_length`, backed by the
    vectorised engine's arrays, so FT-ANCA's per-request decisions in
    :meth:`VecEngine._alloc_adaptive` see the grants made earlier in the
    same scan.  Memoryviews of the live credit and stage-length arrays
    read their elements as Python ints: a read is a few index
    operations, not a numpy reduction.  The engine updates both arrays
    in place and never rebinds them, so the views stay live.
    """

    __slots__ = ("_chan_of", "_stage_len", "_credits", "_V", "_full")

    def __init__(self, chan_of, stage_len, credits, V, cap):
        self._chan_of = chan_of
        self._stage_len = memoryview(stage_len)
        self._credits = memoryview(credits)
        self._V = V
        self._full = cap * V

    def queue_length(self, router: int, neighbor: int) -> int:
        c = self._chan_of[router][neighbor]
        s = c * self._V
        return self._stage_len[c] + self._full - sum(self._credits[s : s + self._V])


class VecEngine:
    """Drives one batched-numpy simulation run (open loop only)."""

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        traffic,
        offered_load: float,
        config: SimConfig | None = None,
        trace_channels: bool = False,
        telemetry: TelemetrySpec | None = None,
    ):
        self.topology = topology
        self.routing = routing
        self.traffic = traffic
        self.offered_load = float(offered_load)
        self.config = config or SimConfig()
        if self.config.num_vcs < routing.num_vcs:
            self.config = self.config.with_vcs(routing.num_vcs)
        cfg = self.config
        #: Armed probe selection, or None (the zero-cost default).
        self.telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        tele = self.telemetry
        #: ``trace_channels`` survives as a thin alias for the
        #: ``channel_flits`` telemetry probe (see the flat engine).
        self.trace_channels = bool(
            trace_channels or (tele is not None and tele.channel_flits)
        )

        table_driven = getattr(routing, "table_driven", False)
        source_routed = getattr(routing, "source_routed", False)

        nr = topology.num_routers
        _, port_base, chan_src, chan_dst = channel_layout(topology)
        C = int(port_base[-1])
        V = cfg.num_vcs
        cap = cfg.buffer_per_vc
        n_ep = topology.num_endpoints
        self.num_routers = nr
        self.num_channels = C
        self.num_vcs = V
        self._cap = cap
        self._n_ep = n_ep
        self._chan_src = chan_src
        self._chan_dst = chan_dst
        self._speedup = cfg.speedup
        self._L = cfg.packet_length

        #: Flat channel id of every ordered router pair (-1 = no link;
        #: the diagonal's -1 is the vectorised "eject here" test).
        chan_of = np.full((nr, nr), -1, dtype=np.int64)
        chan_of[chan_src, chan_dst] = np.arange(C, dtype=np.int64)

        self._next_chan_flat: np.ndarray | None = None
        self._plan = None
        #: Per-hop adaptive ``next_hop`` (FT ANCA): consulted per head
        #: request per cycle by :meth:`_alloc_adaptive`; None otherwise.
        self._adaptive = None
        self._chan_of_list: list[list[int]] | None = None
        self._view: _QueueView | None = None
        if table_driven:
            nh = np.asarray(routing.next_hop_table(), dtype=np.int64)
            self._next_chan_flat = chan_of[
                np.arange(nr, dtype=np.int64)[:, None], nh
            ].ravel()
        else:
            if source_routed:
                self._plan = routing.plan
            else:
                self._adaptive = routing.next_hop
            self._chan_of_list = chan_of.tolist()

        # -- flow-control state (all preallocated) -------------------------
        NB = C * V
        self._NB = NB
        self.credits = np.full(NB, cap, dtype=np.int64)
        #: Router at which buffer b resides (= chan_dst of its channel).
        self._buf_router = np.repeat(chan_dst, V)
        self._buf_router_list = self._buf_router.tolist()
        #: Source router of buffer b's channel (credit-return target).
        self._buf_src = np.repeat(chan_src, V)
        #: ``buf_router * nr``, pre-scaled for next-hop matrix lookups.
        self._buf_rnr = self._buf_router * nr
        # Input-buffer rings: credits bound occupancy by `cap` packets.
        self._buf_store = np.zeros((NB, cap), dtype=np.int64)
        self._buf_head = np.zeros(NB, dtype=np.int64)
        self._buf_len = np.zeros(NB, dtype=np.int64)
        #: First-use sequence per buffer (the flat engine's in_order
        #: tie-break), assigned from per-router counters on first
        #: arrival; -1 = never used.
        self._in_seq = np.full(NB, -1, dtype=np.int64)
        self._rseq = [0] * nr
        self._unseen = True
        #: Injection-FIFO sequence: after every possible input FIFO.
        inj_seq = np.zeros(n_ep, dtype=np.int64)
        ep_router = np.zeros(n_ep, dtype=np.int64)
        for r, eps in enumerate(topology.endpoints_of_router):
            for i, ep in enumerate(eps):
                inj_seq[ep] = NB + 1 + i
                ep_router[ep] = r
        self._inj_seq = inj_seq
        self._ep_router = ep_router
        self._ep_rnr = ep_router * nr
        # Output stages: one (packet, downstream buffer) slot ring per
        # channel; staged packets hold downstream credits, bounding
        # occupancy.
        scap = V * cap + 1
        self._scap = scap
        self._stage_sb = np.zeros((C, scap, 2), dtype=np.int64)
        self._stage_head = np.zeros(C, dtype=np.int64)
        self._stage_len = np.zeros(C, dtype=np.int64)
        # Injection rings (unbounded: grown by doubling past saturation).
        self._icap = 16
        self._inj_store = np.zeros((n_ep, self._icap), dtype=np.int64)
        self._inj_head = np.zeros(n_ep, dtype=np.int64)
        self._inj_len = np.zeros(n_ep, dtype=np.int64)
        #: Conservative upper bound on max(_inj_len): bumped by one per
        #: injecting cycle, trued up against the real max only when it
        #: nears the ring capacity (saves a 200-element reduction per
        #: cycle on the hot path).
        self._inj_maxbound = 0
        # Busy-until state (multi-flit serialisation).
        self._chan_busy = np.zeros(C, dtype=np.int64)
        self._eject_busy = np.zeros(n_ep, dtype=np.int64)

        # -- packet pool (struct of arrays + free-list) --------------------
        pool = max(4096, 4 * n_ep)
        self._pool = pool
        #: Columns: dst endpoint, dst router, hop, inject time.
        self._ps = np.zeros((pool, 4), dtype=np.int64)
        self._p_start = np.zeros(pool, dtype=np.int64)
        self._p_path = (
            np.zeros((pool, _PATH_SLOTS), dtype=np.int64)
            if self._plan is not None
            else None
        )
        self._free = np.arange(pool, dtype=np.int64)
        self._free_top = pool

        # -- event wheels --------------------------------------------------
        H = cfg.hop_latency + cfg.packet_length
        self._arr_horizon = H
        #: Per slot: up to C (packet, destination buffer) pairs.
        self._arr_ev = np.zeros((H, C, 2), dtype=np.int64)
        self._arr_n = [0] * H
        Hc = cfg.credit_delay + 1
        self._credit_horizon = Hc
        self._cw = np.zeros((Hc, 2 * C + n_ep), dtype=np.int64)
        self._cw_n = [0] * Hc

        # -- tie-break key packing -----------------------------------------
        # key = grp * (RANK_SPAN * SEQ_SPAN) + inject_time * (2 * SEQ_SPAN)
        #       + injection_bit * SEQ_SPAN + seq
        # == ((grp * RANK_SPAN) + rank) * SEQ_SPAN + seq with the flat
        # engine's rank = inject_time << 1 | is_injection.
        deadline = cfg.warmup_cycles + cfg.measure_cycles + cfg.drain_cycles
        rank_span, seq_span = packed_key_spans(topology, V, deadline)
        n_groups = C + n_ep
        self._n_groups = n_groups
        self._k_grp = rank_span * seq_span
        self._k_inj = 2 * seq_span
        #: Buffered / injection seq term with the injection bit folded in.
        self._in_seqk = self._in_seq  # seq, assigned on first use
        self._inj_seqk = inj_seq + seq_span
        #: Per-group grant capacity: `speedup` per output channel, one
        #: per ejection port.
        self._gcap_g = np.concatenate(
            [
                np.full(C, cfg.speedup, dtype=np.int64),
                np.ones(n_ep, dtype=np.int64),
            ]
        )
        self._gcnt = np.zeros(n_groups, dtype=np.int64)

        # -- scratch (sized for the worst-case request count) --------------
        nmax = NB + n_ep
        self._s_pk = np.empty(nmax, dtype=np.int64)
        self._s_seqk = np.empty(nmax, dtype=np.int64)
        self._idx = np.arange(nmax, dtype=np.int64)

        self.rng = make_rng(cfg.seed)
        self.active_endpoints = list(traffic.active_endpoints(topology))
        self._active_eps_arr = (
            np.asarray(self.active_endpoints, dtype=np.int64)
            if self.active_endpoints
            else None
        )
        self._emap = np.asarray(topology.endpoint_map, dtype=np.int64)
        self._excludes_self = traffic.excludes_self
        if self._adaptive is not None:
            self._view = _QueueView(
                self._chan_of_list, self._stage_len, self.credits, V, cap
            )
        #: Per-delivery callback over ejected pool ids; stays None open
        #: loop.  The closed-loop subclass uses it to track message
        #: completion without duplicating the allocation phase.
        self._deliver_pids = None

        #: Mirror of the flat engine's ``active_routers`` set.  Its
        #: CPython iteration order is the flat engine's transmit order,
        #: which fixes the first-use sequence of input buffers (the
        #: allocation tie-break).  For small-int router ids the order
        #: is ascending — the canonical order this engine transmits in
        #: — except while the set's hash table is still small (cold
        #: start).  We replay the same add/discard traffic on a real
        #: set and sort transmits by its iteration order until it holds
        #: every router ascending: from then on re-adds hit their home
        #: slots and the order is ascending forever, so the mirror is
        #: dropped.
        self._mirror: set[int] | None = set()
        self._router_range = list(range(nr))

        self.now = 0
        self.measured_injected = 0
        self.measured_delivered = 0
        self.window_ejections = 0
        self._lat_chunks: list[np.ndarray] = []
        self._qlat_chunks: list[np.ndarray] = []
        self._pending = 0
        self._n_buffered = 0
        self._n_staged = 0
        self._n_injq = 0
        self._trace = np.zeros(C, dtype=np.int64) if self.trace_channels else None
        # Telemetry probe state (allocated only when armed; the hot
        # phases pay one None check per batch when off).
        self._tele_occ = tele is not None and tele.queue_occupancy
        self._tele_route = tele is not None and tele.routing_decisions
        self._occ = np.zeros(nr, dtype=np.int64) if self._tele_occ else None
        self._occ_max = np.zeros(nr, dtype=np.int64) if self._tele_occ else None
        self._route_total = 0
        self._route_diverted = 0
        self._tele_dist: list[list[int]] | None = None
        if self._tele_route:
            tables = getattr(routing, "tables", None)
            if tables is not None:
                self._tele_dist = tables.dist.tolist()

    # -- pool / ring growth ----------------------------------------------------

    def _grow_pool(self, need: int) -> None:
        old = self._pool
        new = old
        while new - old + self._free_top < need:
            new *= 2
        grow = new - old
        self._ps = np.concatenate([self._ps, np.zeros((grow, 4), dtype=np.int64)])
        self._p_start = np.concatenate(
            [self._p_start, np.zeros(grow, dtype=np.int64)]
        )
        if self._p_path is not None:
            self._p_path = np.concatenate(
                [self._p_path, np.zeros((grow, _PATH_SLOTS), dtype=np.int64)]
            )
        free = np.empty(new, dtype=np.int64)
        free[: self._free_top] = self._free[: self._free_top]
        free[self._free_top : self._free_top + grow] = np.arange(
            old, new, dtype=np.int64
        )
        self._free = free
        self._free_top += grow
        self._pool = new

    def _grow_inj(self) -> None:
        old = self._icap
        new = old * 2
        store = np.zeros((self._n_ep, new), dtype=np.int64)
        # Re-anchor every ring at offset 0 (rare: doubling schedule).
        heads = self._inj_head.tolist()
        lens = self._inj_len.tolist()
        for ep in range(self._n_ep):
            ln = lens[ep]
            if ln:
                h = heads[ep]
                idx = (h + np.arange(ln)) % old
                store[ep, :ln] = self._inj_store[ep, idx]
        self._inj_store = store
        self._inj_head[:] = 0
        self._icap = new

    # -- cycle phases ----------------------------------------------------------

    def _phase_arrivals(self) -> None:
        now = self.now
        mirror = self._mirror
        slot = now % self._arr_horizon
        k = self._arr_n[slot]
        if k:
            self._arr_n[slot] = 0
            self._pending -= k
            ev = self._arr_ev[slot, :k]
            p = ev[:, 0]
            b = ev[:, 1]
            if mirror is not None:
                mirror.update(self._buf_router[b].tolist())
            if self._unseen:
                seqs = self._in_seq[b]
                if (seqs < 0).any():
                    in_seq = self._in_seq
                    rseq = self._rseq
                    brl = self._buf_router_list
                    for bb in b[seqs < 0].tolist():
                        r = brl[bb]
                        in_seq[bb] = rseq[r]
                        rseq[r] += 1
            pos = self._buf_head[b] + self._buf_len[b]
            cap = self._cap
            pos[pos >= cap] -= cap
            self._buf_store[b, pos] = p
            self._buf_len[b] += 1
            self._n_buffered += k
            if self._tele_occ:
                # Arrivals only increment, so the post-batch maximum
                # equals the flat engine's per-packet running max.
                np.add.at(self._occ, self._buf_router[b], 1)
                np.maximum(self._occ_max, self._occ, out=self._occ_max)
        cslot = now % self._credit_horizon
        m = self._cw_n[cslot]
        if m:
            self._cw_n[cslot] = 0
            # One key per freed packet slot group; keys are distinct
            # (a FIFO pops at most one head per cycle), so a fancy add
            # is safe.  Multi-flit packets return all L credits at once.
            keys = self._cw[cslot, :m]
            self.credits[keys] += self._L
            if mirror is not None:
                mirror.update(self._buf_src[keys].tolist())

    def _phase_injection(self, measuring: bool) -> None:
        load = self.offered_load / self._L
        if load <= 0.0 or self._active_eps_arr is None:
            return
        coins = self.rng.random(len(self.active_endpoints)) < load
        if not coins.any():
            return
        srcs = self._active_eps_arr[coins]
        dsts = self.traffic.destinations(srcs, self.rng)
        now = self.now
        if not self._excludes_self:
            # Idle slots and self-directed draws come back as dst == src.
            keep = dsts != srcs
            if not keep.all():
                srcs = srcs[keep]
                dsts = dsts[keep]
        k = len(srcs)
        if k == 0:
            return
        if self._mirror is not None:
            self._mirror.update(self._emap[srcs].tolist())
        if self._free_top < k:
            self._grow_pool(k)
        self._free_top -= k
        ids = self._free[self._free_top : self._free_top + k].copy()
        dst_rt = self._emap[dsts]
        ps = self._ps
        ps[ids, 0] = dsts
        ps[ids, 1] = dst_rt
        ps[ids, 2] = 0
        ps[ids, 3] = now
        self._p_start[ids] = now
        if self._plan is not None:
            # Source-routed plans, drawn in source order: the identical
            # RNG consumption (and, for UGAL, the identical queue view)
            # as the flat engine's injection loop.
            src_rt = self._emap[srcs]
            plan = self._plan
            if self._tele_route:
                plan = self._counted_plan(plan)
            view = self._queue_snapshot()
            chan_of = self._chan_of_list
            path_rows = self._p_path
            for pid, sr, dr in zip(ids.tolist(), src_rt.tolist(), dst_rt.tolist()):
                path = plan(sr, dr, view)
                row = path_rows[pid]
                for h in range(len(path) - 1):
                    row[h] = chan_of[path[h]][path[h + 1]]
        self._inj_maxbound += 1
        if self._inj_maxbound >= self._icap - 1:
            true_max = int(self._inj_len.max())
            if true_max >= self._icap - 1:
                self._grow_inj()
            self._inj_maxbound = true_max + 1
        pos = self._inj_head[srcs] + self._inj_len[srcs]
        icap = self._icap
        pos[pos >= icap] -= icap
        self._inj_store[srcs, pos] = ids
        self._inj_len[srcs] += 1
        self._n_injq += k
        if self._tele_occ:
            np.add.at(self._occ, self._emap[srcs], 1)
            np.maximum(self._occ_max, self._occ, out=self._occ_max)
        if self._tele_route and self._plan is None:
            # Table-driven protocols never call plan(); every injected
            # packet follows the minimal next-hop table.
            self._route_total += k
        if measuring:
            self.measured_injected += k

    def _queue_snapshot(self) -> QueueSnapshot:
        """This injection phase's queue view (see :class:`QueueSnapshot`)."""
        return QueueSnapshot(self._chan_of_list, self._queue_lengths)

    def _queue_lengths(self) -> list[int]:
        """Per-channel ``queue_length``: staged packets plus the flits
        buffered downstream (capacity minus credits, summed over VCs)."""
        C, V = self.num_channels, self.num_vcs
        down = self._cap * V - self.credits.reshape(C, V).sum(axis=1)
        return (self._stage_len + down).tolist()

    def _counted_plan(self, plan):
        """Wrap ``plan()`` with the routing-decision counters — the
        same definition as the flat engine's, so counters agree."""
        dist = self._tele_dist

        def counted(src_router, dst_router, view):
            path = plan(src_router, dst_router, view)
            self._route_total += 1
            if dist is not None and len(path) - 1 > dist[src_router][dst_router]:
                self._route_diverted += 1
            return path

        return counted

    def _phase_switch_allocation(self) -> None:
        if self._adaptive is not None:
            return self._alloc_adaptive()
        ob = self._buf_len.nonzero()[0]
        oe = self._inj_len.nonzero()[0]
        nb = ob.size
        ne = oe.size
        n = nb + ne
        if self._mirror is not None:
            # The flat engine drops idle routers from its active set
            # here; membership after allocation is exactly the routers
            # with head requests or staged output.
            busy = set(
                self._chan_src[self._stage_len.nonzero()[0]].tolist()
            )
            if nb:
                busy.update(self._buf_router[ob].tolist())
            if ne:
                busy.update(self._ep_router[oe].tolist())
            # Discard in place (never intersection_update: that
            # rebuilds the hash table and loses the iteration order
            # the flat engine's per-element discards preserve).
            mirror = self._mirror
            stale = [r for r in mirror if r not in busy]
            for r in stale:
                mirror.discard(r)
        if n == 0:
            return
        now = self.now
        L = self._L
        speedup = self._speedup
        V = self.num_vcs
        C = self.num_channels

        # -- assemble head-flit requests (buffered first, then inject) -----
        pk = self._s_pk[:n]
        seqk = self._s_seqk[:n]
        if nb:
            pk[:nb] = self._buf_store[ob, self._buf_head[ob]]
            seqk[:nb] = self._in_seq[ob]
        if ne:
            pk[nb:] = self._inj_store[oe, self._inj_head[oe]]
            seqk[nb:] = self._inj_seqk[oe]
        ps = self._ps[pk]
        dst_rt = ps[:, 1]
        if self._next_chan_flat is not None:
            cidx = dst_rt.copy()
            if nb:
                cidx[:nb] += self._buf_rnr[ob]
            if ne:
                cidx[nb:] += self._ep_rnr[oe]
            cout = self._next_chan_flat[cidx]
            ej = cout < 0  # the next-hop matrix diagonal
        else:
            rtr = np.empty(n, dtype=np.int64)
            if nb:
                rtr[:nb] = self._buf_router[ob]
            if ne:
                rtr[nb:] = self._ep_router[oe]
            ej = dst_rt == rtr
            hops = ps[:, 2]
            # Clip for ejection rows whose packet traversed a full
            # maximum-length path (the gathered value is unused there).
            cout = self._p_path[pk, np.minimum(hops, _PATH_SLOTS - 1)]
        bout = cout * V + np.minimum(ps[:, 2], V - 1)
        grp = np.where(ej, C + ps[:, 0], cout)
        key = grp * self._k_grp + ps[:, 3] * self._k_inj + seqk

        # -- grant decision ------------------------------------------------
        # Credit screen: when every downstream buffer can absorb a full
        # allocation round, grants are purely positional.
        credits = self.credits
        fast = int(credits.min()) >= speedup * L
        if not fast:
            fwd = (~ej).nonzero()[0]
            fast = (
                fwd.size == 0
                or int(credits[bout[fwd]].min()) >= speedup * L
            )
        if fast:
            grant = self._grant_positional(n, grp, key, ej)
            if L > 1:
                gem = (grant & ej).nonzero()[0]
                if gem.size:
                    busy_g = self._eject_busy[ps[gem, 0]] > now
                    if busy_g.any():
                        grant[gem[busy_g]] = False
        else:
            grant = self._grant_waves(n, grp, key, ej, bout, now)

        gi = grant.nonzero()[0]
        if gi.size == 0:
            return

        # -- pop granted heads; buffered pops return their credits ---------
        split = int(np.searchsorted(gi, nb))
        bsel = gi[:split]
        if bsel.size:
            bb = ob[bsel]
            h = self._buf_head[bb] + 1
            h[h >= self._cap] = 0
            self._buf_head[bb] = h
            self._buf_len[bb] -= 1
            self._n_buffered -= bsel.size
            if self._tele_occ:
                np.subtract.at(self._occ, self._buf_router[bb], 1)
            cslot = (now + self.config.credit_delay) % self._credit_horizon
            m = self._cw_n[cslot]
            self._cw[cslot, m : m + bb.size] = bb
            self._cw_n[cslot] = m + bb.size
        esel = gi[split:]
        if esel.size:
            ee = oe[esel - nb]
            h = self._inj_head[ee] + 1
            h[h >= self._icap] = 0
            self._inj_head[ee] = h
            self._inj_len[ee] -= 1
            self._n_injq -= esel.size
            self._p_start[pk[esel]] = now
            if self._tele_occ:
                np.subtract.at(self._occ, self._ep_router[ee], 1)

        # -- deliver granted ejections -------------------------------------
        gej = ej[gi]
        eji = gi[gej]
        if eji.size:
            epk = pk[eji]
            if L > 1:
                self._eject_busy[ps[eji, 0]] = now + L
            inj_t = ps[eji, 3]
            meas = (inj_t >= self._warmup) & (inj_t < self._end_measure)
            nmeas = int(meas.sum())
            if nmeas:
                self.measured_delivered += nmeas
                self._lat_chunks.append((now + L - inj_t)[meas])
                self._qlat_chunks.append((self._p_start[epk] - inj_t)[meas])
            if self._in_window:
                self.window_ejections += L * eji.size
            if self._deliver_pids is not None:
                self._deliver_pids(epk)
            self._free[self._free_top : self._free_top + eji.size] = epk
            self._free_top += eji.size

        # -- stage granted forwards ----------------------------------------
        fsel = gi[~gej]
        if fsel.size:
            # Stage rings must hold same-cycle pushes in grant (= key)
            # order; for forwarding rows the packed key is
            # channel-major already, so one small argsort yields both
            # the per-channel ordering and the duplicate offsets.
            so = np.argsort(key[fsel])
            fsel = fsel[so]
            fc = cout[fsel]
            fbuf = bout[fsel]
            np.subtract.at(credits, fbuf, L)
            i2 = self._idx[: fc.size]
            boundary = np.empty(fc.size, dtype=bool)
            boundary[0] = True
            if fc.size > 1:
                np.not_equal(fc[1:], fc[:-1], out=boundary[1:])
            off = i2 - np.maximum.accumulate(i2 * boundary)
            spos = self._stage_head[fc] + self._stage_len[fc] + off
            spos %= self._scap
            self._stage_sb[fc, spos, 0] = pk[fsel]
            self._stage_sb[fc, spos, 1] = fbuf
            # Boundary rows carry their channel's full push count.
            last = np.empty(fc.size, dtype=bool)
            last[-1] = True
            if fc.size > 1:
                last[:-1] = boundary[1:]
            self._stage_len[fc[last]] += off[last] + 1
            self._n_staged += fsel.size

    def _alloc_adaptive(self) -> None:
        """Switch allocation for per-hop adaptive routing (FT ANCA).

        The flat engine consults ``next_hop()`` for every head request
        every cycle — even when the grant then fails — drawing from one
        shared RNG and reading queue lengths that same-cycle grants at
        the same router already mutated.  That serial dependency admits
        no batched grant, so this path replays the flat scan exactly:
        routers in active-set iteration order, requests per router
        oldest-first (the same packed rank/seq key), each grant applied
        immediately so the queue view the next ``next_hop()`` call
        reads is bit-identical.  All other phases stay vectorised.

        The ``packet`` argument of ``next_hop`` is passed as ``None``
        (this engine builds no Packet objects); every per-hop algorithm
        in the registry decides on (router, destination, queue view)
        alone.
        """
        ob = self._buf_len.nonzero()[0]
        oe = self._inj_len.nonzero()[0]
        nb = ob.size
        ne = oe.size
        n = nb + ne
        mirror = self._mirror
        if mirror is not None:
            busy = set(
                self._chan_src[self._stage_len.nonzero()[0]].tolist()
            )
            if nb:
                busy.update(self._buf_router[ob].tolist())
            if ne:
                busy.update(self._ep_router[oe].tolist())
            stale = [r for r in mirror if r not in busy]
            for r in stale:
                mirror.discard(r)
        if n == 0:
            return
        now = self.now
        L = self._L
        speedup = self._speedup
        V = self.num_vcs
        vc_cap = V - 1
        cap = self._cap
        icap = self._icap
        scap = self._scap
        credits = self.credits
        ps = self._ps
        chan_of = self._chan_of_list
        next_hop = self._adaptive
        view = self._view
        eject_busy = self._eject_busy
        occ = self._occ

        pk = self._s_pk[:n]
        seqk = self._s_seqk[:n]
        if nb:
            pk[:nb] = self._buf_store[ob, self._buf_head[ob]]
            seqk[:nb] = self._in_seq[ob]
        if ne:
            pk[nb:] = self._inj_store[oe, self._inj_head[oe]]
            seqk[nb:] = self._inj_seqk[oe]
        rtr = np.empty(n, dtype=np.int64)
        if nb:
            rtr[:nb] = self._buf_router[ob]
        if ne:
            rtr[nb:] = self._ep_router[oe]
        qid = np.empty(n, dtype=np.int64)
        if nb:
            qid[:nb] = ob
        if ne:
            qid[nb:] = oe
        # (rank, seq) collapse into one int: the flat request sort key
        # (seqk already folds the injection bit in via seq_span).
        lkey = ps[pk, 3] * self._k_inj + seqk
        if mirror is not None:
            # Requesting routers are busy by construction, so every one
            # survives the discard above and keeps its mirror position.
            rpos = {r: i for i, r in enumerate(mirror)}
            rord = np.fromiter(
                (rpos[r] for r in rtr.tolist()), dtype=np.int64, count=n
            )
            order = np.lexsort((lkey, rord))
        else:
            order = np.lexsort((lkey, rtr))

        cslot = (now + self.config.credit_delay) % self._credit_horizon
        cw = self._cw[cslot]
        buf_head = self._buf_head
        buf_len = self._buf_len
        inj_head = self._inj_head
        inj_len = self._inj_len
        stage_head = self._stage_head
        stage_len = self._stage_len
        stage_sb = self._stage_sb
        p_start = self._p_start
        warmup = self._warmup
        end_measure = self._end_measure
        delivered_pids: list[int] = []
        granted: dict[int, int] = {}
        cur_router = -1
        for i in order.tolist():
            r = int(rtr[i])
            if r != cur_router:
                cur_router = r
                granted = {}
            p = int(pk[i])
            row = ps[p]
            dst_rt = int(row[1])
            is_inj = i >= nb
            q = int(qid[i])
            if dst_rt == r:
                ep = int(row[0])
                if eject_busy[ep] > now:
                    continue
                eject_busy[ep] = now + L
                if is_inj:
                    h = inj_head[q] + 1
                    inj_head[q] = h if h < icap else 0
                    inj_len[q] -= 1
                    self._n_injq -= 1
                    p_start[p] = now
                else:
                    h = buf_head[q] + 1
                    buf_head[q] = h if h < cap else 0
                    buf_len[q] -= 1
                    self._n_buffered -= 1
                    m = self._cw_n[cslot]
                    cw[m] = q
                    self._cw_n[cslot] = m + 1
                if occ is not None:
                    occ[r] -= 1
                inj_t = int(row[3])
                if warmup <= inj_t < end_measure:
                    self.measured_delivered += 1
                    self._lat_chunks.append(
                        np.array([now + L - inj_t], dtype=np.int64)
                    )
                    self._qlat_chunks.append(
                        np.array([int(p_start[p]) - inj_t], dtype=np.int64)
                    )
                if self._in_window:
                    self.window_ejections += L
                delivered_pids.append(p)
                self._free[self._free_top] = p
                self._free_top += 1
                continue
            nbr = next_hop(r, dst_rt, None, view)
            c = chan_of[r][nbr]
            g = granted.get(c, 0)
            if g >= speedup:
                continue
            hop = int(row[2])
            vc = hop if hop < vc_cap else vc_cap
            b_out = c * V + vc
            if credits[b_out] < L:
                continue
            credits[b_out] -= L
            granted[c] = g + 1
            if is_inj:
                h = inj_head[q] + 1
                inj_head[q] = h if h < icap else 0
                inj_len[q] -= 1
                self._n_injq -= 1
                p_start[p] = now
            else:
                h = buf_head[q] + 1
                buf_head[q] = h if h < cap else 0
                buf_len[q] -= 1
                self._n_buffered -= 1
                m = self._cw_n[cslot]
                cw[m] = q
                self._cw_n[cslot] = m + 1
            if occ is not None:
                occ[r] -= 1
            spos = stage_head[c] + stage_len[c]
            if spos >= scap:
                spos -= scap
            stage_sb[c, spos, 0] = p
            stage_sb[c, spos, 1] = b_out
            stage_len[c] += 1
            self._n_staged += 1
        if delivered_pids and self._deliver_pids is not None:
            self._deliver_pids(np.asarray(delivered_pids, dtype=np.int64))

    def _grant_positional(self, n, grp, key, ej):
        """Grant when credits are plentiful: capacity is per group, so
        uncontested groups (no more requests than capacity) grant
        outright and only contested ones need their key order."""
        cnt = np.bincount(grp, minlength=self._n_groups)
        over = cnt > self._gcap_g
        if not over.any():
            return np.ones(n, dtype=bool)
        contested = over[grp]
        grant = ~contested
        ci = contested.nonzero()[0]
        so = np.argsort(key[ci])
        cg = grp[ci[so]]
        i2 = self._idx[: ci.size]
        boundary = np.empty(ci.size, dtype=bool)
        boundary[0] = True
        np.not_equal(cg[1:], cg[:-1], out=boundary[1:])
        pos = i2 - np.maximum.accumulate(i2 * boundary)
        win = pos < self._gcap_g[cg]
        grant[ci[so[win]]] = True
        return grant

    def _grant_waves(self, n, grp, key, ej, bout, now):
        """Credit-scarce fallback: replay per-group scan order exactly.

        Ejection groups resolve in one shot (capacity 1, busy-gated);
        forwarding groups grant in waves — each wave decides the first
        undecided request of every group, port counters and a working
        credit copy carrying the outcome forward, with a bulk deny once
        a port exhausts its ``speedup`` grants.
        """
        order = np.argsort(key)
        g = grp[order]
        eo = ej[order]
        bo = bout[order]
        idx = self._idx[:n]
        new = np.empty(n, dtype=bool)
        new[0] = True
        np.not_equal(g[1:], g[:-1], out=new[1:])
        pos = idx - np.maximum.accumulate(idx * new)

        grant = np.zeros(n, dtype=bool)
        decided = eo.copy()
        em = eo & (pos == 0)
        if em.any():
            if self._L > 1:
                pk_em = self._s_pk[:n][order[em]]
                free = self._eject_busy[self._ps[pk_em, 0]] <= now
                gem = em.nonzero()[0]
                grant[gem[free]] = True
            else:
                grant[em] = True
        credits = self.credits.copy()
        gcnt = self._gcnt
        gcnt[:] = 0
        speedup = self._speedup
        L = self._L
        while True:
            und = (~decided).nonzero()[0]
            if und.size == 0:
                break
            gu = g[und]
            first = np.empty(und.size, dtype=bool)
            first[0] = True
            np.not_equal(gu[1:], gu[:-1], out=first[1:])
            cidx = und[first]
            cg = g[cidx]
            cb = bo[cidx]
            ok = (gcnt[cg] < speedup) & (credits[cb] >= L)
            decided[cidx] = True
            grant[cidx] = ok
            if ok.any():
                np.add.at(gcnt, cg[ok], 1)
                np.subtract.at(credits, cb[ok], L)
            und = (~decided).nonzero()[0]
            if und.size:
                dead = gcnt[g[und]] >= speedup
                if dead.any():
                    decided[und[dead]] = True
        out = np.empty(n, dtype=bool)
        out[order] = grant
        return out

    def _phase_transmit(self) -> None:
        tc = self._stage_len.nonzero()[0]
        mirror = self._mirror
        if mirror is not None:
            if (
                len(mirror) == self.num_routers
                and list(mirror) == self._router_range
            ):
                # Full and ascending: CPython keeps a grown small-int
                # table canonical forever, so the flat engine's
                # transmit order is ascending from here on.
                self._mirror = None
            elif tc.size > 1:
                # Replay the flat engine's router iteration order
                # (ports stay ascending within a router).
                pos = {r: i for i, r in enumerate(mirror)}
                src = self._chan_src
                C = self.num_channels
                okey = [pos[src[c]] * C + c for c in tc.tolist()]
                tc = tc[np.argsort(okey)]
        if tc.size == 0:
            return
        now = self.now
        L = self._L
        if L > 1:
            tc = tc[self._chan_busy[tc] <= now]
            if tc.size == 0:
                return
            self._chan_busy[tc] = now + L
        k = tc.size
        heads = self._stage_head[tc]
        pairs = self._stage_sb[tc, heads]
        heads = heads + 1
        heads[heads >= self._scap] = 0
        self._stage_head[tc] = heads
        self._stage_len[tc] -= 1
        self._n_staged -= k
        self._ps[pairs[:, 0], 2] += 1
        if self._trace is not None:
            self._trace[tc] += L
        slot = (now + self.config.hop_latency + L - 1) % self._arr_horizon
        self._arr_ev[slot, :k] = pairs
        self._arr_n[slot] = k
        self._pending += k

    # -- main loop -------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        warmup, measure = cfg.warmup_cycles, cfg.measure_cycles
        end_measure = warmup + measure
        deadline = end_measure + cfg.drain_cycles
        self._warmup = warmup
        self._end_measure = end_measure
        self._in_window = False

        while True:
            t = self.now
            measuring = warmup <= t < end_measure
            self._in_window = measuring
            self._phase_arrivals()
            if t < end_measure:
                self._phase_injection(measuring)
            self._phase_switch_allocation()
            self._phase_transmit()
            self.now += 1
            if self.now >= end_measure:
                drained = self.measured_delivered >= self.measured_injected
                if (
                    drained
                    and not self._pending
                    and not self._n_buffered
                    and not self._n_staged
                    and not self._n_injq
                ):
                    break
                if drained and self.now >= end_measure + 8:
                    break
                if self.now >= deadline:
                    break

        n_active = max(1, len(self.active_endpoints))
        accepted = self.window_ejections / (n_active * measure) if measure else 0.0
        drained = self.measured_delivered >= self.measured_injected
        injected_rate = (
            self.measured_injected * cfg.packet_length / (n_active * measure)
            if measure
            else 0.0
        )
        saturated = (not drained) or (
            injected_rate > 0 and accepted < 0.95 * injected_rate
        )
        lats = (
            np.concatenate(self._lat_chunks)
            if self._lat_chunks
            else np.empty(0, dtype=np.int64)
        )
        qlats = (
            np.concatenate(self._qlat_chunks)
            if self._qlat_chunks
            else np.empty(0, dtype=np.int64)
        )
        return SimResult(
            offered_load=self.offered_load,
            accepted_load=accepted,
            avg_latency=float(np.mean(lats)) if lats.size else float("nan"),
            p99_latency=float(np.percentile(lats, 99)) if lats.size else float("nan"),
            delivered=self.measured_delivered,
            injected=self.measured_injected,
            saturated=saturated,
            cycles=self.now,
            avg_queue_latency=float(np.mean(qlats)) if qlats.size else float("nan"),
            telemetry=self._telemetry_result(lats),
        )

    def _telemetry_result(self, lats: np.ndarray) -> TelemetryResult | None:
        """Assemble armed-probe measurements (None when telemetry is off).

        Mirrors :meth:`repro.sim.engine.SimEngine._telemetry_result`
        value for value: identical bin edges, the same flat channel
        numbering, and per-channel loads computed with the same Python
        ``int / int`` division, so results compare equal bit for bit.
        """
        tele = self.telemetry
        if tele is None:
            return None
        cycles = self.now
        hist = latency_histogram(lats) if tele.latency_hist else None
        channel_flits = channel_load = None
        if tele.channel_flits:
            channel_flits = tuple(int(f) for f in self._trace.tolist())
            channel_load = tuple(
                (f / cycles if cycles else 0.0) for f in channel_flits
            )
        route_packets = route_diverted = frac = None
        if self._tele_route:
            route_packets = self._route_total
            route_diverted = self._route_diverted
            frac = route_diverted / route_packets if route_packets else 0.0
        return TelemetryResult(
            cycles=cycles,
            latency_hist=hist,
            channel_flits=channel_flits,
            channel_load=channel_load,
            max_queue=(
                tuple(int(x) for x in self._occ_max.tolist())
                if self._tele_occ
                else None
            ),
            route_packets=route_packets,
            route_diverted=route_diverted,
            route_diverted_frac=frac,
        )

    # -- tracing ---------------------------------------------------------------

    @property
    def channel_flits(self) -> dict[tuple[int, int], int]:
        """Per-channel flit counts, ``(src router, dst router) -> flits``,
        matching :attr:`repro.sim.engine.SimEngine.channel_flits`."""
        if self._trace is None:
            return {}
        out: dict[tuple[int, int], int] = {}
        src = self._chan_src
        dst = self._chan_dst
        for c in np.flatnonzero(self._trace):
            out[(int(src[c]), int(dst[c]))] = int(self._trace[c])
        return out


def vec_simulate(
    topology: Topology,
    routing: RoutingAlgorithm,
    traffic,
    offered_load: float,
    config: SimConfig | None = None,
    telemetry: TelemetrySpec | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`VecEngine`."""
    return VecEngine(
        topology, routing, traffic, offered_load, config, telemetry=telemetry
    ).run()


# -- closed-loop (workload) mode ---------------------------------------------


class VecClosedLoopEngine(VecEngine):
    """Dependency-driven ("closed-loop") variant of the batched engine.

    The network model — switch allocation, VC/credit flow control,
    transmission — is the inherited open-loop one; only injection and
    the run loop differ, mirroring how
    :class:`repro.sim.engine.ClosedLoopEngine` subclasses the flat
    engine.  Injection batches the ready-message frontier: released and
    newly-ready messages process as sorted index arrays, flits segment
    into packets with one ``np.repeat`` per batch, and the packets
    scatter into the per-endpoint injection rings grouped by source.
    Message completion is tracked through the engine's per-delivery
    hook over ejected pool ids: each cycle's ejections decrement their
    messages' remaining-packet counters in one fancy-indexed subtract
    (at most one ejection per endpoint per cycle and all packets of a
    message share one destination endpoint, so the ids are distinct),
    and messages hitting zero complete at the tail-ejection cycle
    ``now + packet_length``, releasing dependents exactly when the flat
    engine does.

    Bit-exact against ``ClosedLoopEngine`` — including every
    per-message ready/completion timestamp — for table-driven,
    source-routed and per-hop adaptive routing: plans draw in ascending
    message-id order (the flat injection order), and the allocation
    tie-breaks are the inherited open-loop ones.

    ``max_cycles`` participates in the packed sort-key span (ranks run
    to the cycle cap instead of the open-loop deadline), so a custom
    cap must be passed at construction, not just to :meth:`run`.
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        workload,
        config: SimConfig | None = None,
        trace_channels: bool = False,
        max_cycles: int | None = None,
    ):
        from repro.sim.engine import DEFAULT_MAX_CYCLES, _NullTraffic

        super().__init__(
            topology, routing, _NullTraffic(), 0.0, config, trace_channels
        )
        limit = DEFAULT_MAX_CYCLES if max_cycles is None else int(max_cycles)
        self._limit = limit
        # Re-span the packed sort keys: inject times now run to the
        # closed-loop cycle cap instead of the open-loop deadline.
        rank_span, seq_span = packed_key_spans(topology, self.num_vcs, limit)
        self._k_grp = rank_span * seq_span

        if hasattr(workload, "messages"):
            msgs = workload.messages()
            self.workload_name = getattr(workload, "name", "workload")
        else:
            msgs = list(workload)
            self.workload_name = "workload"
        n_ep = self._n_ep
        seen: set[int] = set()
        for m in msgs:
            if m.mid in seen:
                raise ValueError(f"duplicate message id {m.mid}")
            seen.add(m.mid)
            if not (0 <= m.src < n_ep):
                raise ValueError(f"message {m.mid}: bad source endpoint {m.src}")
            if not (0 <= m.dst < n_ep):
                raise ValueError(
                    f"message {m.mid}: bad destination endpoint {m.dst}"
                )
        # Dense message indices in ascending-mid order, so sorting an
        # index batch reproduces the flat engine's sorted-mid batches.
        mids = sorted(seen)
        midx = {mid: i for i, mid in enumerate(mids)}
        M = len(mids)
        self._mids = mids
        self.total_messages = M
        self.completed = 0
        self._delivered_flits = 0
        m_src = np.zeros(M, dtype=np.int64)
        m_dst = np.zeros(M, dtype=np.int64)
        m_size = np.zeros(M, dtype=np.int64)
        pending = [0] * M
        dependents: list[list[int]] = [[] for _ in range(M)]
        for m in msgs:
            i = midx[m.mid]
            m_src[i] = m.src
            m_dst[i] = m.dst
            m_size[i] = m.size_flits
            pending[i] = len(m.deps)
            for d in m.deps:
                if d not in midx:
                    raise ValueError(f"message {m.mid} depends on unknown id {d}")
                dependents[midx[d]].append(i)
        self._m_src = m_src
        self._m_dst = m_dst
        self._m_size = m_size
        self._m_src_rt = self._emap[m_src]
        self._m_dst_rt = self._emap[m_dst]
        self._m_zero = m_src == m_dst
        self._m_pending = pending
        self._m_dependents = dependents
        self._m_remaining = np.zeros(M, dtype=np.int64)
        self._ready_t = np.full(M, -1, dtype=np.int64)
        self._comp_t = np.full(M, -1, dtype=np.int64)
        self._ready: list[int] = [i for i in range(M) if pending[i] == 0]
        #: Release cycle -> dense indices whose last dependency
        #: completes at a future cycle (multi-flit tail ejection).
        self._release: dict[int, list[int]] = {}
        #: Pool column: owning dense message index per packet id.
        self._p_msg = np.zeros(self._pool, dtype=np.int64)
        self._deliver_pids = self._on_delivered_batch

    # -- pool growth -------------------------------------------------------

    def _grow_pool(self, need: int) -> None:
        old = self._pool
        super()._grow_pool(need)
        self._p_msg = np.concatenate(
            [self._p_msg, np.zeros(self._pool - old, dtype=np.int64)]
        )

    # -- dependency bookkeeping --------------------------------------------

    def _complete_msg(self, mi: int, t: int) -> None:
        self._comp_t[mi] = t
        self.completed += 1
        self._delivered_flits += int(self._m_size[mi])
        pending = self._m_pending
        for dep in self._m_dependents[mi]:
            left = pending[dep] - 1
            pending[dep] = left
            if left == 0:
                # A dependent may not inject before the completing
                # tail flit has fully ejected (cycle t).
                if t <= self.now:
                    self._ready.append(dep)
                else:
                    self._release.setdefault(t, []).append(dep)

    def _on_delivered_batch(self, pids: np.ndarray) -> None:
        mids = self._p_msg[pids]
        rem = self._m_remaining
        rem[mids] -= 1
        done = mids[rem[mids] == 0]
        if done.size:
            t = self.now + self._L
            for mi in done.tolist():
                self._complete_msg(int(mi), t)

    # -- overridden phases -------------------------------------------------

    def _phase_injection(self, measuring: bool) -> None:
        now = self.now
        released = self._release.pop(now, None)
        if released:
            self._ready.extend(released)
        if not self._ready:
            return
        L = self._L
        plan = self._plan
        view = self._queue_snapshot() if plan is not None else None
        while self._ready:
            batch = np.asarray(sorted(self._ready), dtype=np.int64)
            self._ready = []
            self._ready_t[batch] = now
            zh = self._m_zero[batch]
            if zh.any():
                # Zero-hop messages (src == dst endpoint) complete at
                # `now` and may cascade within the phase: dependents
                # land back in _ready for the next sorted batch.
                for mi in batch[zh].tolist():
                    self._complete_msg(mi, now)
            nz = batch[~zh]
            if nz.size == 0:
                continue
            if self._mirror is not None:
                self._mirror.update(self._m_src_rt[nz].tolist())
            npkts = -(-self._m_size[nz] // L)
            self._m_remaining[nz] = npkts
            total = int(npkts.sum())
            self.measured_injected += total
            if total == 0:
                continue
            if self._free_top < total:
                self._grow_pool(total)
            self._free_top -= total
            ids = self._free[self._free_top : self._free_top + total].copy()
            # _grow_pool replaces the pool arrays; bind after it ran.
            ps = self._ps
            # Batch-major packet order == the flat engine's ascending-
            # mid injection order (packets of one message contiguous).
            rep = np.repeat(np.arange(nz.size, dtype=np.int64), npkts)
            mrows = nz[rep]
            dst_rt = self._m_dst_rt[nz][rep]
            ps[ids, 0] = self._m_dst[nz][rep]
            ps[ids, 1] = dst_rt
            ps[ids, 2] = 0
            ps[ids, 3] = now
            self._p_start[ids] = now
            self._p_msg[ids] = mrows
            if plan is not None:
                # Source-routed plans per packet in batch order: the
                # identical RNG consumption (and queue view) as the
                # flat closed-loop injection loop.
                chan_of = self._chan_of_list
                path_rows = self._p_path
                src_rt = self._m_src_rt[nz][rep].tolist()
                drt = dst_rt.tolist()
                for j, pid in enumerate(ids.tolist()):
                    path = plan(src_rt[j], drt[j], view)
                    prow = path_rows[pid]
                    for h in range(len(path) - 1):
                        prow[h] = chan_of[path[h]][path[h + 1]]
            # Scatter into the injection rings grouped by source
            # endpoint, preserving batch order within each ring.
            srcs = self._m_src[nz][rep]
            so = np.argsort(srcs, kind="stable")
            ss = srcs[so]
            sid = ids[so]
            u, counts = np.unique(ss, return_counts=True)
            while int((self._inj_len[u] + counts).max()) >= self._icap - 1:
                self._grow_inj()
            i2 = np.arange(ss.size, dtype=np.int64)
            boundary = np.empty(ss.size, dtype=bool)
            boundary[0] = True
            if ss.size > 1:
                np.not_equal(ss[1:], ss[:-1], out=boundary[1:])
            off = i2 - np.maximum.accumulate(i2 * boundary)
            pos = self._inj_head[ss] + self._inj_len[ss] + off
            icap = self._icap
            pos[pos >= icap] -= icap
            self._inj_store[ss, pos] = sid
            self._inj_len[u] += counts
            self._n_injq += total

    # -- main loop ---------------------------------------------------------

    def run(self, max_cycles: int | None = None):
        from repro.sim.stats import WorkloadResult

        limit = self._limit if max_cycles is None else int(max_cycles)
        if limit > self._limit:
            raise ValueError(
                "max_cycles exceeds the packed sort-key span; pass the "
                "cycle cap to the VecClosedLoopEngine constructor"
            )
        # Every closed-loop packet is measured (the flat engine injects
        # with measured=True throughout).
        self._warmup = 0
        self._end_measure = 1 << 60
        self._in_window = True
        total = self.total_messages
        while self.completed < total and self.now < limit:
            self._phase_arrivals()
            self._phase_injection(True)
            self._phase_switch_allocation()
            self._phase_transmit()
            self.now += 1
            if (
                not self._ready
                and not self._release
                and not self._pending
                and self.completed < total
                and not self._n_buffered
                and not self._n_staged
                and not self._n_injq
            ):
                # Unsatisfiable dependencies: nothing in flight and
                # nothing ready — report the partial run.
                break
        done = (self._comp_t >= 0).nonzero()[0]
        lats = (self._comp_t - self._ready_t)[done]
        mean = float(np.mean(lats)) if lats.size else float("nan")
        p99 = float(np.percentile(lats, 99)) if lats.size else float("nan")
        makespan = int(self._comp_t[done].max()) if done.size else 0
        plats = (
            np.concatenate(self._lat_chunks)
            if self._lat_chunks
            else np.empty(0, dtype=np.int64)
        )
        mids = self._mids
        return WorkloadResult(
            workload=self.workload_name,
            num_messages=total,
            completed_messages=self.completed,
            finished=self.completed == total,
            makespan=makespan,
            cycles=max(self.now, makespan),
            delivered_flits=self._delivered_flits,
            avg_message_latency=mean,
            p99_message_latency=p99,
            avg_packet_latency=(
                float(np.mean(plats)) if plats.size else float("nan")
            ),
            message_completions={
                mids[i]: int(self._comp_t[i]) for i in done.tolist()
            },
            message_ready={
                mids[i]: int(self._ready_t[i])
                for i in (self._ready_t >= 0).nonzero()[0].tolist()
            },
        )


def vec_simulate_workload(
    topology: Topology,
    routing: RoutingAlgorithm,
    workload,
    config: SimConfig | None = None,
    max_cycles: int | None = None,
):
    """One-shot closed-loop run on the batched engine.

    Drop-in for :func:`repro.sim.engine.simulate_workload` with
    bit-identical :class:`~repro.sim.stats.WorkloadResult` rows.
    """
    return VecClosedLoopEngine(
        topology, routing, workload, config, max_cycles=max_cycles
    ).run()
