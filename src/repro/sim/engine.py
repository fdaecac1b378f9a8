"""The cycle loop (paper §V methodology), flat-array edition.

Per cycle, in order:

1. **Arrivals** — flits scheduled for this cycle enter downstream
   input buffers; credits scheduled for this cycle are returned.
2. **Injection** — every active endpoint flips a Bernoulli coin at the
   offered load (one vectorised draw per cycle); destinations for the
   injecting sources are drawn in one batch via
   :meth:`repro.traffic.patterns.TrafficPattern.destinations`; new
   packets get their route planned (source-routed protocols, reading
   the phase's :class:`~repro.sim.network.QueueSnapshot`) and join the
   endpoint's injection FIFO.  Table-driven protocols (MIN) skip
   per-packet planning entirely: the engine follows the precomputed
   next-hop matrix from :class:`repro.routing.tables.RoutingTables`.
3. **Switch allocation** — per router, head flits of occupied input
   VCs and injection FIFOs request output ports; each output grants up
   to ``speedup`` flits (oldest-first), consuming a downstream credit;
   granted flits move to the output staging queue, their freed input
   slot schedules a credit return upstream (after ``credit_delay``).
   Flits terminating here request their endpoint's ejection port
   (one flit per endpoint per cycle) instead.
4. **Transmission** — every non-empty output stage sends one flit onto
   its channel; it arrives ``hop_latency`` cycles later.

Events live in fixed-size ring-buffer wheels (modulo-horizon buckets)
instead of the seed engine's ``dict[int, list]`` maps: no event is
ever scheduled further ahead than ``hop_latency + packet_length``
cycles, so a wheel of that many buckets indexed by ``cycle % horizon``
replaces unbounded dict churn with two list operations.

The engine is bitwise identical to the frozen seed implementation in
:mod:`repro.sim.reference` for any seed and routing algorithm — the
RNG draw order, request tie-breaks and event orderings are all
preserved (see DESIGN.md, "Determinism contract") — while running
several times faster.

Warmup packets are simulated but not measured; measurement covers
packets injected during the window, and the run continues (up to
``drain_cycles``) until those packets are delivered.
"""

from __future__ import annotations

import numpy as np

from repro.routing.base import RoutingAlgorithm
from repro.sim.config import SimConfig
from repro.sim.network import QueueSnapshot, SimNetwork
from repro.sim.packet import Packet
from repro.sim.stats import LatencyAccumulator, SimResult
from repro.sim.telemetry import TelemetryResult, TelemetrySpec, latency_histogram
from repro.topologies.base import Topology
from repro.traffic.patterns import TrafficPattern
from repro.util.rng import make_rng


class SimEngine:
    """Drives one simulation run."""

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
        #: Armed probe selection, or None (the zero-cost default).
        self.telemetry = (
            telemetry if telemetry is not None and telemetry.enabled else None
        )
        tele = self.telemetry
        #: Optional per-channel flit counters ((u, v) -> flits sent),
        #: for hot-link analyses like the Fig 9 worst-case diagnosis.
        #: ``trace_channels`` survives as a thin alias for the
        #: ``channel_flits`` telemetry probe.
        self.trace_channels = bool(
            trace_channels or (tele is not None and tele.channel_flits)
        )
        self.channel_flits: dict[tuple[int, int], int] = {}
        self._tele_occ = tele is not None and tele.queue_occupancy
        self._tele_route = tele is not None and tele.routing_decisions
        nr = topology.num_routers
        self._occ: list[int] | None = [0] * nr if self._tele_occ else None
        self._occ_max: list[int] | None = [0] * nr if self._tele_occ else None
        self._route_total = 0
        self._route_diverted = 0
        #: Hop-distance matrix for the diversion check (probe-armed only).
        self._tele_dist: list[list[int]] | None = None
        if self._tele_route:
            tables = getattr(routing, "tables", None)
            if tables is not None:
                self._tele_dist = tables.dist.tolist()
        if self.config.num_vcs < routing.num_vcs:
            # Honour the routing algorithm's deadlock-freedom demand.
            self.config = self.config.with_vcs(routing.num_vcs)
        self.net = SimNetwork(topology, self.config)
        self.rng = make_rng(self.config.seed)

        self.now = 0
        # Ring-buffer event wheels (fixed modulo-horizon buckets).  The
        # farthest arrival is hop_latency + packet_length - 1 cycles
        # out, the farthest credit credit_delay cycles out.
        self._arr_horizon = self.config.hop_latency + self.config.packet_length
        self._arr_wheel: list[list] = [[] for _ in range(self._arr_horizon)]
        self._credit_horizon = self.config.credit_delay + 1
        self._credit_wheel: list[list] = [[] for _ in range(self._credit_horizon)]
        #: In-flight flit arrivals (the drain check needs "none pending").
        self._pending_arrivals = 0

        #: Precomputed next-hop matrix for table-driven routing (MIN):
        #: plain nested lists, the fastest container for the hot loop.
        #: ``_next_port`` resolves straight to the output port index,
        #: sparing the allocation loop a neighbour-id dict lookup.
        self._next_hop: list[list[int]] | None = None
        self._next_port: list[list[int]] | None = None
        if getattr(routing, "table_driven", False):
            self._next_hop = routing.next_hop_table().tolist()
            self._next_port = [
                [pi[v] if v != u else -1 for v in row]
                for u, (row, pi) in enumerate(zip(self._next_hop, self.net.port_index))
            ]

        self.active_endpoints = list(traffic.active_endpoints(topology))
        self._active_eps_arr = (
            np.asarray(self.active_endpoints) if self.active_endpoints else None
        )
        self._endpoint_router_arr = np.asarray(topology.endpoint_map)
        self.measured_injected = 0
        self.measured_delivered = 0
        self.window_ejections = 0
        self.latencies = LatencyAccumulator()
        self.queue_latencies = LatencyAccumulator()
        self._in_window = False
        #: Per-delivery callback (packet) -> None; stays None open-loop.
        #: The closed-loop subclass uses it to track message completion
        #: without duplicating the allocation phase.
        self._deliver_hook = None

    # -- cycle phases ------------------------------------------------------

    def _phase_arrivals(self) -> None:
        net = self.net
        active = net.active_routers
        slot = self.now % self._arr_horizon
        bucket = self._arr_wheel[slot]
        if bucket:
            self._arr_wheel[slot] = []
            self._pending_arrivals -= len(bucket)
            in_fifo = net.in_fifo
            in_order = net.in_order
            seen = net._in_seen
            for b, dst, pkt in bucket:
                fifo = in_fifo[b]
                if not seen[b]:
                    seen[b] = 1
                    order = in_order[dst]
                    order.append((len(order), b, fifo))
                fifo.append(pkt)
                active.add(dst)
            if self._tele_occ:
                # Arrivals only increment occupancy, so the running max
                # equals the post-batch value — the same quantity the
                # vectorised engine takes with one np.maximum.
                occ = self._occ
                occ_max = self._occ_max
                for _, dst, _ in bucket:
                    o = occ[dst] + 1
                    occ[dst] = o
                    if o > occ_max[dst]:
                        occ_max[dst] = o
        slot = self.now % self._credit_horizon
        bucket = self._credit_wheel[slot]
        if bucket:
            self._credit_wheel[slot] = []
            credits = net.credits_flat
            buf_src = net.buf_src_list
            for b in bucket:
                credits[b] += 1
                active.add(buf_src[b])

    def _phase_injection(self, measuring: bool) -> None:
        # Offered load is in flits/cycle/endpoint; with L-flit packets
        # the packet-generation probability scales down by L.
        load = self.offered_load / self.config.packet_length
        if load <= 0.0 or self._active_eps_arr is None:
            return
        coins = self.rng.random(len(self.active_endpoints)) < load
        if not coins.any():
            return
        srcs = self._active_eps_arr[coins]
        dsts = self.traffic.destinations(srcs, self.rng)
        routing = self.routing
        plan = (
            routing.plan
            if routing.source_routed and self._next_hop is None
            else None
        )
        counting_plans = plan is not None and self._tele_route
        if counting_plans:
            plan = self._counted_plan(plan)
        net = self.net
        view = (
            QueueSnapshot(net.chan_of, net.queue_lengths) if plan is not None else None
        )
        inject = net.inject_queue
        active_add = net.active_routers.add
        now = self.now
        injected = 0
        # Endpoint -> router lookups batch through numpy, and packets
        # are built by direct slot stores (a Python-level __init__
        # frame per flit is measurable at this rate).  Idle slots come
        # back as dst == src and fall to the self-traffic filter.
        emap_arr = self._endpoint_router_arr
        src_routers = emap_arr[srcs].tolist()
        dst_routers = emap_arr[dsts].tolist()
        skip_self = not self.traffic.excludes_self
        new = Packet.__new__
        rank = now << 1
        for src, dst, src_router, dst_router in zip(
            srcs.tolist(), dsts.tolist(), src_routers, dst_routers
        ):
            if skip_self and dst == src:
                continue
            pkt = new(Packet)
            pkt.src_endpoint = src
            pkt.dst_endpoint = dst
            pkt.dst_router = dst_router
            pkt.path = (
                plan(src_router, dst_router, view) if plan is not None else None
            )
            pkt.hop = 0
            pkt.inject_time = now
            pkt.start_time = now
            pkt.measured = measuring
            pkt.rank = rank
            injected += 1
            inject[src].append(pkt)
            active_add(src_router)
        if self._tele_occ and injected:
            occ = self._occ
            occ_max = self._occ_max
            for src, dst, src_router in zip(
                srcs.tolist(), dsts.tolist(), src_routers
            ):
                if skip_self and dst == src:
                    continue
                o = occ[src_router] + 1
                occ[src_router] = o
                if o > occ_max[src_router]:
                    occ_max[src_router] = o
        if self._tele_route and not counting_plans:
            # Table-driven protocols never call plan(); every injected
            # packet follows the minimal next-hop table.
            self._route_total += injected
        if measuring:
            self.measured_injected += injected

    def _counted_plan(self, plan):
        """Wrap ``plan()`` with the routing-decision counters.

        Installed only when the probe is armed, so the telemetry-off
        injection loop runs the bare planner.  A path is *diverted*
        when it is longer than the hop-distance between its endpoint
        routers; routings without distance tables count as minimal.
        """
        dist = self._tele_dist

        def counted(src_router, dst_router, view):
            path = plan(src_router, dst_router, view)
            self._route_total += 1
            if dist is not None and len(path) - 1 > dist[src_router][dst_router]:
                self._route_diverted += 1
            return path

        return counted

    def _phase_switch_allocation(self) -> None:
        net = self.net
        cfg = self.config
        now = self.now
        length = cfg.packet_length
        single = length == 1
        speedup = cfg.speedup
        V = net.num_vcs
        vc_cap = V - 1
        credits = net.credits_flat
        in_order = net.in_order
        inject_pairs = net.inject_pairs
        out_stage = net.out_stage
        pb = net.port_base_list
        port_index = net.port_index
        eject_busy = net.eject_busy_until
        next_port = self._next_port
        routing_next = self.routing.next_hop
        credit_push = self._credit_wheel[
            (now + cfg.credit_delay) % self._credit_horizon
        ].append
        in_window = self._in_window
        lat_push = self.latencies.values.append
        qlat_push = self.queue_latencies.values.append
        deliver_hook = self._deliver_hook
        stage_mask = net.stage_mask
        occ = self._occ  # None unless the queue-occupancy probe is armed
        delivered = 0
        ejected_flits = 0
        # Routers may become inactive; collect removals after the sweep.
        inactive: list[int] = []
        for router in list(net.active_routers):
            # Gather candidate head flits as (rank, seq, key, fifo, pkt):
            # rank packs (inject_time, kind) into one int — oldest
            # first, buffered (kind 0) before injecting (kind 1) — and
            # seq (strictly increasing in scan order, precomputed in
            # the in_order/inject_pairs triples) makes tuples compare
            # without ever reaching the packet, while preserving scan
            # order on rank ties.  The scan order itself (in_order,
            # then endpoints) replicates the seed engine's
            # dict-iteration tie-break.
            requests = [
                (h.rank, s, b, q, h)
                for s, b, q in in_order[router]
                if q and (h := q[0])
            ]
            requests += [
                (h.rank | 1, s, ep, q, h)
                for s, ep, q in inject_pairs[router]
                if q and (h := q[0])
            ]
            if not requests:
                if not stage_mask[router]:
                    inactive.append(router)
                continue
            if len(requests) > 1:
                requests.sort()  # oldest first
            base = pb[router]
            granted = [0] * (pb[router + 1] - base)
            pi = port_index[router]
            for rank, _, key, q, pkt in requests:
                if pkt.dst_router == router:
                    # Ejection: the endpoint link carries 1 flit/cycle,
                    # so an L-flit packet occupies it for L cycles.
                    ep = pkt.dst_endpoint
                    if eject_busy[ep] > now:
                        continue
                    eject_busy[ep] = now + length
                    q.popleft()
                    if occ is not None:
                        occ[router] -= 1
                    if rank & 1:  # injection FIFO: no upstream credits
                        pkt.start_time = now
                    elif single:
                        # Freed slots return upstream, all L at once
                        # (packet-granularity VCT credit return).
                        credit_push(key)
                    else:
                        for _ in range(length):
                            credit_push(key)
                    # Packet complete; tail flit leaves `length` cycles
                    # after the grant.
                    if pkt.measured:
                        delivered += 1
                        lat_push(now + length - pkt.inject_time)
                        qlat_push(pkt.start_time - pkt.inject_time)
                    if in_window:
                        ejected_flits += length
                    if deliver_hook is not None:
                        deliver_hook(pkt)
                    continue
                if next_port is not None:
                    port = next_port[router][pkt.dst_router]
                elif pkt.path is not None:
                    port = pi[pkt.path[pkt.hop + 1]]
                else:
                    port = pi[routing_next(router, pkt.dst_router, pkt, net)]
                g = granted[port]
                if g >= speedup:
                    continue
                hop = pkt.hop
                vc = hop if hop < vc_cap else vc_cap
                c_out = base + port
                b_out = c_out * V + vc
                if credits[b_out] < length:
                    continue  # VCT: the whole packet must fit downstream
                credits[b_out] -= length
                granted[port] = g + 1
                q.popleft()
                if occ is not None:
                    occ[router] -= 1
                if rank & 1:
                    pkt.start_time = now
                elif single:
                    credit_push(key)
                else:
                    for _ in range(length):
                        credit_push(key)
                # Stage the downstream flat-buffer id with the packet:
                # transmission forwards it into the arrival event as-is.
                out_stage[c_out].append((pkt, b_out))
                stage_mask[router] |= 1 << port
            # Router stays active if anything is still buffered/staged.
        self.measured_delivered += delivered
        self.window_ejections += ejected_flits
        active = net.active_routers
        for router in inactive:
            active.discard(router)

    def _phase_transmit(self) -> None:
        net = self.net
        cfg = self.config
        now = self.now
        length = cfg.packet_length
        # Tail flit arrives after serialising the remaining L−1 flits.
        latency = cfg.hop_latency + (length - 1)
        bucket = self._arr_wheel[(now + latency) % self._arr_horizon]
        push = bucket.append
        out_stage = net.out_stage
        pb = net.port_base_list
        chan_dst = net.chan_dst_list
        stage_mask = net.stage_mask
        busy = net.channel_busy_until
        single = length == 1
        trace = self.trace_channels
        sent = 0
        for router in list(net.active_routers):
            mask = stage_mask[router]
            if not mask:
                continue
            base = pb[router]
            remaining = mask
            while mask:  # staged ports only, ascending
                low = mask & -mask
                mask ^= low
                c = base + low.bit_length() - 1
                if not single:
                    if busy[c] > now:
                        continue
                    busy[c] = now + length
                stage = out_stage[c]
                pkt, b_dst = stage.popleft()
                if not stage:
                    remaining ^= low
                nxt = chan_dst[c]
                pkt.hop += 1
                if trace:
                    key = (router, nxt)
                    self.channel_flits[key] = (
                        self.channel_flits.get(key, 0) + length
                    )
                push((b_dst, nxt, pkt))
                sent += 1
            stage_mask[router] = remaining
        self._pending_arrivals += sent

    # -- main loop ---------------------------------------------------------------

    def run(self) -> SimResult:
        cfg = self.config
        warmup, measure = cfg.warmup_cycles, cfg.measure_cycles
        end_measure = warmup + measure
        deadline = end_measure + cfg.drain_cycles
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
                if drained and not self._pending_arrivals and self._all_idle():
                    break
                if drained and self.now >= end_measure + 8:
                    break
                if self.now >= deadline:
                    break

        n_active = max(1, len(self.active_endpoints))
        accepted = self.window_ejections / (n_active * measure) if measure else 0.0
        drained = self.measured_delivered >= self.measured_injected
        # Saturation compares delivery against the traffic actually
        # injected, not the nominal Bernoulli rate: patterns may leave
        # sources idle (self-mapped endpoints in bit permutations), and
        # that structural shortfall is not congestion.
        injected_rate = (
            self.measured_injected
            * self.config.packet_length
            / (n_active * measure)
            if measure
            else 0.0
        )
        saturated = (not drained) or (
            injected_rate > 0 and accepted < 0.95 * injected_rate
        )
        return SimResult(
            offered_load=self.offered_load,
            accepted_load=accepted,
            avg_latency=self.latencies.mean(),
            p99_latency=self.latencies.percentile(99),
            delivered=self.measured_delivered,
            injected=self.measured_injected,
            saturated=saturated,
            cycles=self.now,
            avg_queue_latency=self.queue_latencies.mean(),
            telemetry=self._telemetry_result(),
        )

    def _telemetry_result(self) -> TelemetryResult | None:
        """Assemble armed-probe measurements (None when telemetry is off).

        Everything here is defined identically in the vectorised
        engine: same bin edges, same flat channel numbering, same
        ``flits / cycles`` division — so telemetry-on results compare
        equal across ``cycle`` and ``cycle-vec``.
        """
        tele = self.telemetry
        if tele is None:
            return None
        cycles = self.now
        hist = (
            latency_histogram(self.latencies.values) if tele.latency_hist else None
        )
        channel_flits = channel_load = None
        if tele.channel_flits:
            net = self.net
            pb = net.port_base_list
            pi = net.port_index
            flat = [0] * pb[-1]
            for (u, v), f in self.channel_flits.items():
                flat[pb[u] + pi[u][v]] = f
            channel_flits = tuple(flat)
            channel_load = tuple((f / cycles if cycles else 0.0) for f in flat)
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
            max_queue=tuple(self._occ_max) if self._tele_occ else None,
            route_packets=route_packets,
            route_diverted=route_diverted,
            route_diverted_frac=frac,
        )

    def _all_idle(self) -> bool:
        net = self.net
        for router in net.active_routers:
            if net.stage_mask[router]:
                return False
            for _, _, q in net.in_order[router]:
                if q:
                    return False
        return not any(net.inject_queue)


def simulate(
    topology: Topology,
    routing: RoutingAlgorithm,
    traffic,
    offered_load: float,
    config: SimConfig | None = None,
    telemetry: TelemetrySpec | None = None,
) -> SimResult:
    """One-shot convenience wrapper around :class:`SimEngine`."""
    return SimEngine(
        topology, routing, traffic, offered_load, config, telemetry=telemetry
    ).run()


# -- closed-loop (workload) mode ---------------------------------------------


class _NullTraffic(TrafficPattern):
    """Traffic shim for closed-loop runs: injection is dependency-driven
    (the Bernoulli process never fires at offered load 0), so the
    pattern only answers ``active_endpoints``."""

    name = "closed-loop"

    def destination(self, src_endpoint: int, rng):  # pragma: no cover
        return None


#: Closed-loop cycle cap when the caller does not supply one: far above
#: any healthy completion time at the scales this repo simulates, so it
#: only fires on genuinely stuck runs (which report ``finished=False``).
DEFAULT_MAX_CYCLES = 500_000


class ClosedLoopEngine(SimEngine):
    """Dependency-driven ("closed-loop") variant of the cycle engine.

    Instead of the open-loop Bernoulli process, injection is gated on
    the workload's message DAG: a message becomes *ready* once every
    dependency has completed (tail flit ejected at its destination),
    its flits segment into ``ceil(size / packet_length)`` packets that
    join the source's injection FIFO the following injection phase,
    and per-message ready/completion timestamps are recorded.  The
    network model — switch allocation, VC/credit flow control,
    transmission — is byte-for-byte the open-loop one (the phases are
    inherited, not copied); only injection and the run loop differ,
    which is what keeps the open-loop path bitwise identical to
    :mod:`repro.sim.reference`.

    Closed-loop runs are deterministic by construction for MIN/tables
    (no RNG touched) and per-seed deterministic for stochastic
    protocols (VAL/UGAL draw from the routing RNG in injection order,
    which is fixed by message ids).
    """

    def __init__(
        self,
        topology: Topology,
        routing: RoutingAlgorithm,
        workload,
        config: SimConfig | None = None,
        trace_channels: bool = False,
    ):
        super().__init__(
            topology, routing, _NullTraffic(), 0.0, config, trace_channels
        )
        if hasattr(workload, "messages"):
            msgs = workload.messages()
            self.workload_name = getattr(workload, "name", "workload")
        else:
            msgs = list(workload)
            self.workload_name = "workload"
        self._msgs = {}
        for m in msgs:
            if m.mid in self._msgs:
                raise ValueError(f"duplicate message id {m.mid}")
            if not (0 <= m.src < topology.num_endpoints):
                raise ValueError(f"message {m.mid}: bad source endpoint {m.src}")
            if not (0 <= m.dst < topology.num_endpoints):
                raise ValueError(f"message {m.mid}: bad destination endpoint {m.dst}")
            self._msgs[m.mid] = m
        self.total_messages = len(self._msgs)
        self.completed = 0
        #: Message id -> cycle it became ready / completed.
        self.ready_time: dict[int, int] = {}
        self.completion_time: dict[int, int] = {}
        self._delivered_flits = 0
        self._pending_deps: dict[int, int] = {}
        self._dependents: dict[int, list[int]] = {}
        self._remaining: dict[int, int] = {}
        self._ready: list[int] = []
        #: Dependents whose last dependency completes at a future cycle
        #: (multi-flit tails eject ``packet_length`` cycles after the
        #: grant): release cycle -> message ids.
        self._release: dict[int, list[int]] = {}
        for m in msgs:
            self._pending_deps[m.mid] = len(m.deps)
            for d in m.deps:
                if d not in self._msgs:
                    raise ValueError(f"message {m.mid} depends on unknown id {d}")
                self._dependents.setdefault(d, []).append(m.mid)
            if not m.deps:
                self._ready.append(m.mid)
        self._deliver_hook = self._on_delivered

    # -- dependency bookkeeping -------------------------------------------

    def _complete(self, mid: int, t: int) -> None:
        self.completion_time[mid] = t
        self.completed += 1
        self._delivered_flits += self._msgs[mid].size_flits
        for dep in self._dependents.get(mid, ()):
            left = self._pending_deps[dep] - 1
            self._pending_deps[dep] = left
            if left == 0:
                # A dependent may not inject before the completing
                # tail flit has fully ejected (cycle t).
                if t <= self.now:
                    self._ready.append(dep)
                else:
                    self._release.setdefault(t, []).append(dep)

    def _on_delivered(self, pkt) -> None:
        mid = pkt.msg
        left = self._remaining[mid] - 1
        if left:
            self._remaining[mid] = left
        else:
            del self._remaining[mid]
            # The tail flit leaves the ejection port packet_length
            # cycles after the grant, matching latency accounting.
            self._complete(mid, self.now + self.config.packet_length)

    # -- overridden phases -------------------------------------------------

    def _phase_injection(self, measuring: bool) -> None:
        # Ready messages (dependencies satisfied last cycle or earlier)
        # inject in ascending message-id order — the deterministic
        # stand-in for the open-loop source scan.  Zero-hop messages
        # (src == dst endpoint ranks on the same NIC) complete
        # immediately and may cascade within the phase.
        released = self._release.pop(self.now, None)
        if released:
            self._ready.extend(released)
        if not self._ready:
            return
        net = self.net
        inject = net.inject_queue
        active_add = net.active_routers.add
        emap = self.topology.endpoint_map
        now = self.now
        length = self.config.packet_length
        routing = self.routing
        plan = (
            routing.plan
            if routing.source_routed and self._next_hop is None
            else None
        )
        view = (
            QueueSnapshot(net.chan_of, net.queue_lengths) if plan is not None else None
        )
        while self._ready:
            batch = sorted(self._ready)
            self._ready = []
            for mid in batch:
                m = self._msgs[mid]
                self.ready_time[mid] = now
                if m.src == m.dst:
                    self._complete(mid, now)
                    continue
                npkts = -(-m.size_flits // length)
                self._remaining[mid] = npkts
                src_router = emap[m.src]
                dst_router = emap[m.dst]
                queue = inject[m.src]
                for _ in range(npkts):
                    path = (
                        plan(src_router, dst_router, view)
                        if plan is not None
                        else None
                    )
                    pkt = Packet(m.src, m.dst, dst_router, path, now, True)
                    pkt.msg = mid
                    queue.append(pkt)
                active_add(src_router)
                self.measured_injected += npkts

    # -- main loop ---------------------------------------------------------

    def run(self, max_cycles: int | None = None):
        from repro.sim.stats import WorkloadResult

        limit = DEFAULT_MAX_CYCLES if max_cycles is None else max_cycles
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
                and not self._pending_arrivals
                and self.completed < total
                and self._all_idle()
            ):
                # Unsatisfiable dependencies (e.g. a cyclic trace):
                # nothing in flight and nothing ready — report the
                # partial run instead of spinning to the cap.
                break
        lats = [
            self.completion_time[mid] - self.ready_time[mid]
            for mid in self.completion_time
        ]
        mean = float(np.mean(lats)) if lats else float("nan")
        p99 = float(np.percentile(lats, 99)) if lats else float("nan")
        makespan = max(self.completion_time.values(), default=0)
        return WorkloadResult(
            workload=self.workload_name,
            num_messages=total,
            completed_messages=self.completed,
            finished=self.completed == total,
            makespan=makespan,
            # The loop exits at the final grant; the last tail flit is
            # still serialising until `makespan` (> now for multi-flit
            # packets), and bandwidth must count those cycles.
            cycles=max(self.now, makespan),
            delivered_flits=self._delivered_flits,
            avg_message_latency=mean,
            p99_message_latency=p99,
            avg_packet_latency=self.latencies.mean(),
            message_completions=dict(self.completion_time),
            message_ready=dict(self.ready_time),
        )


def simulate_workload(
    topology: Topology,
    routing: RoutingAlgorithm,
    workload,
    config: SimConfig | None = None,
    max_cycles: int | None = None,
):
    """One-shot closed-loop run of a workload's message DAG.

    ``workload`` is a :class:`repro.workloads.base.Workload` or any
    iterable of message records; returns a
    :class:`~repro.sim.stats.WorkloadResult`.
    """
    return ClosedLoopEngine(topology, routing, workload, config).run(max_cycles)
