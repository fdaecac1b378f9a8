"""Flow-level (fluid) engine: steady-state link rates, no cycles.

The cycle engine answers "what happens flit by flit"; this module
answers the same sweep questions — accepted throughput, saturation
load, mean/p99 latency — by solving per-load *steady-state link rates*
instead of ticking cycles, which is 100–1000x faster and scales to
full paper-size MMS instances (q=25–43, thousands of routers, 10k+
endpoints) that the Python cycle engine cannot sweep.

The model, per (topology, routing, traffic) triple:

1. **Demand.**  Endpoint traffic aggregates to a router-level demand
   matrix ``D`` (flits/cycle between router pairs at unit offered load
   per active endpoint).  Intra-router traffic never enters the fabric
   and is accounted separately (it is always delivered).
2. **Path sets.**  Each routing maps demand to per-channel rates:

   - *MIN* follows the deterministic next-hop table exactly (the same
     paths the cycle engine drives), keeping a per-flow channel list;
   - *VAL* decomposes into its two legs — ``s -> w`` and ``w -> d``
     for a uniform random intermediate ``w ∉ {s, d}`` — whose expected
     rates are again demand matrices, routed as ECMP fluid splits
     (the exact expectation of ``sample_min_path``'s per-hop uniform
     choice);
   - *UGAL* blends the MIN and VAL channel-load vectors: at each
     offered load it diverts the smallest traffic fraction ``x`` that
     keeps the peak channel utilisation feasible (MIN-like at low
     load, Valiant-like spreading near saturation), falling back to
     the peak-minimising blend when nothing is feasible;
   - *Dragonfly MIN/UGAL* route the canonical local-global-local
     gateway paths of :class:`~repro.routing.dragonfly_routing.
     DragonflyMinimal` (generic shortest-path tables would smear the
     single-cable funnel that defines Dragonfly behaviour), with the
     group-Valiant flavour as the UGAL diversion set;
   - *ANCA* (fat tree) spreads over all minimal next hops (ECMP) —
     the fluid ideal of per-hop adaptive up-routing.

3. **Allocation.**  Flow rates solve max-min fairness over the path
   sets by iterated water-filling: rates rise together until a channel
   saturates (its flows freeze) or a flow meets its demand, repeated
   until no flow can grow.  MIN keeps per-flow paths, so the filling
   is exact per flow; the spreading models (VAL/UGAL/ANCA) put every
   flow on essentially every bottleneck, for which water-filling
   degenerates to the uniform throttle ``min(1, capacity/peak)``.
   Everything load-independent is computed once: path sets and unit
   loads per model, and the Valiant legs' ECMP loads once per (routing
   tables, demand matrix), shared by the VAL and UGAL models of one
   topology and pattern.
4. **Latency.**  Zero-load latency is ``hop_latency x hops +
   packet_length`` (the cycle engine's unloaded pipeline), plus an
   M/M/1-style queueing term per traversed channel,
   ``rho/(1 - rho)`` packet-service times.  Saturated points report
   no latency (open-loop queues diverge), matching the cycle rows.
   The p99 needs the flows in stable latency order; a model keeps the
   last order it sorted and reuses it while one linear check confirms
   it is still the stable sort (the spreading models' latencies rise
   with fixed per-flow hop counts, so their order holds across loads).

Determinism contract (weaker than the cycle engine's bit-exactness,
stronger than "roughly reproducible"): results are a pure
single-process function of (topology, routing class + params, traffic,
loads, config) — no RNG is consumed, no scheduling enters the
computation — so campaign rows are byte-identical across worker counts
and reruns.  The cross-fidelity suite (``tests/test_cross_fidelity.py``)
pins how far flow-level saturation may drift from the cycle engine's
on small instances.
"""

from __future__ import annotations

import hashlib
import weakref

import numpy as np

from repro.routing.dragonfly_routing import DragonflyMinimal, DragonflyUGAL
from repro.routing.fattree_routing import ANCARouting
from repro.routing.minimal import MinimalRouting
from repro.routing.tables import RoutingTables
from repro.routing.ugal import UGALRouting
from repro.routing.valiant import ValiantRouting
from repro.sim.config import SimConfig
from repro.sim.stats import LoadPoint, SimResult
from repro.sim.telemetry import TelemetryResult, TelemetrySpec
from repro.traffic.patterns import FixedPermutation, UniformRandom
from repro.traffic.permutations import ShiftPattern, _BitPattern

#: Channel capacity in flits/cycle (the simulator's wire rate).
CAPACITY = 1.0
#: Saturation criterion, matching the cycle engine: a point saturates
#: when accepted falls below this fraction of the injected rate.
SATURATION_RATIO = 0.95
#: Utilisation clip for the queueing term (rho/(1-rho) diverges; the
#: clip keeps unsaturated-point latencies finite and monotone).
UTIL_CLIP = 0.995
#: Water-filling round cap.  Each round freezes at least one flow or
#: channel, so structured patterns converge in a handful of rounds;
#: the cap only bounds adversarially unstructured demand.
MAX_FILL_ROUNDS = 500
#: UGAL blend grid: candidate fractions of traffic diverted to the
#: Valiant path set (fixed grid => deterministic blend choice).
UGAL_BLEND_GRID = 101

#: Valiant unit loads per routing tables, keyed by the sha256 of the
#: demand matrix's bytes.  They depend on nothing else, so the VAL and
#: UGAL models of one topology and pattern route the two legs once;
#: entries die with their tables (the resolver's bounded cache evicts
#: them).  Each entry is read-only.
_VAL_LOADS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# -- demand aggregation -------------------------------------------------------


def router_demands(traffic, topology) -> tuple[np.ndarray, float, int]:
    """Router-level demand at unit offered load per active endpoint.

    Returns ``(D, intra, n_active)``: ``D[u, v]`` is the aggregate
    flits/cycle routers ``u -> v`` exchange when every active endpoint
    offers 1 flit/cycle, ``intra`` the total same-router demand (never
    enters the fabric, always delivered), and ``n_active`` the
    pattern's active-endpoint count (the normalisation the cycle
    engine's ``accepted_load`` uses).

    Supported patterns: uniform random, fixed permutations (including
    every worst-case generator) and the §V-B bit/shift patterns.
    Stochastic destinations aggregate to their expectation, which is
    exact for a fluid model.
    """
    n = topology.num_routers
    emap = np.asarray(topology.endpoint_map)
    if isinstance(traffic, UniformRandom):
        counts = np.bincount(emap, minlength=n).astype(float)
        total = topology.num_endpoints
        D = np.outer(counts, counts) / (total - 1)
        intra = float(np.sum(counts * (counts - 1)) / (total - 1))
        np.fill_diagonal(D, 0.0)
        return D, intra, total
    if isinstance(traffic, FixedPermutation):
        srcs = np.asarray(sorted(traffic.mapping), dtype=np.int64)
        dsts = np.asarray([traffic.mapping[int(s)] for s in srcs], dtype=np.int64)
        rates = np.ones(len(srcs))
        return _pairs_to_matrix(emap, n, srcs, dsts, rates) + (len(srcs),)
    if isinstance(traffic, ShiftPattern):
        size, half = traffic.size, traffic.size // 2
        srcs = np.arange(size, dtype=np.int64)
        base = srcs % half
        pair_srcs = np.concatenate([srcs, srcs])
        pair_dsts = np.concatenate([base, base + half])
        rates = np.full(2 * size, 0.5)
        keep = pair_dsts != pair_srcs  # self-directed coin outcomes idle
        D, intra = _pairs_to_matrix(
            emap, n, pair_srcs[keep], pair_dsts[keep], rates[keep]
        )
        return D, intra, size
    if isinstance(traffic, _BitPattern):
        srcs = np.arange(traffic.size, dtype=np.int64)
        dsts = np.asarray([traffic._map(int(s)) for s in srcs], dtype=np.int64)
        keep = dsts != srcs  # fixed points of the bit map stay idle
        D, intra = _pairs_to_matrix(
            emap, n, srcs[keep], dsts[keep], np.ones(int(keep.sum()))
        )
        return D, intra, traffic.size
    raise ValueError(
        f"flow backend has no demand model for traffic "
        f"{type(traffic).__name__!r}; supported: uniform, fixed "
        f"permutations (worst-case included), bit/shift patterns"
    )


def _pairs_to_matrix(emap, n, srcs, dsts, rates) -> tuple[np.ndarray, float]:
    """Accumulate endpoint (src, dst, rate) triples into router demand."""
    ru, rv = emap[srcs], emap[dsts]
    inter = ru != rv
    D = np.zeros((n, n))
    np.add.at(D, (ru[inter], rv[inter]), rates[inter])
    return D, float(rates[~inter].sum())


# -- flat channel map ---------------------------------------------------------


class _ChannelMap:
    """Directed router channels on flat ids, adjacency order.

    Channel ``port_base[u] + j`` carries ``u -> adjacency[u][j]`` —
    the same numbering :class:`repro.sim.network.SimNetwork` uses, so
    flow-level channel rates are directly comparable to cycle-engine
    channel traces.
    """

    def __init__(self, topology):
        adjacency = topology.adjacency
        n = len(adjacency)
        degrees = np.fromiter((len(a) for a in adjacency), dtype=np.int64, count=n)
        self.port_base = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(degrees, out=self.port_base[1:])
        self.num_channels = int(self.port_base[-1])
        #: Flattened adjacency: entry e is the channel with id e.
        self.flat_src = np.repeat(np.arange(n, dtype=np.int32), degrees)
        self.flat_dst = np.fromiter(
            (v for nbrs in adjacency for v in nbrs),
            dtype=np.int32,
            count=self.num_channels,
        )
        #: Dense (u, v) -> channel id lookup (-1 where no edge).
        self.chan_of = np.full((n, n), -1, dtype=np.int32)
        self.chan_of[self.flat_src, self.flat_dst] = np.arange(
            self.num_channels, dtype=np.int32
        )


# -- max-min fair allocation --------------------------------------------------


def waterfill(
    demands: np.ndarray,
    ent_flow: np.ndarray,
    ent_chan: np.ndarray,
    num_channels: int,
    capacity: float = CAPACITY,
) -> np.ndarray:
    """Max-min fair flow rates by iterated water-filling.

    ``demands`` caps each flow; ``(ent_flow, ent_chan)`` list every
    (flow, channel) incidence (a flow appears once per traversed
    channel).  All active rates rise together until a channel
    saturates — freezing every flow crossing it — or a flow reaches
    its demand; repeat until nothing can grow.  Deterministic: pure
    array arithmetic in fixed order, no tie-breaking randomness.  A
    saturated channel freezes its flows through a boolean mask over
    the incidence list; a flow crossing several saturated channels is
    cleared once per crossing, to the same effect.
    """
    rate = np.zeros(len(demands))
    active = demands > 0
    for _ in range(MAX_FILL_ROUNDS):
        if not active.any():
            break
        act_entries = active[ent_flow]
        load = np.bincount(
            ent_chan, weights=rate[ent_flow], minlength=num_channels
        )
        cnt = np.bincount(ent_chan[act_entries], minlength=num_channels)
        used = cnt > 0
        headroom = capacity - load
        t_link = (
            float(np.min(headroom[used] / cnt[used])) if used.any() else np.inf
        )
        t_demand = float(np.min(demands[active] - rate[active]))
        t = max(0.0, min(t_link, t_demand))
        rate[active] += t
        # Freeze order matters for nothing: both criteria are applied
        # to the post-increment state within the same round.
        saturated = used & (headroom - t * cnt <= 1e-12)
        if saturated.any():
            active[ent_flow[act_entries & saturated[ent_chan]]] = False
        active &= demands - rate > 1e-12
    return rate


# -- the model ----------------------------------------------------------------


class FlowModel:
    """Load-independent fluid state for one (topology, routing, traffic).

    Channel loads are linear in the offered load, so everything
    expensive — demand aggregation, path routing, per-channel unit
    loads — happens once here; :meth:`simulate` then solves each load
    point in milliseconds.
    """

    #: Routing classes mapped to their fluid path-set model.
    _KINDS = (
        (MinimalRouting, "min"),
        (DragonflyMinimal, "df-min"),
        (ValiantRouting, "val"),
        (UGALRouting, "ugal"),
        (DragonflyUGAL, "df-ugal"),
        (ANCARouting, "spread"),
    )

    def __init__(self, topology, routing, traffic):
        self.topology = topology
        self.kind = self._model_kind(routing)
        tables = getattr(routing, "tables", None)
        self.tables = tables if tables is not None else RoutingTables(
            topology.adjacency
        )
        self.cmap = _ChannelMap(topology)
        self.n = topology.num_routers
        if self.kind in ("val", "ugal") and self.n < 3:
            # No intermediate outside {s, d} exists: VAL and UGAL route
            # minimally, as their cycle planners do.
            self.kind = "min"
        self.D, self.intra, self.n_active = router_demands(traffic, topology)
        #: Total inter-router demand at unit offered load.
        self.total_demand = float(self.D.sum())
        #: Stable latency order of the flows at the last solved point.
        self._order: np.ndarray | None = None

        if self.kind == "min":
            self._build_min_flows()
            self.unit_loads = np.bincount(
                self.ent_chan,
                weights=self.flow_demand[self.ent_flow],
                minlength=self.cmap.num_channels,
            )
        elif self.kind == "val":
            self.unit_loads = self._val_unit_loads()
            self._build_flow_list()
        elif self.kind == "ugal":
            self.min_loads = self._det_min_loads(self.D)
            self.val_loads = self._val_unit_loads()
            self._build_flow_list()
        elif self.kind == "df-min":
            self.unit_loads = self._df_canonical_loads(self.D)
            self._build_flow_list()
        elif self.kind == "df-ugal":
            self.min_loads = self._df_canonical_loads(self.D)
            self.val_loads = self._df_group_val_loads()
            self._build_flow_list()
        else:  # spread (ANCA): ECMP over all minimal next hops
            self.unit_loads = self._ecmp_loads(self.D)
            self._build_flow_list()

    @classmethod
    def _model_kind(cls, routing) -> str:
        for klass, kind in cls._KINDS:
            if isinstance(routing, klass):
                return kind
        raise ValueError(
            f"flow backend has no path-set model for routing "
            f"{type(routing).__name__!r}; supported: MIN, Valiant, "
            f"UGAL (SF/DF) and FT-ANCA"
        )

    # -- path-set -> unit channel loads -----------------------------------

    def _build_flow_list(self) -> None:
        """Flow (src, dst, demand, hops) arrays for the spread models."""
        fs, fd = np.nonzero(self.D)
        self.flow_src, self.flow_dst = fs, fd
        self.flow_demand = self.D[fs, fd]
        self.flow_hops = self.tables.dist[fs, fd].astype(np.float64)
        if self.kind in ("val", "ugal", "df-ugal"):
            # Expected Valiant hops per flow: mean over intermediates
            # of d(s,w) + d(w,d).  The 1/(n-2) exclusion correction is
            # O(1/n) and dropped.
            dist = self.tables.dist
            row_mean = dist.mean(axis=1)
            col_mean = dist.mean(axis=0)
            self.flow_hops_val = row_mean[fs] + col_mean[fd]

    def _build_min_flows(self) -> None:
        """Per-flow deterministic MIN paths as (flow, channel) entries."""
        fs, fd = np.nonzero(self.D)
        self.flow_src, self.flow_dst = fs, fd
        self.flow_demand = self.D[fs, fd]
        self.flow_hops = self.tables.dist[fs, fd].astype(np.float64)
        nh = self.tables.next_hop_matrix()
        chan_of = self.cmap.chan_of
        flows, chans = [], []
        idx = np.arange(len(fs))
        cur = fs.copy()
        dst = fd
        while len(idx):
            nxt = nh[cur, dst[idx]]
            flows.append(idx)
            chans.append(chan_of[cur, nxt])
            alive = nxt != dst[idx]
            idx, cur = idx[alive], nxt[alive]
        self.ent_flow = (
            np.concatenate(flows) if flows else np.empty(0, dtype=np.int64)
        )
        self.ent_chan = (
            np.concatenate(chans) if chans else np.empty(0, dtype=np.int32)
        )

    def _det_min_loads(self, D: np.ndarray) -> np.ndarray:
        """Channel loads of deterministic next-hop routing (loads only).

        Propagates the whole demand matrix one hop per round — no
        per-flow bookkeeping, so it stays cheap for the dense matrices
        the UGAL blend routes (n^2 flows at paper scale).
        """
        n = self.n
        nh = self.tables.next_hop_matrix()
        chan_of = self.cmap.chan_of
        loads = np.zeros(self.cmap.num_channels)
        T = D.copy()
        for _ in range(int(self.tables.dist.max())):
            uu, dd = np.nonzero(T)
            if not len(uu):
                break
            rates = T[uu, dd]
            nxt = nh[uu, dd]
            loads += np.bincount(
                chan_of[uu, nxt], weights=rates, minlength=self.cmap.num_channels
            )
            moved = nxt != dd
            T = np.zeros((n, n))
            np.add.at(T, (nxt[moved], dd[moved]), rates[moved])
        return loads

    def _ecmp_loads(self, D: np.ndarray) -> np.ndarray:
        """Channel loads under even splitting over minimal next hops.

        The fluid ECMP model of :mod:`repro.analysis.channel_load`,
        vectorised per destination over the flat edge list: at each
        distance level, a router's through-traffic divides equally
        among its neighbours one hop closer to the destination.

        ``D`` may stack several demand matrices on leading axes (the
        Valiant legs); the result has shape ``D.shape[:-2] +
        (num_channels,)``.  Each destination's level edges and next-hop
        counts are found once for all of them, and each matrix's loads
        accumulate in the same destination and level order as a call
        of its own, so every sum is the same.
        """
        n = self.n
        dist = self.tables.dist
        flat_src, flat_dst = self.cmap.flat_src, self.cmap.flat_dst
        Ds = D.reshape(-1, n, n)
        loads = np.zeros((len(Ds), self.cmap.num_channels))
        for d in range(n):
            dcol = dist[:, d]
            # Deepest level holding demand, per matrix (0: none to route).
            tops = [int(dcol[M[:, d] > 0].max(initial=0)) for M in Ds]
            if not any(tops):
                continue
            src_level = dcol[flat_src]
            down = np.nonzero(src_level - dcol[flat_dst] == 1)[0]
            down_level = src_level[down]
            xs = [M[:, d].astype(np.float64) for M in Ds]
            for k in range(max(tops), 0, -1):
                edges = down[down_level == k]
                if not edges.size:
                    continue
                srcs, dsts = flat_src[edges], flat_dst[edges]
                share = np.maximum(np.bincount(srcs, minlength=n), 1)
                for i, x in enumerate(xs):
                    if k > tops[i]:
                        continue
                    contrib = (x / share)[srcs]
                    loads[i, edges] += contrib
                    xs[i] = x + np.bincount(dsts, weights=contrib, minlength=n)
        return loads.reshape(D.shape[:-2] + (self.cmap.num_channels,))

    # -- Dragonfly canonical (gateway) path set ----------------------------

    def _df_structure(self):
        """Group membership and the (g x g) gateway-router matrix."""
        topo = self.topology
        if not hasattr(topo, "gateway_router"):
            raise ValueError(
                "Dragonfly routing given a non-Dragonfly topology "
                f"({type(topo).__name__}); the flow model needs its "
                "gateway structure"
            )
        if not hasattr(self, "_df_groups"):
            g = topo.g
            group_of = np.fromiter(
                (topo.group_of(r) for r in range(self.n)),
                dtype=np.int64,
                count=self.n,
            )
            gateways = np.zeros((g, g), dtype=np.int64)
            for g1 in range(g):
                for g2 in range(g):
                    if g1 != g2:
                        gateways[g1, g2] = topo.gateway_router(g1, g2)
            #: (n x g) one-hot membership, for group aggregation matmuls.
            member = np.zeros((self.n, g))
            member[np.arange(self.n), group_of] = 1.0
            self._df_groups = (group_of, gateways, member)
        return self._df_groups

    def _df_canonical_loads(self, D: np.ndarray) -> np.ndarray:
        """Channel loads of canonical local-global-local DF routing.

        Every inter-group flow funnels through the single designated
        gateway pair of its (source group, destination group) cable —
        the structure that produces the Dragonfly worst case.  Four
        contributions: intra-group direct hops, the local up-hop to
        the source gateway, the global cable, and the local down-hop
        from the destination gateway.
        """
        group_of, gateways, member = self._df_structure()
        n, g = self.n, member.shape[1]
        chan_of = self.cmap.chan_of
        loads = np.zeros(self.cmap.num_channels)

        # Intra-group pairs: groups are cliques, one direct local hop.
        uu, vv = np.nonzero(D)
        same = group_of[uu] == group_of[vv]
        if same.any():
            np.add.at(loads, chan_of[uu[same], vv[same]], D[uu[same], vv[same]])

        # Router -> destination-group aggregate demand (n x g).
        M = D @ member
        rows = np.repeat(np.arange(n), g)
        dst_groups = np.tile(np.arange(g), n)
        inter = group_of[rows] != dst_groups
        rows, dst_groups = rows[inter], dst_groups[inter]
        rates = M[rows, dst_groups]
        nz = rates > 0
        rows, dst_groups, rates = rows[nz], dst_groups[nz], rates[nz]
        gw_src = gateways[group_of[rows], dst_groups]
        up = gw_src != rows  # the gateway itself skips the local hop
        np.add.at(loads, chan_of[rows[up], gw_src[up]], rates[up])

        # Global cables: group-pair totals over the single gateway pair.
        G = member.T @ M
        g1, g2 = np.nonzero(G)
        off = g1 != g2
        g1, g2 = g1[off], g2[off]
        np.add.at(
            loads, chan_of[gateways[g1, g2], gateways[g2, g1]], G[g1, g2]
        )

        # Source-group -> router aggregate demand (g x n), down-hops.
        T = member.T @ D
        src_groups = np.repeat(np.arange(g), n)
        cols = np.tile(np.arange(n), g)
        inter = src_groups != group_of[cols]
        src_groups, cols = src_groups[inter], cols[inter]
        rates = T[src_groups, cols]
        nz = rates > 0
        src_groups, cols, rates = src_groups[nz], cols[nz], rates[nz]
        gw_dst = gateways[group_of[cols], src_groups]
        down = gw_dst != cols
        np.add.at(loads, chan_of[gw_dst[down], cols[down]], rates[down])
        return loads

    def _df_group_val_loads(self) -> np.ndarray:
        """Unit channel loads of DF group-Valiant misrouting.

        A diverted packet goes canonically to a uniform random router
        of a random intermediate group, then canonically on — so both
        legs are canonical-path demand matrices again.  Exclusion of
        the endpoint groups is an O(1/g) correction and dropped; leg
        demand spreads mass-preservingly over all other groups.
        """
        group_of, gateways, member = self._df_structure()
        D, n = self.D, self.n
        g = member.shape[1]
        a = n // g  # routers per group (canonical DF is uniform)
        spread = np.full((n, n), 1.0 / max(1, (g - 1) * a))
        # Zero the same-group block: intermediates live in other groups.
        same = group_of[:, None] == group_of[None, :]
        spread[same] = 0.0
        D1 = D.sum(axis=1)[:, None] * spread
        D2 = spread * D.sum(axis=0)[None, :]
        return self._df_canonical_loads(D1) + self._df_canonical_loads(D2)

    def _val_unit_loads(self) -> np.ndarray:
        """Unit channel loads of the Valiant path set (read-only).

        Phase demands: leg 1 carries ``D1[s, w] = (sum_d D[s, d] -
        D[s, w]) / (n - 2)`` (every flow from ``s`` spread over its
        admissible intermediates), leg 2 symmetrically into each
        destination; both legs route as ECMP fluid (the expectation of
        per-hop uniform path sampling), in one pass.  Memoized in
        :data:`_VAL_LOADS` where the topology numbers its channels
        over the tables' own adjacency.
        """
        D, n = self.D, self.n
        shared = self.tables.adjacency == self.topology.adjacency
        memo = _VAL_LOADS.setdefault(self.tables, {}) if shared else {}
        key = hashlib.sha256(D.tobytes()).hexdigest()
        if key not in memo:
            legs = np.empty((2, n, n))
            np.subtract(D.sum(axis=1)[:, None], D, out=legs[0])
            np.subtract(D.sum(axis=0)[None, :], D, out=legs[1])
            legs /= n - 2
            for leg in legs:
                np.fill_diagonal(leg, 0.0)
            leg1, leg2 = self._ecmp_loads(legs)
            loads = leg1 + leg2
            loads.flags.writeable = False
            memo[key] = loads
        return memo[key]

    # -- per-load solution -------------------------------------------------

    def _ugal_blend(self, load: float) -> tuple[float, np.ndarray]:
        """Smallest feasible Valiant fraction at ``load`` (else argmin).

        Peak utilisation is convex in the blend fraction (a max of
        lines), so scanning a fixed grid from 0 finds the least
        diversion that fits — UGAL's "minimal unless congested" —
        deterministically; when no fraction fits, the peak-minimising
        blend is used and the point throttles.  The per-fraction peaks
        are load-independent (loads scale linearly), so the grid is
        computed once and cached across the sweep's load points.
        """
        if not hasattr(self, "_blend_peaks"):
            xs = np.linspace(0.0, 1.0, UGAL_BLEND_GRID)
            self._blend_peaks = xs, np.array(
                [
                    np.max((1.0 - x) * self.min_loads + x * self.val_loads)
                    for x in xs
                ]
            )
        xs, peaks = self._blend_peaks
        feasible = np.nonzero(load * peaks <= CAPACITY)[0]
        best = int(feasible[0]) if feasible.size else int(np.argmin(peaks))
        x = float(xs[best])
        return x, (1.0 - x) * self.min_loads + x * self.val_loads

    def simulate(
        self,
        offered_load: float,
        config: SimConfig | None = None,
        telemetry: TelemetrySpec | None = None,
    ) -> SimResult:
        """Solve one load point; returns a cycle-compatible SimResult.

        ``delivered``/``injected`` count *flows* (the fluid analogue of
        packets): a saturated point reports ``delivered=0`` so the
        sweep layer nulls its latency exactly like a collapsed cycle
        run.  ``cycles`` is 0 — nothing was ticked.

        With ``telemetry`` armed, the already-computed per-channel
        steady-state rates (same flat channel numbering as the cycle
        engines) and the routing-diversion fraction ride out on
        ``result.telemetry``; packet-granular probes (histograms, queue
        occupancy) stay ``None`` — a fluid model has no packets.
        """
        config = config or SimConfig()
        load = float(offered_load)
        n_flows = len(self.flow_demand)
        offered_total = load * self.total_demand
        diverted_frac = 0.0

        if self.kind == "min":
            demands = load * self.flow_demand
            rates = waterfill(
                demands, self.ent_flow, self.ent_chan, self.cmap.num_channels
            )
            accepted_total = float(rates.sum())
            channel_loads = np.bincount(
                self.ent_chan,
                weights=rates[self.ent_flow],
                minlength=self.cmap.num_channels,
            )
            hops = self.flow_hops
            per_flow_wait = np.zeros(n_flows)
            util = np.minimum(channel_loads / CAPACITY, UTIL_CLIP)
            wait = util / (1.0 - util)
            np.add.at(per_flow_wait, self.ent_flow, wait[self.ent_chan])
        else:
            if self.kind in ("ugal", "df-ugal"):
                blend, unit_loads = self._ugal_blend(load)
                hops = (1.0 - blend) * self.flow_hops + blend * self.flow_hops_val
                diverted_frac = blend
            else:
                unit_loads = self.unit_loads
                hops = (
                    self.flow_hops_val if self.kind == "val" else self.flow_hops
                )
                if self.kind == "val":
                    diverted_frac = 1.0
            peak = float(unit_loads.max()) if unit_loads.size else 0.0
            throttle = (
                min(1.0, CAPACITY / (load * peak)) if load * peak > 0 else 1.0
            )
            rates = load * throttle * self.flow_demand
            accepted_total = float(rates.sum())
            channel_loads = load * throttle * unit_loads
            util = np.minimum(channel_loads / CAPACITY, UTIL_CLIP)
            load_mass = float(channel_loads.sum())
            mean_wait = (
                float((channel_loads * (util / (1.0 - util))).sum()) / load_mass
                if load_mass > 0
                else 0.0
            )
            per_flow_wait = hops * mean_wait

        saturated = (
            offered_total > 0
            and accepted_total < SATURATION_RATIO * offered_total
        )
        pl = config.packet_length
        base = config.hop_latency * hops + pl
        latency = base + pl * per_flow_wait
        # Flow rates weight the latency statistics; their total is the
        # accepted fabric rate.
        if saturated or accepted_total <= 0:
            avg_latency = p99 = float("nan")
            queue_latency = float("nan")
        else:
            avg_latency = float((rates * latency).sum()) / accepted_total
            p99 = self._p99(latency, rates)
            queue_latency = (
                pl * float((rates * per_flow_wait).sum()) / accepted_total
            )

        n_active = max(1, self.n_active)
        accepted = (accepted_total + load * self.intra) / n_active
        tele_result = None
        if telemetry is not None and telemetry.enabled:
            tele_result = TelemetryResult(
                cycles=0,
                channel_load=(
                    tuple(channel_loads.tolist())
                    if telemetry.channel_flits
                    else None
                ),
                route_diverted_frac=(
                    diverted_frac if telemetry.routing_decisions else None
                ),
            )
        return SimResult(
            offered_load=load,
            accepted_load=accepted,
            avg_latency=avg_latency,
            p99_latency=p99,
            delivered=0 if saturated else n_flows,
            injected=n_flows,
            saturated=bool(saturated),
            cycles=0,
            avg_queue_latency=queue_latency,
            telemetry=tele_result,
        )

    def _p99(self, latency: np.ndarray, rates: np.ndarray) -> float:
        """Rate-weighted p99 latency, sorting only when the order moved."""
        if self._order is None or not _is_stable_order(latency, self._order):
            self._order = np.argsort(latency, kind="stable")
        return _weighted_percentile(latency, rates, 99.0, self._order)

    def saturation_load(
        self, loads, config: SimConfig | None = None
    ) -> float | None:
        """First offered load of the schedule that saturates."""
        for load in loads:
            if self.simulate(load, config).saturated:
                return load
        return None


def _is_stable_order(values: np.ndarray, order: np.ndarray) -> bool:
    """Whether the permutation ``order`` is ``np.argsort(values,
    kind="stable")``: values non-decreasing along it, equal values in
    ascending index.  One linear pass; NaN never passes."""
    ranked = values[order]
    lo, hi = ranked[:-1], ranked[1:]
    return bool(np.all((lo < hi) | ((lo == hi) & (order[:-1] < order[1:]))))


def _weighted_percentile(
    values: np.ndarray, weights: np.ndarray, q: float, order: np.ndarray
) -> float:
    """Weighted percentile (lowest value covering q% of the mass).

    ``order`` is the stable ascending order of ``values``."""
    cum = np.cumsum(weights[order])
    total = cum[-1]
    if total <= 0:
        return float("nan")
    idx = int(np.searchsorted(cum, (q / 100.0) * total, side="left"))
    return float(values[order[min(idx, len(order) - 1)]])


# -- engine-style entry points ------------------------------------------------


def flow_simulate(
    topology,
    routing,
    traffic,
    offered_load: float,
    config: SimConfig | None = None,
    telemetry: TelemetrySpec | None = None,
) -> SimResult:
    """One-shot flow-level solution of a single load point.

    Signature-compatible with :func:`repro.sim.engine.simulate`; for
    sweeps build one :class:`FlowModel` and reuse it — the model setup
    dominates and the per-load solve is cheap.
    """
    return FlowModel(topology, routing, traffic).simulate(
        offered_load, config, telemetry
    )


def flow_sweep(
    topology,
    routing_factory,
    traffic,
    loads,
    config: SimConfig | None = None,
    stop_after_saturation: int = 1,
    telemetry: TelemetrySpec | None = None,
) -> list[LoadPoint]:
    """Latency-vs-load curve under the flow-level model.

    The ``flow`` backend's entry into the one load-sweep walk
    (:func:`repro.sim.parallel.parallel_latency_vs_load`): one
    :class:`FlowModel`, one solve per load up to the saturation
    cutoff, and fill rows after it — the same row contract as the
    cycle sweeps, so cycle and flow curves overlay in the same figures.
    """
    # Lazy import: the walk (Layer 3) sits above this engine module.
    from repro.sim.parallel import parallel_latency_vs_load

    return parallel_latency_vs_load(
        topology, routing_factory, traffic, loads, config,
        stop_after_saturation=stop_after_saturation, backend="flow",
        telemetry=telemetry,
    )
