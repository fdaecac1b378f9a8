"""Traffic-pattern base class and uniform random traffic (§V-A).

A pattern answers two questions for the injection process: which
endpoints inject at all (``active_endpoints``), and where a given
source sends (``destination``).  Destinations may be stochastic
(uniform random draws a fresh destination per packet) or fixed
(permutations, adversarial patterns).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.topologies.base import Topology


class TrafficPattern(ABC):
    """Interface consumed by :class:`repro.sim.engine.SimEngine`."""

    name: str = "traffic"
    #: True when :meth:`destinations` never returns a source's own id,
    #: so the engines may skip their self-traffic filter.
    excludes_self: bool = False

    @abstractmethod
    def destination(self, src_endpoint: int, rng) -> int | None:
        """Destination endpoint for a packet from ``src_endpoint``.

        ``None`` means the source stays idle for this packet slot.
        """

    def destinations(self, src_endpoints, rng) -> np.ndarray:
        """Batch form of :meth:`destination` for one injection cycle.

        ``src_endpoints`` is an array/sequence of sources injecting
        this cycle (ascending); returns an int64 array of matching
        destinations, in which an idle slot holds its own source id
        for the engines' self-traffic filter to drop.  The default
        delegates to :meth:`destination` per source; stochastic
        patterns should override with a vectorised draw that consumes
        the RNG stream *identically* to the sequential calls, so batch
        and per-packet injection produce the same simulation.
        """
        srcs = [int(s) for s in src_endpoints]
        dsts = [self.destination(s, rng) for s in srcs]
        return np.array(
            [s if d is None else d for s, d in zip(srcs, dsts)], dtype=np.int64
        )

    def active_endpoints(self, topology: Topology) -> list[int]:
        """Endpoints that inject (defaults to all)."""
        return list(range(topology.num_endpoints))


class UniformRandom(TrafficPattern):
    """Each packet draws a uniform random destination ≠ source (§V-A).

    Represents irregular workloads: graph computations, sparse linear
    algebra, adaptive mesh refinement.
    """

    name = "uniform"
    #: Destinations never equal the source (draw over n-1 then shift),
    #: so the injector can skip its self-traffic filter.
    excludes_self = True

    def __init__(self, num_endpoints: int):
        if num_endpoints < 2:
            raise ValueError("uniform traffic needs at least 2 endpoints")
        self.num_endpoints = num_endpoints

    def destination(self, src_endpoint: int, rng) -> int:
        dst = int(rng.integers(self.num_endpoints - 1))
        return dst if dst < src_endpoint else dst + 1

    def destinations(self, src_endpoints, rng):
        """One vectorised draw for the whole cycle.

        numpy's bounded-integer generation consumes the bit stream
        element-by-element exactly as scalar calls do, so this returns
        the same values as the sequential :meth:`destination` loop.
        """
        srcs = np.asarray(src_endpoints)
        dsts = rng.integers(self.num_endpoints - 1, size=len(srcs))
        return dsts + (dsts >= srcs)


class FixedPermutation(TrafficPattern):
    """An arbitrary fixed endpoint permutation (building block)."""

    name = "permutation"
    #: Mapped sources never target themselves (validated below), so
    #: the batched injector can take the no-self-filter fast path.
    excludes_self = True

    def __init__(self, mapping: dict[int, int], name: str | None = None):
        self.mapping = dict(mapping)
        if name:
            self.name = name
        for s, d in self.mapping.items():
            if s == d:
                raise ValueError(f"self-directed traffic at endpoint {s}")
        #: Dense lookup for the vectorised batch draw.  Unmapped slots
        #: point at themselves; the engine never queries them (only
        #: ``active_endpoints`` — the mapping's keys — inject), and the
        #: scalar :meth:`destination` keeps returning ``None`` for them.
        table = np.arange(max(self.mapping) + 1 if self.mapping else 0,
                          dtype=np.int64)
        for s, d in self.mapping.items():
            table[s] = d
        self._table = table

    def destination(self, src_endpoint: int, rng) -> int | None:
        return self.mapping.get(src_endpoint)

    def destinations(self, src_endpoints, rng):
        """Vectorised fixed lookup (no RNG; trivially stream-identical).

        ``src_endpoints`` must be active (mapped) sources, as the
        engine guarantees; returning an ndarray keeps batched
        injection on the fast path for permutation patterns.
        """
        return self._table[np.asarray(src_endpoints)]

    def active_endpoints(self, topology: Topology) -> list[int]:
        return sorted(self.mapping)
