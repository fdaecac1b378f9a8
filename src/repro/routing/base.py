"""The routing-algorithm interface the simulator drives.

Two flavours:

- **Source-routed** (:class:`SourceRoutedAlgorithm`): the full router
  path is chosen at injection (MIN, VAL, UGAL-L, UGAL-G — the paper's
  UGAL selects between a minimal and a Valiant path per packet at the
  source).  The simulator then just follows ``packet.path``.
- **Per-hop adaptive** (:class:`RoutingAlgorithm` with
  ``source_routed = False``): the next hop is chosen at every router
  (fat-tree ANCA adapts on the upward phase).

Virtual channels follow Gopal's scheme (§IV-D): a packet on hop i
travels in VC i, so ``num_vcs`` must be at least the longest path the
algorithm can produce.
"""

from __future__ import annotations

from abc import ABC, abstractmethod


class RoutingAlgorithm(ABC):
    """Abstract routing algorithm.

    Attributes
    ----------
    name:
        Protocol label used in experiment output (e.g. ``"SF-MIN"``).
    num_vcs:
        Virtual channels required for deadlock freedom under the
        hop-indexed VC scheme.
    source_routed:
        Whether :meth:`plan` fixes the full path at injection.
    """

    name: str = "routing"
    num_vcs: int = 1
    source_routed: bool = True

    @abstractmethod
    def plan(self, src_router: int, dst_router: int, network) -> list[int] | None:
        """Choose a router path at injection.

        Returns the full path ``[src, ..., dst]`` for source-routed
        algorithms, or ``None`` for per-hop algorithms.  ``network``
        exposes ``queue_length(router, neighbor)``, which adaptive
        protocols read: the cycle engines pass the injection phase's
        :class:`repro.sim.network.QueueSnapshot`, and analysis callers
        may pass any object with that method.
        """

    def next_hop(self, at_router: int, dst_router: int, packet, network) -> int:
        """Per-hop decision; only called when ``source_routed`` is False."""
        raise NotImplementedError(f"{self.name} is source-routed")


class SourceRoutedAlgorithm(RoutingAlgorithm):
    """Convenience base for algorithms that always produce a full path."""

    source_routed = True

    def next_hop(self, at_router, dst_router, packet, network) -> int:
        raise NotImplementedError(f"{self.name} plans complete paths at the source")
