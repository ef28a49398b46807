"""Node interconnect model: PCIe host links, intra-card links, GPU fabric.

Two structural facts from the paper drive this module:

1. **Only Stack 0 of a PVC card has the PCIe link** (Section II): host
   traffic for stack 1 first crosses the on-card stack-to-stack (MDFI)
   interconnect.
2. **Xe-Link planes** (Section IV-A.4): although the stacks appear
   all-to-all connected, each stack physically belongs to one of two
   planes.  On Aurora the planes are ``{0.0, 1.1, 2.0, 3.0, 4.0, 5.1}``
   and ``{0.1, 1.0, 2.1, 3.1, 4.1, 5.0}``.  Stacks within a plane are
   directly connected; a transfer between stacks in *different* planes
   needs an extra hop, e.g. ``0.0 -> 1.0`` routes as ``0.0 -> 1.1 -> 1.0``
   or ``0.0 -> 0.1 -> 1.0``.

The fabric is an adjacency map over host sockets and logical devices;
routing is a breadth-first search that keeps every minimum-hop path, so
the two alternative paths the paper describes fall out of the topology.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from ..errors import TopologyError
from .ids import StackRef

__all__ = ["LinkKind", "Link", "Route", "Fabric", "HOST"]

#: Graph node representing a host socket: ("host", socket_index).
HOST = "host"


class LinkKind(enum.Enum):
    """Physical link types with their per-direction raw peak bandwidth."""

    PCIE_GEN5_X16 = ("PCIe Gen5 x16", 64e9)
    PCIE_GEN4_X16 = ("PCIe Gen4 x16", 32e9)
    MDFI = ("PVC stack-to-stack", 230e9)
    XELINK = ("Xe-Link", 26.6e9)
    NVLINK4 = ("NVLink 4", 450e9)
    INFINITY_FABRIC = ("Infinity Fabric", 50e9)
    XGMI = ("xGMI GPU bridge", 50e9)

    def __init__(self, label: str, peak_bw_per_dir: float) -> None:
        self.label = label
        self.peak_bw_per_dir = peak_bw_per_dir


@dataclass(frozen=True, slots=True)
class Link:
    """A bidirectional link instance between two fabric endpoints."""

    kind: LinkKind
    #: Small fixed per-message latency (seconds).
    latency_s: float = 2e-6

    @property
    def peak_bw_per_dir(self) -> float:
        return self.kind.peak_bw_per_dir


@dataclass(frozen=True, slots=True)
class Route:
    """An ordered path through the fabric."""

    hops: tuple[tuple[object, object, Link], ...]

    @property
    def n_hops(self) -> int:
        return len(self.hops)

    @property
    def endpoints(self) -> tuple[object, object]:
        return (self.hops[0][0], self.hops[-1][1])

    @property
    def kinds(self) -> tuple[LinkKind, ...]:
        return tuple(link.kind for _, _, link in self.hops)

    @property
    def latency_s(self) -> float:
        return sum(link.latency_s for _, _, link in self.hops)

    def bottleneck_bw(self, efficiency) -> float:
        """Min over hops of ``peak * efficiency(kind)``."""
        return min(
            link.peak_bw_per_dir * efficiency(link.kind)
            for _, _, link in self.hops
        )

    def describe(self) -> str:
        parts = [str(self.hops[0][0])]
        for _, dst, link in self.hops:
            parts.append(f"--{link.kind.name}--> {dst}")
        return " ".join(parts)


class Fabric:
    """The node's interconnect graph.

    Nodes are either ``(HOST, socket)`` tuples or :class:`StackRef`s.
    """

    def __init__(self) -> None:
        # node -> {neighbour: Link}, both directions, in insertion order.
        self._adj: dict[object, dict[object, Link]] = {}
        self._planes: tuple[frozenset[StackRef], ...] = ()
        # Health overlay (fault injection).  The underlying graph is never
        # mutated: dead stacks and dead/degraded links are tracked here and
        # filtered out (or scaled) by the routing/bandwidth queries.
        self._down_stacks: set[StackRef] = set()
        self._link_health: dict[frozenset, float] = {}
        # Route memoization.  Enumerating minimum-hop routes searches the
        # graph and builds Route objects on every P2P query, yet the
        # answer only changes when the topology or the health overlay
        # does, so every mutator bumps ``_route_generation`` and drops
        # the caches.
        self._route_generation = 0
        self._route_cache: dict[tuple, list[Route]] = {}
        self._hops_cache: dict[tuple, int] = {}
        # Optional telemetry hook: called as fn(src, dst, route) on every
        # routing decision.  Must not call route() back (re-entrancy).
        self._observer = None

    def _invalidate_routes(self) -> None:
        self._route_generation += 1
        self._route_cache.clear()
        self._hops_cache.clear()

    def set_observer(self, fn) -> None:
        """Install (or clear, with None) the routing-decision observer."""
        self._observer = fn

    # -- construction -------------------------------------------------

    def add_host(self, socket: int) -> None:
        self._adj.setdefault((HOST, socket), {})

    def add_stack(self, ref: StackRef) -> None:
        self._adj.setdefault(ref, {})

    def connect(self, a, b, link: Link) -> None:
        if a not in self._adj or b not in self._adj:
            raise TopologyError(f"unknown endpoint in {a} -- {b}")
        self._adj[a][b] = self._adj[b][a] = link
        self._invalidate_routes()

    def set_planes(self, planes: Sequence[Iterable[StackRef]]) -> None:
        self._planes = tuple(frozenset(p) for p in planes)

    # -- health overlay (fault injection) -------------------------------

    def set_stack_down(self, ref: StackRef) -> None:
        """Mark a stack as lost: it disappears from routing and enumeration."""
        if ref not in self._adj:
            raise TopologyError(f"unknown stack {ref}")
        self._down_stacks.add(ref)
        self._invalidate_routes()

    def revive_stack(self, ref: StackRef) -> None:
        self._down_stacks.discard(ref)
        self._invalidate_routes()

    def is_down(self, ref) -> bool:
        return ref in self._down_stacks

    def set_link_health(self, a, b, factor: float) -> None:
        """Scale a link's bandwidth: 1.0 healthy, 0.0 outage."""
        if self.link_between(a, b) is None:
            raise TopologyError(f"no link {a} -- {b}")
        if not (0.0 <= factor <= 1.0):
            raise TopologyError(f"bad link health {factor}")
        self._link_health[frozenset((a, b))] = factor
        self._invalidate_routes()

    def set_plane_health(self, plane_index: int, factor: float) -> None:
        """Degrade (or kill, factor=0) every Xe-Link edge inside a plane."""
        try:
            plane = self._planes[plane_index]
        except IndexError:
            raise TopologyError(f"no plane {plane_index}") from None
        for a, b in itertools.combinations(sorted(plane), 2):
            link = self.link_between(a, b)
            if link is not None and link.kind is LinkKind.XELINK:
                self.set_link_health(a, b, factor)

    def link_health(self, a, b) -> float:
        return self._link_health.get(frozenset((a, b)), 1.0)

    def reset_health(self) -> None:
        self._down_stacks.clear()
        self._link_health.clear()
        self._invalidate_routes()

    @property
    def has_degradation(self) -> bool:
        return bool(self._down_stacks) or any(
            f < 1.0 for f in self._link_health.values()
        )

    @property
    def down_stacks(self) -> list[StackRef]:
        return sorted(self._down_stacks)

    @property
    def degraded_links(self) -> list[tuple[object, object, float]]:
        """(a, b, health) for every link whose health is below 1.0."""
        out = []
        for key, health in self._link_health.items():
            if health < 1.0:
                a, b = sorted(key, key=str)
                out.append((a, b, health))
        return sorted(out, key=lambda t: (str(t[0]), str(t[1])))

    # -- queries --------------------------------------------------------

    @property
    def stacks(self) -> list[StackRef]:
        return sorted(n for n in self._adj if isinstance(n, StackRef))

    @property
    def alive_stacks(self) -> list[StackRef]:
        return [s for s in self.stacks if s not in self._down_stacks]

    @property
    def planes(self) -> tuple[frozenset[StackRef], ...]:
        return self._planes

    def plane_of(self, ref: StackRef) -> int:
        for i, plane in enumerate(self._planes):
            if ref in plane:
                return i
        raise TopologyError(f"{ref} is not in any plane")

    def same_plane(self, a: StackRef, b: StackRef) -> bool:
        return self.plane_of(a) == self.plane_of(b)

    def link_between(self, a, b) -> Link | None:
        return self._adj.get(a, {}).get(b)

    def _shortest_paths(self, src, dst, alive: bool) -> list[list]:
        """Every minimum-hop node path from *src* to *dst*.

        A breadth-first search records hop distances from *src*; walking
        back from *dst* along decreasing distance yields each path.
        Device-to-device paths stay on stacks, and with *alive* dead
        stacks and links at health 0.0 are skipped.
        """
        on_stacks = isinstance(src, StackRef) and isinstance(dst, StackRef)

        def usable(node, via) -> bool:
            if on_stacks and not isinstance(node, StackRef):
                return False
            return not alive or (
                node not in self._down_stacks
                and (via is None or self.link_health(node, via) != 0.0)
            )

        if src not in self._adj or not usable(src, None):
            raise TopologyError(f"no route {src} -> {dst}")
        dist = {src: 0}
        frontier = [src]
        while frontier and dst not in dist:
            nxt = []
            for u in frontier:
                for v in self._adj[u]:
                    if v not in dist and usable(v, u):
                        dist[v] = dist[u] + 1
                        nxt.append(v)
            frontier = nxt
        if dst not in dist:
            raise TopologyError(f"no route {src} -> {dst}")
        paths = [[dst]]
        for _ in range(dist[dst]):
            paths = [
                [u] + p
                for p in paths
                for u in self._adj[p[0]]
                if dist.get(u) == dist[p[0]] - 1 and usable(u, p[0])
            ]
        return paths

    def routes(self, src, dst) -> list[Route]:
        """All minimum-hop routes (plus ties) from *src* to *dst*.

        Device-to-device routes never detour through a host socket (the
        driver moves GPU buffers over the GPU fabric); for cross-plane PVC
        stack pairs this returns exactly the two 2-hop alternatives the
        paper describes.
        """
        if src == dst:
            raise TopologyError("src == dst")
        cached = self._route_cache.get((src, dst))
        if cached is not None:
            return list(cached)
        routes = [
            Route(tuple((u, v, self._adj[u][v]) for u, v in zip(p, p[1:])))
            for p in self._shortest_paths(src, dst, alive=True)
        ]
        routes.sort(key=lambda r: (r.n_hops, r.describe()))
        self._route_cache[(src, dst)] = routes
        return list(routes)

    def route(self, src, dst) -> Route:
        """A deterministic best (minimum-hop, lexicographically first) route."""
        route = self.routes(src, dst)[0]
        if self._observer is not None:
            self._observer(src, dst, route)
        return route

    def healthy_hops(self, src, dst) -> int:
        """Minimum hop count ignoring the health overlay.

        The degraded-routing model compares the current route against this
        baseline: extra hops forced by dead links cost relay efficiency.
        """
        cached = self._hops_cache.get((src, dst))
        if cached is not None:
            return cached
        hops = len(self._shortest_paths(src, dst, alive=False)[0]) - 1
        self._hops_cache[(src, dst)] = hops
        return hops

    def is_route_degraded(self, src, dst) -> bool:
        """True when the best live route is longer than the healthy route
        or crosses a bandwidth-degraded link."""
        if not self.has_degradation:
            return False
        route = self.route(src, dst)  # raises TopologyError if unroutable
        if route.n_hops > self.healthy_hops(src, dst):
            return True
        return any(self.link_health(u, v) < 1.0 for u, v, _ in route.hops)

    def host_route(self, socket: int, ref: StackRef) -> Route:
        """Route from a host socket to a stack (via PCIe, + MDFI if needed)."""
        return self.route((HOST, socket), ref)

    def degree(self, node) -> int:
        return len(self._adj[node])

    def xelink_neighbors(self, ref: StackRef) -> list[StackRef]:
        return sorted(
            nbr for nbr, link in self._adj[ref].items()
            if link.kind is LinkKind.XELINK
        )


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def aurora_planes() -> list[list[StackRef]]:
    """The Aurora Xe-Link plane assignment quoted verbatim in Section IV-A."""
    plane_a = ["0.0", "1.1", "2.0", "3.0", "4.0", "5.1"]
    plane_b = ["0.1", "1.0", "2.1", "3.1", "4.1", "5.0"]
    from .ids import parse_stack_ref

    return [[parse_stack_ref(s) for s in plane_a],
            [parse_stack_ref(s) for s in plane_b]]


def parity_planes(n_cards: int) -> list[list[StackRef]]:
    """A generic two-plane assignment for systems whose exact wiring the
    paper does not publish (Dawn): alternate stacks by card parity."""
    plane_a, plane_b = [], []
    for card in range(n_cards):
        first, second = StackRef(card, 0), StackRef(card, 1)
        if card % 2 == 0:
            plane_a.append(first)
            plane_b.append(second)
        else:
            plane_a.append(second)
            plane_b.append(first)
    return [plane_a, plane_b]


def build_pvc_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    planes: Sequence[Iterable[StackRef]] | None = None,
    pcie: LinkKind = LinkKind.PCIE_GEN5_X16,
) -> Fabric:
    """Fabric for a PVC node: per-card PCIe on stack 0, MDFI between
    siblings, all-to-all Xe-Link within each plane."""
    if len(socket_of_card) != n_cards:
        raise TopologyError("socket_of_card length mismatch")
    fabric = Fabric()
    for socket in sorted(set(socket_of_card)):
        fabric.add_host(socket)
    for card in range(n_cards):
        s0, s1 = StackRef(card, 0), StackRef(card, 1)
        fabric.add_stack(s0)
        fabric.add_stack(s1)
        fabric.connect((HOST, socket_of_card[card]), s0, Link(pcie))
        fabric.connect(s0, s1, Link(LinkKind.MDFI, latency_s=0.5e-6))
    if planes is None:
        planes = parity_planes(n_cards)
    fabric.set_planes(planes)
    for plane in fabric.planes:
        for a, b in itertools.combinations(sorted(plane), 2):
            fabric.connect(a, b, Link(LinkKind.XELINK, latency_s=1.5e-6))
    return fabric


def build_single_device_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    pcie: LinkKind,
    gpu_link: LinkKind,
) -> Fabric:
    """Fabric for single-device cards (H100 node): PCIe per GPU plus an
    all-to-all GPU link (NVLink/NVSwitch abstracted as direct links)."""
    fabric = Fabric()
    for socket in sorted(set(socket_of_card)):
        fabric.add_host(socket)
    refs = [StackRef(card, 0) for card in range(n_cards)]
    for card, ref in enumerate(refs):
        fabric.add_stack(ref)
        fabric.connect((HOST, socket_of_card[card]), ref, Link(pcie))
    for a, b in itertools.combinations(refs, 2):
        fabric.connect(a, b, Link(gpu_link, latency_s=1.0e-6))
    fabric.set_planes([refs])
    return fabric


def build_dual_gcd_fabric(
    n_cards: int,
    socket_of_card: Sequence[int],
    pcie: LinkKind = LinkKind.PCIE_GEN4_X16,
) -> Fabric:
    """Fabric for the MI250 node: each card's GCD 0 on PCIe, Infinity
    Fabric between sibling GCDs and xGMI between cards."""
    fabric = Fabric()
    for socket in sorted(set(socket_of_card)):
        fabric.add_host(socket)
    for card in range(n_cards):
        g0, g1 = StackRef(card, 0), StackRef(card, 1)
        fabric.add_stack(g0)
        fabric.add_stack(g1)
        fabric.connect((HOST, socket_of_card[card]), g0, Link(pcie))
        fabric.connect(g0, g1, Link(LinkKind.INFINITY_FABRIC, latency_s=1.0e-6))
    for a, b in itertools.combinations(range(n_cards), 2):
        fabric.connect(
            StackRef(a, 0), StackRef(b, 0), Link(LinkKind.XGMI, latency_s=1.5e-6)
        )
    fabric.set_planes(parity_planes(n_cards))
    return fabric
