"""Fabric routing pinned two ways: a golden of every answer on every
system under 160 health overlays, and a brute-force oracle on random
overlays."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TopologyError
from repro.hw.ids import StackRef
from repro.hw.interconnect import Route

from .fabric_golden import (
    GOLDEN_PATH,
    SYSTEMS,
    build_system,
    compute_golden,
    fabric_links,
    fabric_nodes,
)


def test_routes_match_golden():
    golden = json.loads(GOLDEN_PATH.read_text())
    now = compute_golden()
    assert now.keys() == golden.keys()
    changed = [
        f"{name}: {label}"
        for name, per_overlay in golden.items()
        for label, sha in per_overlay.items()
        if now[name].get(label) != sha
    ]
    assert not changed, changed
    assert now == golden


def oracle_routes(fabric, nodes, src, dst) -> list[Route] | None:
    """Brute force: a depth-first walk over every simple path from *src*
    that avoids dead stacks and dead links (and hosts, between two
    stacks), keeping those of minimum length; ``None`` if there are none.

    Paths longer than the shortest found so far are abandoned, which
    cannot drop a minimum-length one.
    """
    on_stacks = isinstance(src, StackRef) and isinstance(dst, StackRef)

    def allowed(node) -> bool:
        if on_stacks and not isinstance(node, StackRef):
            return False
        return not fabric.is_down(node)

    if not (allowed(src) and allowed(dst)):
        return None
    best: list[list] = []

    def walk(path: list) -> None:
        if best and len(path) > len(best[0]):
            return
        if path[-1] == dst:
            if best and len(path) < len(best[0]):
                best.clear()
            best.append(list(path))
            return
        for nxt in nodes:
            if nxt in path or not allowed(nxt):
                continue
            if fabric.link_between(path[-1], nxt) is None:
                continue
            if fabric.link_health(path[-1], nxt) == 0.0:
                continue
            path.append(nxt)
            walk(path)
            path.pop()

    walk([src])
    if not best:
        return None
    routes = [
        Route(tuple((u, v, fabric.link_between(u, v)) for u, v in zip(p, p[1:])))
        for p in best
    ]
    return sorted(routes, key=lambda r: (r.n_hops, r.describe()))


@pytest.mark.parametrize("name", SYSTEMS)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_routes_match_brute_force_oracle(name, data):
    system = build_system(name)
    fabric = system.node.fabric
    nodes = fabric_nodes(system)
    links = fabric_links(fabric, nodes)
    for a, b in data.draw(st.lists(st.sampled_from(links), max_size=6)):
        fabric.set_link_health(a, b, data.draw(st.sampled_from([0.0, 0.5])))
    for ref in data.draw(st.lists(st.sampled_from(fabric.stacks), max_size=3)):
        fabric.set_stack_down(ref)
    src = data.draw(st.sampled_from(nodes))
    dst = data.draw(st.sampled_from([n for n in nodes if n != src]))
    expected = oracle_routes(fabric, nodes, src, dst)
    if expected is None:
        with pytest.raises(TopologyError, match="no route"):
            fabric.routes(src, dst)
    else:
        assert fabric.routes(src, dst) == expected
