"""Route golden for the fabric: one digest per (system, health overlay).

For each of the six modelled systems (the four paper systems plus the
``frontier`` and ``jlse-a100`` extensions) and each overlay — clean,
each stack down, each plane at health 0.0 and 0.5, and 15 seeded random
link-death / stack-down sets — the digest is the sha256 of the
canonical JSON of every ordered node pair's ``routes()`` descriptions,
``healthy_hops()`` and ``is_route_degraded()`` (or the
``TopologyError`` text each one raised).

Regenerate ``data/fabric_routes.json`` only when routing is meant to
change::

    PYTHONPATH=src python -m tests.hw.fabric_golden
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

from repro.errors import TopologyError
from repro.hw.extensions import get_extension_system
from repro.hw.interconnect import HOST
from repro.hw.systems import SYSTEM_NAMES, get_system

GOLDEN_PATH = Path(__file__).parent / "data" / "fabric_routes.json"
SYSTEMS = SYSTEM_NAMES + ("frontier", "jlse-a100")
N_RANDOM = 15


def build_system(name):
    return get_system(name) if name in SYSTEM_NAMES else get_extension_system(name)


def fabric_nodes(system) -> list:
    """Host sockets with a card, then every stack, in sorted order."""
    hosts = [(HOST, s) for s in sorted(set(system.node.socket_of_card))]
    return hosts + system.node.fabric.stacks


def fabric_links(fabric, nodes) -> list[tuple]:
    """Every (a, b) pair of *nodes* joined by a link, a before b."""
    return [
        (a, b)
        for i, a in enumerate(nodes)
        for b in nodes[i + 1:]
        if fabric.link_between(a, b) is not None
    ]


def random_overlay(fabric, nodes, rng: random.Random) -> None:
    """Kill 1-4 random links and take down 0-2 random stacks."""
    for a, b in rng.sample(fabric_links(fabric, nodes), rng.randint(1, 4)):
        fabric.set_link_health(a, b, 0.0)
    for ref in rng.sample(fabric.stacks, rng.randint(0, 2)):
        fabric.set_stack_down(ref)


def overlays(name: str, fabric, nodes):
    """Yield (label, apply) for every overlay of system *name*."""
    yield "clean", lambda: None
    for ref in fabric.stacks:
        yield f"down {ref}", lambda ref=ref: fabric.set_stack_down(ref)
    for plane in range(len(fabric.planes)):
        for health in (0.0, 0.5):
            yield (
                f"plane {plane} at {health}",
                lambda p=plane, h=health: fabric.set_plane_health(p, h),
            )
    for i in range(N_RANDOM):
        rng = random.Random(f"{name}/{i}")
        yield f"random {i}", lambda rng=rng: random_overlay(fabric, nodes, rng)


def _answer(fn, *args):
    try:
        return fn(*args)
    except TopologyError as exc:
        return f"TopologyError: {exc}"


def answers(fabric, nodes) -> list:
    """Every ordered pair's routes, healthy hop count and degradation."""
    out = []
    for a in nodes:
        for b in nodes:
            if a == b:
                continue
            routes = _answer(
                lambda: [r.describe() for r in fabric.routes(a, b)]
            )
            out.append([
                str(a),
                str(b),
                routes,
                _answer(fabric.healthy_hops, a, b),
                _answer(fabric.is_route_degraded, a, b),
            ])
    return out


def digest(obj) -> str:
    blob = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def compute_golden() -> dict[str, dict[str, str]]:
    golden: dict[str, dict[str, str]] = {}
    for name in SYSTEMS:
        system = build_system(name)
        fabric = system.node.fabric
        nodes = fabric_nodes(system)
        per_overlay = golden[name] = {}
        for label, apply in overlays(name, fabric, nodes):
            fabric.reset_health()
            apply()
            per_overlay[label] = digest(answers(fabric, nodes))
        fabric.reset_health()
    return golden


def main() -> None:
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(compute_golden(), indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
