"""Host <-> device transfer bandwidth over PCIe (Section IV-A.3).

"This benchmark measures the time to transfer data over the PCIe bus,
500 MB in the case of host-to-device, device-to-host, or a total of 1 GB
when transferred simultaneously in both directions.  We use
sycl::malloc_host() for the host memory."

Three scopes appear in Table II: one stack, one PVC (both stacks of one
card — they share the card's single PCIe link, so the rate barely moves),
and the full node (where the host-side aggregate cap produces the "scales
poorly, 40%" result).
"""

from __future__ import annotations

import numpy as np

from ..core.registry import register
from ..core.result import Measurement
from ..core.units import MB
from ..errors import DeviceLostError
from ..hw.ids import StackRef
from ..sim.engine import PerfEngine
from ..runtime.sycl import SyclRuntime
from .common import MicroBenchmark


def _host_routable(engine: PerfEngine, ref: StackRef) -> bool:
    """Host traffic enters a card through stack 0 (Section II); losing
    that stack orphans its sibling even if the sibling still computes."""
    anchor = StackRef(ref.card, 0)
    return not engine.node.fabric.is_down(anchor)

__all__ = ["PAYLOAD_BOUND_BYTES", "PcieBandwidth", "TRANSFER_BYTES"]

#: Section IV-A.3: 500 MB per direction.
TRANSFER_BYTES = 500 * MB

#: Functional buffer bound.  The *simulated* timing always uses the
#: declared message size (``timed_nbytes``); the numpy buffer only
#: exists to check that the seeded bytes arrive, and the check reads
#: byte 3.  One page is enough for that: a larger buffer only costs
#: fresh page faults on every repetition.
PAYLOAD_BOUND_BYTES = 4096


@register(
    name="pcie",
    category="micro",
    programming_model="SYCL",
    description="Compute the Bandwidth of the PCIe datatransfer",
)
class PcieBandwidth(MicroBenchmark):
    """The PCIe rows of Table II.

    ``direction`` is ``"h2d"``, ``"d2h"`` or ``"bidir"``.
    """

    def __init__(
        self,
        direction: str = "h2d",
        nbytes: int = TRANSFER_BYTES,
    ) -> None:
        if direction not in ("h2d", "d2h", "bidir"):
            raise ValueError(f"bad direction {direction!r}")
        self.direction = direction
        self.nbytes = nbytes

    def params(self) -> dict:
        return {"direction": self.direction, "nbytes": self.nbytes}

    def _single_transfer(
        self, engine: PerfEngine, rep: int
    ) -> tuple[float, float]:
        """One queue doing the 500 MB (or 1 GB bidir) transfer via SYCL."""
        rt = SyclRuntime(engine)
        device = rt.default_device()
        if engine.faults is not None and not _host_routable(engine, device.ref):
            usable = [d for d in rt.devices() if _host_routable(engine, d.ref)]
            if not usable:
                raise DeviceLostError(
                    "no enumerated device has a live PCIe path"
                )
            engine.faults.note(
                f"PCIe benchmark moved from {device.ref} to {usable[0].ref}: "
                "host path lost"
            )
            device = usable[0]
        queue = rt.queue(device)
        queue.set_repetition(rep)
        payload = min(PAYLOAD_BOUND_BYTES, self.nbytes)
        host = queue.malloc_host(payload)
        dev = queue.malloc_device(payload)
        host.buffer[:8] = np.arange(8, dtype=np.uint8)
        if self.direction == "h2d":
            ev = queue.memcpy(dev, host, timed_nbytes=self.nbytes)
            moved = float(self.nbytes)
            if dev.buffer[3] != 3:
                raise AssertionError("H2D payload corrupted")
        elif self.direction == "d2h":
            dev.buffer[:8] = np.arange(8, dtype=np.uint8)
            ev = queue.memcpy(host, dev, timed_nbytes=self.nbytes)
            moved = float(self.nbytes)
            if host.buffer[3] != 3:
                raise AssertionError("D2H payload corrupted")
        else:
            host2 = queue.malloc_host(payload)
            dev2 = queue.malloc_device(payload)
            dev2.buffer[:8] = np.arange(8, dtype=np.uint8)
            ev = queue.memcpy_bidirectional(
                host2, dev2, dev, host, payload, timed_nbytes=self.nbytes
            )
            moved = 2.0 * self.nbytes
            if dev.buffer[3] != 3 or host2.buffer[3] != 3:
                raise AssertionError("bidirectional payload corrupted")
        return ev.duration_s, moved

    def _measure_once(
        self, engine: PerfEngine, n_stacks: int, rep: int
    ) -> Measurement:
        if n_stacks == 1:
            elapsed, moved = self._single_transfer(engine, rep)
            return Measurement(elapsed_s=elapsed, work=moved, unit="B/s")
        # Concurrent transfers from n_stacks stacks: aggregate bandwidth
        # through the card-sharing + host-cap contention model.  Lost
        # devices are skipped (the surviving stacks still transfer).
        refs = engine.select_stacks(n_stacks)
        if engine.faults is not None:
            routable = [r for r in refs if _host_routable(engine, r)]
            if len(routable) < len(refs):
                engine.faults.note(
                    f"{len(refs) - len(routable)} stack(s) lost their host "
                    "path (PCIe anchor down); excluded from the aggregate"
                )
            if not routable:
                raise DeviceLostError("no stack has a live PCIe path")
            refs = routable
        agg_bw = engine.transfers.node_host_bw(self.direction, refs)
        per_flow_bytes = float(self.nbytes) * (
            2.0 if self.direction == "bidir" else 1.0
        )
        total_bytes = per_flow_bytes * len({r.card for r in refs})
        elapsed = engine.noise.apply(
            total_bytes / agg_bw,
            f"{engine.system.name}:pcie-agg:{self.direction}:{n_stacks}",
            rep,
        )
        return Measurement(elapsed_s=elapsed, work=total_bytes, unit="B/s")
