"""PCIe transfer microbenchmark (Table II PCIe rows)."""

import pytest

from repro.core.units import MB
from repro.micro.pcie import TRANSFER_BYTES, PcieBandwidth
from repro.runtime.sycl import SyclQueue


class TestConfig:
    def test_paper_message_size(self):
        assert TRANSFER_BYTES == 500 * MB

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            PcieBandwidth("up")


class TestSingleStack:
    def test_h2d_54(self, aurora):
        result = PcieBandwidth("h2d").measure(aurora, 1)
        assert result.value == pytest.approx(54e9, rel=0.03)

    def test_d2h_53(self, aurora):
        assert PcieBandwidth("d2h").measure(aurora, 1).value == pytest.approx(
            53e9, rel=0.03
        )

    def test_bidir_76(self, aurora):
        assert PcieBandwidth("bidir").measure(aurora, 1).value == pytest.approx(
            76e9, rel=0.03
        )

    def test_dawn_slightly_slower(self, aurora, dawn):
        a = PcieBandwidth("d2h").measure(aurora, 1).value
        d = PcieBandwidth("d2h").measure(dawn, 1).value
        assert d < a


class TestScopes:
    def test_one_pvc_same_as_one_stack(self, aurora):
        # Both stacks share the card's single PCIe link.
        one = PcieBandwidth("h2d").measure(aurora, 1).value
        card = PcieBandwidth("h2d").measure(aurora, 2).value
        assert card == pytest.approx(one, rel=0.03)

    def test_aurora_node_d2h_contention(self, aurora):
        node = PcieBandwidth("d2h").measure(aurora, 12).value
        assert node == pytest.approx(264e9, rel=0.03)
        # "40% = 264/(53 x 12)".
        single = PcieBandwidth("d2h").measure(aurora, 1).value
        assert node / (single * 12) == pytest.approx(0.42, abs=0.04)

    def test_aurora_node_bidir_350(self, aurora):
        assert PcieBandwidth("bidir").measure(aurora, 12).value == (
            pytest.approx(350e9, rel=0.03)
        )

    def test_dawn_node_no_contention(self, dawn):
        node = PcieBandwidth("h2d").measure(dawn, 8).value
        assert node == pytest.approx(4 * 53e9, rel=0.03)

    def test_mi250_pcie_gen4_25(self, mi250):
        # Table IV: 25 GB/s unidirectional over Gen4.
        assert PcieBandwidth("h2d").measure(mi250, 1).value == pytest.approx(
            25e9, rel=0.03
        )


class TestPayloadIntegrity:
    @pytest.mark.parametrize("direction", ["h2d", "d2h", "bidir"])
    def test_lost_bytes_fail_the_check(self, aurora, monkeypatch, direction):
        # A copy that times correctly but delivers nothing must not pass:
        # every direction reads back the seeded bytes it sent.
        memcpy = SyclQueue.memcpy
        bidir = SyclQueue.memcpy_bidirectional

        def lossy_memcpy(self, dst, src, *args, **kwargs):
            ev = memcpy(self, dst, src, *args, **kwargs)
            dst.buffer[:] = 0
            return ev

        def lossy_bidir(self, d2h_dst, d2h_src, h2d_dst, h2d_src, *a, **kw):
            ev = bidir(self, d2h_dst, d2h_src, h2d_dst, h2d_src, *a, **kw)
            d2h_dst.buffer[:] = 0
            h2d_dst.buffer[:] = 0
            return ev

        monkeypatch.setattr(SyclQueue, "memcpy", lossy_memcpy)
        monkeypatch.setattr(SyclQueue, "memcpy_bidirectional", lossy_bidir)
        with pytest.raises(AssertionError, match="payload corrupted"):
            PcieBandwidth(direction).measure(aurora, 1)
