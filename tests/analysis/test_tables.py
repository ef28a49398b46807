"""Table regenerators render the paper's layout."""

import pytest

from repro.analysis.tables import (
    table_i,
    table_ii,
    table_iii,
    table_iv,
    table_v,
    table_vi,
)


@pytest.fixture(scope="module")
def rendered_ii():
    return table_ii()


class TestTableI:
    def test_lists_all_micros(self):
        text = table_i()
        for name in ("fft", "gemm", "lats", "p2p", "pcie", "peak_flops", "triad"):
            assert name in text


class TestTableII:
    def test_has_14_rows_and_6_columns(self, rendered_ii):
        assert len(rendered_ii.rows) == 14
        assert len(rendered_ii.columns) == 6

    def test_headline_cells(self, rendered_ii):
        q = rendered_ii.get(
            "Double Precision Peak Flops", "Aurora (PVC) / One Stack"
        )
        assert q.value == pytest.approx(17e12, rel=0.03)
        q = rendered_ii.get("DGEMM", "Dawn (PVC) / One Stack")
        assert q.value == pytest.approx(17e12, rel=0.03)

    def test_render_contains_units(self, rendered_ii):
        text = rendered_ii.render()
        assert "TFlop/s" in text
        assert "GB/s" in text
        assert "PIop/s" in text or "PFlop/s" in text


class TestTableIII:
    def test_dawn_remote_cells_blank(self):
        t = table_iii()
        assert t.get(
            "Remote Stack Unidirectional Bandwidth",
            "Dawn (PVC) / One Stack-Pair",
        ) is None
        rendered = t.render()
        assert "-" in rendered

    def test_aurora_local_cell(self):
        t = table_iii()
        q = t.get(
            "Local Stack Unidirectional Bandwidth",
            "Aurora (PVC) / One Stack-Pair",
        )
        assert q.value == pytest.approx(197e9, rel=0.03)

    def test_renders_without_rank_threads(self, monkeypatch):
        """The single-pair cells run real MPI jobs on one thread."""
        import threading

        from repro.runtime import mpi

        jobs = []
        run = mpi.SimMPI.run

        def counting_run(self, fn):
            jobs.append(self.size)
            return run(self, fn)

        def refuse(self):
            raise AssertionError("a rank thread was started")

        with monkeypatch.context() as patch:
            patch.setattr(threading.Thread, "start", refuse)
            patch.setattr(mpi.SimMPI, "run", counting_run)
            threadless = table_iii().render()
        assert jobs and set(jobs) == {12, 8}  # Aurora and Dawn ranks
        assert threadless == table_iii().render()


class TestTableIV:
    def test_reference_peaks(self):
        t = table_iv()
        assert t.get("FP32 peak", "H100").value == pytest.approx(67e12)
        assert t.get("FP64 peak", "MI250").value == pytest.approx(45.3e12)
        assert t.get("DGEMM", "1x GCD MI250x").value == pytest.approx(24.1e12)
        assert t.get("DGEMM", "H100") is None


class TestTableV:
    def test_mentions_every_app(self):
        text = table_v()
        for name in (
            "miniBUDE",
            "CloverLeaf",
            "miniQMC",
            "RI-MP2",
            "OpenMC",
            "HACC",
        ):
            assert name in text


class TestTableVI:
    def test_blank_and_filled_cells(self):
        t = table_vi()
        # miniBUDE has only single-device cells.
        assert t.get("miniBUDE", "Aurora (PVC) / One GPU") is None
        assert t.get("miniBUDE", "Aurora (PVC) / One Stack").value == (
            pytest.approx(293.02, rel=0.03)
        )
        # mini-GAMESS blank on MI250 (build failure).
        assert t.get("mini-GAMESS", "JLSE (MI250) / One GCD") is None
        # HACC full-node only.
        assert t.get("HACC", "Aurora (PVC) / One Stack") is None
        assert t.get("HACC", "Aurora (PVC) / Six PVC").value == pytest.approx(
            13.81, rel=0.02
        )
