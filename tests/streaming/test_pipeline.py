"""Tests for the streaming pipeline simulator (Figure 7 / Figure 12)."""

import pytest

from repro.errors import StreamingError
from repro.reference.gpusim.cost_model import WorkloadStats
from repro.reference.streaming.buffers import DoubleBuffer
from repro.reference.streaming.pcie import PcieLink
from repro.reference.streaming.pipeline import StreamingPipeline

GB = 1e9
MB = 1024 ** 2


@pytest.fixture(scope="module")
def pipeline():
    return StreamingPipeline()


class TestPcieLink:
    def test_transfer_time(self):
        link = PcieLink(bandwidth=10e9, latency=1e-5)
        assert link.transfer_seconds(10e9) == pytest.approx(1.0, rel=1e-3)

    def test_paper_sanity_check(self):
        """§6: transferring 4.8 GB alone takes ≈0.41 s on PCIe 3 x16."""
        link = PcieLink()
        assert link.min_transfer_time(4.823e9) == pytest.approx(0.41,
                                                                rel=0.05)

    def test_rejects_bad_config(self):
        with pytest.raises(StreamingError):
            PcieLink(bandwidth=0)


class TestDoubleBufferHazards:
    def test_write_after_read_ok(self):
        buffers = DoubleBuffer()
        buffers.read(0, "input", 0.0, 1.0)
        buffers.write(0, "input", 1.0, 2.0)  # fine: readers done

    def test_write_during_read_raises(self):
        buffers = DoubleBuffer()
        buffers.read(0, "input", 0.0, 2.0)
        with pytest.raises(StreamingError, match="corrupt"):
            buffers.write(0, "input", 1.0, 3.0)

    def test_read_before_write_completes_raises(self):
        buffers = DoubleBuffer()
        buffers.write(1, "carry", 0.0, 2.0)
        with pytest.raises(StreamingError, match="precedes"):
            buffers.read(1, "carry", 1.0, 3.0)

    def test_unknown_region(self):
        with pytest.raises(StreamingError):
            DoubleBuffer().read(0, "nope", 0, 1)

    def test_side_mapping(self):
        buffers = DoubleBuffer()
        assert buffers.side(0) == 0
        assert buffers.side(3) == 1


class TestSchedule:
    def test_stages_present(self, pipeline):
        schedule = pipeline.simulate(int(0.5 * GB), 64 * MB)
        stages = {r.stage for r in schedule.records}
        assert stages == {"transfer", "parse", "copy", "return"}

    def test_serial_channels(self, pipeline):
        schedule = pipeline.simulate(int(1 * GB), 64 * MB)
        for stage in ("transfer", "return", "parse"):
            records = sorted(schedule.stage_records(stage),
                             key=lambda r: r.start)
            for a, b in zip(records, records[1:]):
                assert b.start >= a.end - 1e-12, stage

    def test_parse_waits_for_transfer(self, pipeline):
        schedule = pipeline.simulate(int(1 * GB), 64 * MB)
        transfers = {r.partition: r for r in
                     schedule.stage_records("transfer")}
        for parse in schedule.stage_records("parse"):
            assert parse.start >= transfers[parse.partition].end - 1e-12

    def test_overlap_hides_latency(self, pipeline):
        """Streaming must beat the sequential transfer+parse+return sum —
        the entire point of §4.4."""
        total = int(4.823 * GB)
        streamed = pipeline.end_to_end_seconds(total, 128 * MB)
        naive = pipeline.non_streaming_seconds(total)
        assert streamed < 0.6 * naive

    def test_overlap_efficiency_near_one(self, pipeline):
        schedule = pipeline.simulate(int(4.823 * GB), 128 * MB)
        assert schedule.overlap_efficiency() > 0.85

    def test_rejects_bad_sizes(self, pipeline):
        with pytest.raises(StreamingError):
            pipeline.simulate(0, 1)


class TestFigure12Shape:
    def test_u_shape_yelp(self, pipeline):
        """Figure 12: duration falls with partition size, bottoms out
        around 64-256 MB, grows again at 512 MB (fill/drain cost)."""
        total = int(4.823 * GB)
        times = {p: pipeline.end_to_end_seconds(total, p * MB)
                 for p in (4, 16, 64, 128, 256, 512)}
        assert times[4] > times[16] > times[64]
        assert times[512] > min(times.values())
        best = min(times, key=times.get)
        assert best in (64, 128, 256)

    def test_end_to_end_yelp_near_paper(self, pipeline):
        """Paper: 4.8 GB of yelp in ≈0.44 s at the best partition size."""
        best = min(pipeline.end_to_end_seconds(int(4.823 * GB), p * MB)
                   for p in (64, 128, 256))
        assert 0.40 < best < 0.60

    def test_end_to_end_taxi_near_paper(self, pipeline):
        """Paper: 9.1 GB of taxi in ≈0.9 s."""
        best = min(pipeline.end_to_end_seconds(
            int(9.073 * GB), p * MB, WorkloadStats.taxi_like)
            for p in (128, 256, 512))
        assert 0.75 < best < 1.40

    def test_pcie_bound(self, pipeline):
        """§6: end-to-end time ≈ the bare input transfer time — the bus,
        not the parser, is the bottleneck."""
        total = int(4.823 * GB)
        best = pipeline.end_to_end_seconds(total, 128 * MB)
        bare = pipeline.pcie.min_transfer_time(total)
        assert best < 1.35 * bare
