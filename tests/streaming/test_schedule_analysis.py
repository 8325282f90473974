"""Tests for pipeline schedule analysis (bottleneck, fill/drain, Gantt)."""

import pytest

from repro.reference.gpusim.cost_model import WorkloadStats
from repro.reference.streaming.pipeline import (
    RESOURCES,
    PipelineSchedule,
    StageRecord,
    StreamingPipeline,
)

GB = 1e9
MB = 1024 ** 2


@pytest.fixture(scope="module")
def schedule():
    return StreamingPipeline().simulate(int(2 * GB), 128 * MB,
                                        WorkloadStats.yelp_like)


def copy_heavy_schedule() -> PipelineSchedule:
    """A schedule whose GPU time is dominated by carry-over copies.

    Per partition: a 1s transfer, a 1s parse and a 3s copy — the GPU is
    busy 4s per partition, so aggregating by *step* instead of *resource*
    would misreport the transfer/parse/return maximum (2s of returns) as
    the bottleneck.
    """
    records = []
    t = 0.0
    for i in range(3):
        records.append(StageRecord("transfer", i, t, t + 1.0))
        records.append(StageRecord("parse", i, t + 1.0, t + 2.0))
        records.append(StageRecord("copy", i, t + 2.0, t + 5.0))
        records.append(StageRecord("return", i, t + 2.0, t + 4.0))
        t += 5.0
    return PipelineSchedule(records=records)


class TestAnalysis:
    def test_bottleneck_identified(self, schedule):
        assert schedule.bottleneck() in RESOURCES
        busiest = schedule.resource_busy_time(schedule.bottleneck())
        for resource in RESOURCES:
            assert schedule.resource_busy_time(resource) \
                <= busiest + 1e-12

    def test_copy_time_counts_toward_gpu(self, schedule):
        """GPU busy time includes the carry-over copies, not just parse."""
        assert schedule.resource_busy_time("GPU") \
            > schedule.busy_time("parse")
        assert schedule.resource_busy_time("GPU") == pytest.approx(
            schedule.busy_time("parse") + schedule.busy_time("copy"))

    def test_copy_heavy_bottleneck_is_gpu(self):
        """Regression: a copy-dominated schedule must report the GPU.

        Busy times: HtD 3s, GPU 3x(1+3)=12s, DtH 6s.  The old
        per-step aggregation over ``("transfer", "parse", "return")``
        ignored ``copy`` and called ``return`` the bottleneck with an
        overlap efficiency of 6/15.
        """
        schedule = copy_heavy_schedule()
        assert schedule.bottleneck() == "GPU"
        assert schedule.resource_busy_time("GPU") == pytest.approx(12.0)
        assert schedule.makespan == pytest.approx(15.0)
        assert schedule.overlap_efficiency() == pytest.approx(12.0 / 15.0)

    def test_overlap_efficiency_uses_resource_busy_time(self, schedule):
        expected = max(schedule.resource_busy_time(r)
                       for r in RESOURCES) / schedule.makespan
        assert schedule.overlap_efficiency() == pytest.approx(expected)

    def test_fill_drain_grows_with_partition(self):
        pipeline = StreamingPipeline()
        small = pipeline.simulate(int(2 * GB), 32 * MB,
                                  WorkloadStats.yelp_like)
        large = pipeline.simulate(int(2 * GB), 512 * MB,
                                  WorkloadStats.yelp_like)
        assert large.fill_drain_seconds() > 4 * small.fill_drain_seconds()

    def test_fill_drain_below_makespan(self, schedule):
        assert 0 < schedule.fill_drain_seconds() < schedule.makespan

    def test_memory_guard(self):
        """A partition whose double buffer exceeds device memory refuses
        to schedule (the Figure 7 allocation must fit)."""
        from repro.errors import StreamingError
        pipeline = StreamingPipeline()
        with pytest.raises(StreamingError, match="device memory"):
            pipeline.simulate(int(20 * GB), int(4 * GB))


class TestGantt:
    def test_renders_rows(self, schedule):
        art = schedule.render_gantt(width=60)
        lines = art.splitlines()
        assert lines[0].startswith("HtD ")
        assert lines[1].startswith("GPU ")
        assert lines[2].startswith("DtH ")
        assert "T" in lines[0] and "P" in lines[1] and "R" in lines[2]

    def test_double_buffer_visible(self, schedule):
        """Alternating case encodes partition parity."""
        art = schedule.render_gantt(width=72)
        assert "T" in art and "t" in art

    def test_empty_schedule(self):
        from repro.reference.streaming.pipeline import PipelineSchedule
        assert "empty" in PipelineSchedule().render_gantt()

    def test_max_partitions_limits_output(self, schedule):
        full = schedule.render_gantt(width=60, max_partitions=None)
        limited = schedule.render_gantt(width=60, max_partitions=2)
        # The limited chart shows fewer busy cells.
        assert sum(c != " " for c in limited) \
            < sum(c != " " for c in full)

    @pytest.mark.parametrize("width", [-5, 0, 1, 2, 5, 13, 14, 15])
    def test_small_widths_render(self, schedule, width):
        """Regression: width < 14 used to multiply ``'.'`` by a negative
        count (silently dropping the axis) and tiny widths could index
        past the row."""
        art = schedule.render_gantt(width=width)
        lines = art.splitlines()
        assert len(lines) == 4
        effective = max(1, width)
        for line in lines[:3]:
            assert len(line) == 4 + effective
        # The axis footer always carries both endpoints.
        assert "0s" in lines[3] and "s" in lines[3]

    def test_rows_never_overrun(self):
        """Bars must stay inside the row even when a record ends exactly
        at the makespan."""
        schedule = copy_heavy_schedule()
        for width in (1, 2, 3, 7, 50):
            for line in schedule.render_gantt(width=width).splitlines()[:3]:
                assert len(line) == 4 + max(1, width)


class TestScheduleTrace:
    def test_spans_one_per_record(self, schedule):
        spans = schedule.spans()
        assert len(spans) == len(schedule.records)
        assert {s.tid for s in spans} <= set(RESOURCES)

    def test_chrome_trace_valid(self, schedule):
        from repro.obs import validate_chrome_trace
        doc = schedule.to_chrome_trace()
        assert validate_chrome_trace(doc) == []
        events = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(events) == len(schedule.records)
        # One labelled track per resource.
        labels = {e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert labels == set(RESOURCES)
