"""Tests for ParseResult conveniences and the cost-model bridge."""

import pytest

from repro import ParPaRawParser, ParseOptions, TaggingMode
from repro.columnar.table import Table
from repro.reference.gpusim.cost_model import PipelineCostModel, \
    WorkloadStats
from repro.workloads import TAXI_SCHEMA, generate_taxi_like


@pytest.fixture(scope="module")
def taxi_result():
    data = generate_taxi_like(50_000, seed=11)
    return ParPaRawParser(ParseOptions(schema=TAXI_SCHEMA)).parse(data), \
        len(data)


class TestParseResult:
    def test_parsing_rate(self, taxi_result):
        result, size = taxi_result
        rate = result.parsing_rate()
        assert rate > 0
        assert result.input_bytes == size

    def test_repr(self, taxi_result):
        result, _ = taxi_result
        assert "rows=" in repr(result)

    def test_step_seconds_complete(self, taxi_result):
        result, _ = taxi_result
        steps = result.step_seconds()
        assert {"parse", "scan", "tag", "partition", "convert"} \
            <= set(steps)
        assert all(v >= 0 for v in steps.values())


class TestWorkloadStatsBridge:
    def test_shape_matches_parse(self, taxi_result):
        result, size = taxi_result
        stats = WorkloadStats.from_result(result)
        assert stats.input_bytes == size
        assert stats.num_columns == 17
        assert stats.num_records == result.num_rows
        assert stats.chunk_size == 31
        # Every taxi column is numeric or temporal.
        assert stats.numeric_field_fraction == 1.0

    def test_feeds_cost_model(self, taxi_result):
        result, _ = taxi_result
        model = PipelineCostModel()
        simulated = model.total_seconds(WorkloadStats.from_result(result))
        assert simulated > 0
        # A 50 KB workload should be microseconds-scale on the GPU model.
        assert simulated < 1e-2

    def test_tagging_mode_affects_stats(self):
        data = generate_taxi_like(20_000, seed=11)
        tagged = WorkloadStats.from_result(
            ParPaRawParser(ParseOptions(schema=TAXI_SCHEMA)).parse(data))
        inline = WorkloadStats.from_result(ParPaRawParser(ParseOptions(
            schema=TAXI_SCHEMA,
            tagging_mode=TaggingMode.INLINE)).parse(data))
        assert tagged.record_tag_bytes == 4.0
        assert inline.record_tag_bytes == 0.0


class TestTableConveniences:
    def test_select(self, taxi_result):
        result, _ = taxi_result
        projected = result.table.select(["fare_amount", "tip_amount"])
        assert projected.schema.names == ("fare_amount", "tip_amount")
        assert projected.num_rows == result.num_rows

    def test_slice(self, taxi_result):
        result, _ = taxi_result
        window = result.table.slice(2, 5)
        assert window.num_rows == 3
        assert window.row(0) == result.table.row(2)

    def test_slice_string_columns(self):
        from repro import parse_bytes
        table = parse_bytes(b"aa,b\ncc,d\nee,f\n").table
        window = table.slice(1, 3)
        assert window.to_pylist() == [
            {"col0": "cc", "col1": "d"}, {"col0": "ee", "col1": "f"}]

    def test_slice_bounds_clamped(self):
        from repro import parse_bytes
        table = parse_bytes(b"a\nb\n").table
        assert table.slice(5, 10).num_rows == 0
        assert table.slice(-3, 1).num_rows == 1
        assert table.slice(1).num_rows == 1
