"""Tests for the adoption-facing conveniences: Table.filter, file
streaming, and the chunk-size optimiser."""

import numpy as np
import pytest

from repro import (
    DataType,
    Field,
    ParPaRawParser,
    ParseOptions,
    Schema,
    StreamingParser,
    parse_bytes,
)
from repro.errors import SchemaError, StreamingError
from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.workloads import TAXI_SCHEMA, generate_taxi_like

MB = 1024 ** 2


class TestTableFilter:
    def test_filters_rows(self):
        table = parse_bytes(b"a,1\nbb,2\nccc,3\n").table
        filtered = table.filter([True, False, True])
        assert filtered.to_pylist() == [
            {"col0": "a", "col1": "1"}, {"col0": "ccc", "col1": "3"}]

    def test_filter_typed_columns(self):
        schema = Schema([Field("n", DataType.INT64),
                         Field("s", DataType.STRING)])
        table = parse_bytes(b"1,x\n2,y\n3,z\n", schema=schema).table
        values = np.array(table.column("n").to_list())
        filtered = table.filter(values > 1)
        assert filtered.column("s").to_list() == ["y", "z"]

    def test_filter_preserves_nulls(self):
        table = parse_bytes(b"a,\nb,x\n").table
        filtered = table.filter([True, True])
        assert filtered.to_pylist() == table.to_pylist()

    def test_filter_nothing(self):
        table = parse_bytes(b"a\nb\n").table
        assert table.filter([False, False]).num_rows == 0

    def test_mask_length_checked(self):
        table = parse_bytes(b"a\n").table
        with pytest.raises(SchemaError):
            table.filter([True, False])


class TestParseFile:
    def test_matches_batch(self, tmp_path):
        data = generate_taxi_like(60_000, seed=11)
        path = tmp_path / "trips.csv"
        path.write_bytes(data)
        options = ParseOptions(schema=TAXI_SCHEMA)
        table = StreamingParser.parse_file(path, options,
                                           partition_bytes=7_000)
        batch = ParPaRawParser(options).parse(data).table
        assert table.to_pylist() == batch.to_pylist()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_bytes(b"")
        options = ParseOptions(schema=Schema.all_strings(2))
        table = StreamingParser.parse_file(path, options)
        assert table.num_rows == 0

    def test_rejects_bad_partition(self, tmp_path):
        path = tmp_path / "x.csv"
        path.write_bytes(b"a\n")
        with pytest.raises(StreamingError):
            StreamingParser.parse_file(
                path, ParseOptions(schema=Schema.all_strings(1)),
                partition_bytes=0)


class TestSuggestChunkSize:
    def test_lands_near_paper_default(self):
        model = PipelineCostModel()
        best = model.suggest_chunk_size(WorkloadStats.yelp_like, 512 * MB)
        # §5.1: best performance at 31 bytes; the model must pick an odd
        # (conflict-free) size in that neighbourhood.
        assert best % 4 != 0
        assert 23 <= best <= 63

    def test_avoids_conflict_strides(self):
        model = PipelineCostModel()
        best = model.suggest_chunk_size(WorkloadStats.taxi_like, 512 * MB,
                                        candidates=range(28, 41))
        assert best not in (28, 32, 36, 40)

    def test_empty_candidates(self):
        from repro.errors import SimulationError
        model = PipelineCostModel()
        with pytest.raises(SimulationError):
            model.suggest_chunk_size(WorkloadStats.yelp_like, MB,
                                     candidates=range(0))
