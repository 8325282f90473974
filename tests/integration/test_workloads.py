"""Tests for the synthetic dataset generators' statistical fidelity."""

import pytest

from repro import ParPaRawParser, ParseOptions
from repro.baselines import SequentialParser
from repro.columnar.schema import DataType
from repro.core import conversion
from repro.workloads import (
    CsvGenerator,
    TAXI_SCHEMA,
    YELP_SCHEMA,
    generate_clf,
    generate_elf,
    generate_taxi_like,
    generate_yelp_like,
    skew_dataset,
)


class TestYelpLike:
    def test_statistics_match_paper(self):
        """~721 B/record, 9 columns, all fields quoted (§5)."""
        data = generate_yelp_like(300_000)
        result = ParPaRawParser(ParseOptions(schema=YELP_SCHEMA)).parse(data)
        bytes_per_record = len(data) / result.num_rows
        assert 550 < bytes_per_record < 900
        assert result.table.num_columns == 9
        assert result.total_rejected_fields == 0

    def test_embeds_delimiters_in_text(self):
        data = generate_yelp_like(100_000)
        result = ParPaRawParser(ParseOptions(schema=YELP_SCHEMA)).parse(data)
        texts = result.table.column("text").to_list()
        assert any("," in t for t in texts)
        assert any("\n" in t for t in texts)
        assert any('"' in t for t in texts)

    def test_deterministic(self):
        assert generate_yelp_like(10_000, seed=3) \
            == generate_yelp_like(10_000, seed=3)
        assert generate_yelp_like(10_000, seed=3) \
            != generate_yelp_like(10_000, seed=4)

    def test_stars_in_range(self):
        data = generate_yelp_like(50_000)
        result = ParPaRawParser(ParseOptions(schema=YELP_SCHEMA)).parse(data)
        stars = result.table.column("stars").to_list()
        assert set(stars) <= {1, 2, 3, 4, 5}


class TestTaxiLike:
    def test_statistics_match_paper(self):
        """~88 B/record, ~5.2 B/field, 17 columns (§5)."""
        data = generate_taxi_like(100_000)
        result = ParPaRawParser(ParseOptions(schema=TAXI_SCHEMA)).parse(data)
        bytes_per_record = len(data) / result.num_rows
        assert 70 < bytes_per_record < 115
        bytes_per_field = len(data) / (result.num_rows * 17)
        assert 4.0 < bytes_per_field < 7.0
        assert result.total_rejected_fields == 0

    def test_every_newline_is_a_record_delimiter(self):
        """The property that makes taxi trivially splittable (§5.2)."""
        data = generate_taxi_like(20_000)
        assert data.count(b"\n") == data.count(b"\n")  # no quoting at all
        assert b'"' not in data

    def test_types_convert_cleanly(self):
        data = generate_taxi_like(30_000)
        result = ParPaRawParser(ParseOptions(schema=TAXI_SCHEMA)).parse(data)
        fares = result.table.column("fare_amount").to_list()
        assert all(f is not None and f > 0 for f in fares)
        pickups = result.table.column("pickup_datetime").to_list()
        assert all(p is not None for p in pickups)


class TestSkew:
    def test_giant_record_prepended(self):
        base = generate_taxi_like(5_000)
        skewed = skew_dataset(base, giant_record_bytes=20_000)
        assert len(skewed) > len(base) + 15_000
        result = ParPaRawParser(ParseOptions()).parse(skewed)
        baseline = ParPaRawParser(ParseOptions()).parse(base)
        assert result.num_rows == baseline.num_rows + 1

    def test_giant_record_parses_equal_to_sequential(self, monkeypatch):
        monkeypatch.setattr(conversion, "BLOCK_THRESHOLD", 64)
        monkeypatch.setattr(conversion, "DEVICE_THRESHOLD", 1024)
        base = b"a,b,c\n" * 20
        skewed = skew_dataset(base, giant_record_bytes=5_000, column=1)
        options = ParseOptions()
        parallel = ParPaRawParser(options).parse(skewed)
        sequential = SequentialParser(options).parse(skewed)
        assert parallel.table.to_pylist() == sequential.to_pylist()
        assert parallel.collaboration.device_fields >= 1

    def test_unquoted_variant(self):
        base = b"1,2\n"
        skewed = skew_dataset(base, 1000, quoted=False)
        assert b'"' not in skewed.split(b"\n", 1)[0]

    def test_column_out_of_range(self):
        with pytest.raises(ValueError):
            skew_dataset(b"a,b\n", 100, column=5)


class TestLogWorkloads:
    def test_clf_line_count(self):
        data = generate_clf(100)
        assert data.count(b"\n") == 100

    def test_elf_has_directives_with_quotes(self):
        data = generate_elf(100, directive_every=10)
        directive_lines = [line for line in data.split(b"\n")
                           if line.startswith(b"#")]
        assert len(directive_lines) > 2
        assert any(b'"' in line for line in directive_lines)


class TestCsvGenerator:
    def test_deterministic(self):
        gen = CsvGenerator(seed=9)
        assert gen.generate(10) == CsvGenerator(seed=9).generate(10)

    def test_trailing_newline_control(self):
        gen = CsvGenerator(seed=1)
        assert gen.generate(3, trailing_newline=True).endswith(b"\n")
        assert not gen.generate(3, trailing_newline=False).endswith(b"\n")

    def test_numeric_columns_parse(self):
        gen = CsvGenerator(seed=2, numeric_columns=(0,),
                           empty_probability=0.0)
        data = gen.generate(50)
        from repro.columnar.schema import Field, Schema
        schema = Schema([Field("n", DataType.FLOAT64)]
                        + [Field(f"s{i}", DataType.STRING)
                           for i in range(3)])
        result = ParPaRawParser(ParseOptions(schema=schema)).parse(data)
        assert result.table.column("n").rejects == 0

    def test_comment_lines_emitted(self):
        from repro.dfa.dialects import Dialect
        gen = CsvGenerator(seed=3, comment_probability=0.5,
                           dialect=Dialect.csv_with_comments())
        data = gen.generate(40)
        assert any(line.startswith(b"#") for line in data.split(b"\n"))
