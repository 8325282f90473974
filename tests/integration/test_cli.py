"""Tests for the ``python -m repro`` command-line interface."""

import pathlib

import pytest

from repro.__main__ import main
from repro.columnar.serialize import read_feather


@pytest.fixture()
def csv_file(tmp_path: pathlib.Path) -> str:
    path = tmp_path / "data.csv"
    path.write_bytes(b'1,2.5,"a,b"\n2,3.25,"c\nd"\n3,4.0,e\n')
    return str(path)


class TestParseCommand:
    def test_prints_rows(self, csv_file, capsys):
        assert main(["parse", csv_file]) == 0
        out = capsys.readouterr().out
        assert "col0\tcol1\tcol2" in out
        assert "1\t2.5\ta,b" in out

    def test_limit(self, csv_file, capsys):
        main(["parse", csv_file, "--limit", "1"])
        out = capsys.readouterr().out
        assert "more rows" in out

    def test_summary(self, csv_file, capsys):
        main(["parse", csv_file, "--summary"])
        out = capsys.readouterr().out
        assert "records:  3" in out
        assert "end state: EOR (ok)" in out
        assert "partition" in out

    def test_custom_dialect(self, tmp_path, capsys):
        path = tmp_path / "semi.csv"
        path.write_bytes(b"# header\nx;1\n")
        main(["parse", str(path), "--delimiter", ";", "--comment", "#"])
        out = capsys.readouterr().out
        assert "x\t1" in out

    def test_serialised_output(self, csv_file, tmp_path, capsys):
        # --output always writes the Feather-style framing, whatever the
        # file extension.
        out_path = tmp_path / "out.bin"
        main(["parse", csv_file, "--output", str(out_path)])
        table = read_feather(out_path)
        assert table.num_rows == 3
        assert table.row(1) == ("2", "3.25", "c\nd")

    def test_null_rendering(self, tmp_path, capsys):
        path = tmp_path / "nulls.csv"
        path.write_bytes(b"a,,c\n")
        main(["parse", str(path)])
        assert "a\tNULL\tc" in capsys.readouterr().out

    def test_timings_flag(self, csv_file, capsys):
        assert main(["parse", csv_file, "--timings", "--summary"]) == 0
        out = capsys.readouterr().out
        assert "step timings:" in out
        for step in ("parse", "scan", "tag", "partition", "convert",
                     "total"):
            assert step in out

    def test_workers_flag_same_rows(self, csv_file, capsys):
        assert main(["parse", csv_file]) == 0
        serial_out = capsys.readouterr().out
        assert main(["parse", csv_file, "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial_out

    def test_workers_with_summary(self, csv_file, capsys):
        main(["parse", csv_file, "--workers", "3", "--summary"])
        out = capsys.readouterr().out
        assert "records:  3" in out
        assert "end state: EOR (ok)" in out

    def test_plan_auto_prints_decision_and_same_rows(self, csv_file,
                                                      capsys):
        assert main(["parse", csv_file]) == 0
        plain_out = capsys.readouterr().out
        assert main(["parse", csv_file, "--plan", "auto"]) == 0
        plan_line, rows = capsys.readouterr().out.split("\n", 1)
        # An empty store prices every candidate alike: the configured
        # chunk size wins the tie.
        assert plan_line.startswith("plan: chunk=31 ")
        assert "ms estimated" in plan_line
        assert rows == plain_out


class TestInferCommand:
    def test_inferred_types(self, tmp_path, capsys):
        path = tmp_path / "typed.csv"
        path.write_bytes(b"1,2.5,2020-01-01,x\n2,3.5,2021-02-02,y\n")
        assert main(["infer", str(path)]) == 0
        out = capsys.readouterr().out
        assert "int8" in out and "float64" in out
        assert "date" in out and "string" in out


class TestSimulateCommand:
    def test_step_breakdown(self, capsys):
        assert main(["simulate", "--dataset", "yelp",
                     "--size-mb", "64"]) == 0
        out = capsys.readouterr().out
        assert "parse" in out and "convert" in out
        assert "GB/s" in out
        assert "streamed end-to-end" in out

    def test_taxi_slower_than_yelp(self, capsys):
        main(["simulate", "--dataset", "yelp", "--size-mb", "512"])
        yelp_out = capsys.readouterr().out
        main(["simulate", "--dataset", "taxi", "--size-mb", "512"])
        taxi_out = capsys.readouterr().out

        def total_ms(out: str) -> float:
            for line in out.splitlines():
                if line.strip().startswith("total"):
                    return float(line.split()[1])
            raise AssertionError("no total line")

        assert total_ms(taxi_out) > total_ms(yelp_out)


class TestObservabilityFlags:
    def test_parse_trace_writes_valid_chrome_trace(self, csv_file,
                                                   tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "trace.json"
        assert main(["parse", csv_file, "--summary",
                     "--trace", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "trace spans" in out
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert "parse" in names
        assert any(n.startswith("stage:") for n in names)
        assert doc["metrics"]["counters"]["records"] == 3

    def test_parse_trace_with_workers_has_worker_spans(self, tmp_path,
                                                       capsys):
        import json

        path = tmp_path / "wide.csv"
        path.write_bytes(b"a,b,c\n1,2,3\n" * 200)
        trace_path = tmp_path / "trace.json"
        assert main(["parse", str(path), "--summary", "--workers", "4",
                     "--trace", str(trace_path)]) == 0
        capsys.readouterr()
        doc = json.loads(trace_path.read_text())
        names = {e["name"] for e in doc["traceEvents"]
                 if e["ph"] == "X"}
        assert {"sharded:contexts", "sharded:tags"} <= names

    def test_parse_metrics_report(self, csv_file, capsys):
        assert main(["parse", csv_file, "--summary", "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "records" in out
        assert "bytes.in" in out

    def test_simulate_trace_and_metrics(self, tmp_path, capsys):
        import json

        from repro.obs import validate_chrome_trace

        trace_path = tmp_path / "sim.json"
        assert main(["simulate", "--size-mb", "64", "--partition-mb",
                     "16", "--trace", str(trace_path),
                     "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "bottleneck resource:" in out
        assert "sim.overlap_efficiency" in out
        doc = json.loads(trace_path.read_text())
        assert validate_chrome_trace(doc) == []
        labels = {e["args"]["name"] for e in doc["traceEvents"]
                  if e["ph"] == "M" and e["name"] == "thread_name"}
        assert labels == {"HtD", "GPU", "DtH"}
