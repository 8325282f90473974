#!/bin/sh
# Lightweight pre-merge gate: byte-compile the package, run the parlint
# static checkers, prove the scan-operator laws, then run the test
# suite.  Usage: scripts/check.sh [extra pytest args...]
set -eu
cd "$(dirname "$0")/.."

# The example scripts run as subprocesses and need the package on the
# path too (pytest's `pythonpath` setting only covers its own process).
PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
export PYTHONPATH

python -m compileall -q src
python -m repro lint src
# Dataflow tier: the buffer-ownership analysis must prove src/repro free
# of unwaived borrowed-view mutations and escapes (PPR6xx) — the static
# half of the zero-copy safety argument (the runtime half is the
# read-only guard the parity suites enable).
python -m repro lint src/repro --select PPR6
# Lint self-test smoke: the known-bad corpus must still fail, and the
# dataflow corpus must trip both new checkers.
if python -m repro lint tests/analysis/corpus > /dev/null 2>&1; then
    echo "parlint corpus unexpectedly clean" >&2
    exit 1
fi
corpus_codes="$(python -m repro lint tests/analysis/corpus \
    --select PPR6 || true)"
for code in PPR601 PPR602 PPR603 PPR604 PPR605 PPR606; do
    case "$corpus_codes" in
        *"$code"*) ;;
        *) echo "parlint corpus smoke: $code not caught" >&2; exit 1 ;;
    esac
done
echo "parlint corpus smoke: PPR601-606 all caught"
# Layering tier: the production closure — the repro modules a fresh
# interpreter loads for `import repro, repro.__main__, repro.serve,
# repro.exec.sharded` — must hold no reference code, and PPR503 must
# reject a production module importing repro.reference (corpus case).
# The oracles and figure code live there: the unit-stride STV/emission
# sweeps (reference.core.context, reference.core.tagging), the chunked
# tagger (reference.core.tagging.tag_chunked), the radix-sort partition
# (reference.core.partition), Hopcroft (reference.dfa.minimize), the
# scalar scans (reference.scan), MFIRA/SWAR (reference.gpusim) and the
# Figure 7 simulator (reference.streaming).  Prints the closure's size.
python tests/test_production_closure.py
python -m pytest tests/test_production_closure.py \
    "tests/analysis/test_parlint.py::TestCorpus::test_production_imports_reference" \
    -q
# Law tier: exhaustive associativity+identity proofs for every
# registered scan operator (licenses the parallel scans of paper §2).
python -m pytest tests/analysis/test_operator_laws.py -q
# DFA proof tier: minimisation must preserve behaviour for every shipped
# automaton (equivalence vs the canonical form, idempotence, Hopcroft
# oracle in reference.dfa.minimize vs the data-parallel engine,
# registry distinctness, strict
# inclusion) — what licenses every parse sweeping the minimised
# automaton (minimisation is not optional).
python -m pytest tests/analysis/test_dfa_proofs.py -q
# Kernel tier: kernel plans at every stride (the empty k=1 plan up to
# the mixed-stride k=8 SWAR ladder) must be bit-identical to the
# unit-stride oracles in reference.core.context and reference.core.tagging
# (STVs, emissions, final state, invalid position; both executors;
# minimised and raw automata).
python -m pytest tests/kernels/test_parity.py -q
# Scan tier: the reduce-then-walk context scan must match the scalar
# Hillis-Steele and sequential composition scans of reference.scan (any
# state count, chunk
# counts at every block edge, one or all start states), give every chunk
# its sequential start state through both executors, and stay within
# 2.5x the chunk vectors' bytes at peak.
python -m pytest tests/scan/test_numpy_scan.py tests/core/test_context.py \
    tests/exec/test_executors.py \
    "tests/core/test_memory_bound.py::test_scan_peak_per_vector_byte" -q
# Partition tier (pipeline partition vs radix oracle): the pipeline's
# field-run partition must be bit-identical to the stable radix sort of
# reference.core.partition (css, record tags, offsets, order) across
# dialects, tagging modes and executors, and the global tagger must match
# the paper's chunked one, reference.core.tagging.tag_chunked.  int32 and int64 segment arrays
# must partition identically (tagging picks int32 whenever the input
# fits).  The partition alone and the whole parse, serial and sharded
# inline, must stay within their per-input-byte peak bounds; the tag
# result must hold no per-symbol array but its emission codes, and the
# partition payload none but its CSS (the tag result is gone by then).
python -m pytest tests/core/test_partition.py \
    tests/core/test_partition_parity.py \
    "tests/core/test_tagging.py::TestChunkedEqualsGlobal" \
    "tests/core/test_memory_bound.py::test_peak_bytes_per_input_byte" \
    "tests/core/test_memory_bound.py::test_sharded_inline_peak_bytes_per_input_byte" \
    "tests/core/test_memory_bound.py::test_partition_peak_per_input_byte" \
    "tests/core/test_memory_bound.py::test_tag_result_holds_one_symbol_array" \
    "tests/core/test_memory_bound.py::test_partition_payload_holds_no_input_arrays" \
    -q
# Columnar tier: zero-copy and copying convert assembly must both match
# the sequential reference parser (dialects x tagging modes x executors;
# NULL literals and string defaults reach the copy path), string columns
# must alias the CSS, and the buffer layer/Feather round-trips hold.
python -m pytest tests/core/test_columnar_parity.py \
    tests/columnar -q
# Conversion tier: every vector parser must agree with the scalar
# reference converters or fall back to them — per field (including at
# each body-width class edge), per column through convert, and whole
# tables against the sequential parser — and a long outlier must not
# widen a column's byte matrices.
python -m pytest tests/core/test_vector_convert.py \
    tests/core/test_conversion_parity.py \
    tests/core/test_conversion_depth.py \
    tests/core/test_scalar_convert.py -q

# Observability smoke: a sharded CLI parse must emit a Chrome trace that
# the repo's own validator accepts, with worker spans and merged metrics.
OBS_TMP="$(mktemp -d)"
trap 'rm -rf "$OBS_TMP"' EXIT
python - "$OBS_TMP" <<'EOF'
import sys, pathlib
rows = b"".join(
    b"%d,%d.25,item-%d\n" % (i, i, i) for i in range(200))
pathlib.Path(sys.argv[1], "smoke.csv").write_bytes(rows)
EOF
python -m repro parse "$OBS_TMP/smoke.csv" --workers 4 \
    --trace "$OBS_TMP/trace.json" --metrics > /dev/null
python - "$OBS_TMP/trace.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
names = {e.get("name") for e in doc["traceEvents"]}
assert "parse" in names and "sharded:contexts" in names, sorted(names)
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("obs smoke: trace valid,", len(doc["traceEvents"]), "events")
EOF

# Strided-kernel smoke: an explicitly strided sharded parse must still
# produce a valid trace and report the stride it ran with.
python -m repro parse "$OBS_TMP/smoke.csv" --stride 2 --workers 2 \
    --trace "$OBS_TMP/trace_strided.json" --metrics > /dev/null
python - "$OBS_TMP/trace_strided.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 2.0, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("kernels smoke: strided trace valid")
EOF

# k=8 SWAR smoke: a pipe-delimited unquoted parse minimises to a single
# state, so the full k=8 ladder fits easily; a sharded --stride 8 run
# must report stride 8 and the default table budget.
python - "$OBS_TMP" <<'EOF'
import sys, pathlib
rows = b"".join(b"%d|%d.25|item-%d\n" % (i, i, i) for i in range(200))
pathlib.Path(sys.argv[1], "smoke_pipe.csv").write_bytes(rows)
EOF
python -m repro parse "$OBS_TMP/smoke_pipe.csv" --delimiter '|' \
    --quote '' --no-crlf --stride 8 --workers 2 \
    --trace "$OBS_TMP/trace_k8.json" --metrics > /dev/null
python - "$OBS_TMP/trace_k8.json" <<'EOF'
import json, sys
from repro.kernels import DEFAULT_TABLE_BUDGET
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 8.0, doc["metrics"]
assert doc["metrics"]["gauges"]["kernels.table_budget"] \
    == float(DEFAULT_TABLE_BUDGET), doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("kernels smoke: k=8 sharded trace valid")
EOF

# Minimisation proof smoke: the registry-wide proof sweep must be clean,
# and a shrunken --table-budget must narrow the auto-picked stride to the
# empty k=1 plan, which then runs inside pool workers.
python - <<'EOF'
from repro.analysis.dfaproofs import verify_all
broken = {s: [str(v) for v in vs] for s, vs in verify_all().items() if vs}
assert not broken, broken
print("dfa proofs smoke: registry sweep clean")
EOF
python -m repro parse "$OBS_TMP/smoke.csv" --table-budget 1 --workers 2 \
    --trace "$OBS_TMP/trace_budget.json" --metrics > /dev/null
python - "$OBS_TMP/trace_budget.json" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
assert doc["metrics"]["gauges"]["stage.stv.stride"] == 1.0, doc["metrics"]
assert doc["metrics"]["gauges"]["kernels.table_budget"] == 1.0, \
    doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("kernels smoke: shrunken table budget runs the k=1 plan sharded")
EOF

# Partition smoke: a sharded parse must still produce a valid trace and
# report the field runs its partition gathered.
python -m repro parse "$OBS_TMP/smoke.csv" \
    --workers 2 --trace "$OBS_TMP/trace_fieldrun.json" --metrics > /dev/null
python - "$OBS_TMP/trace_fieldrun.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
assert "stage.partition.strategy" not in doc["metrics"]["gauges"], \
    doc["metrics"]
assert doc["metrics"]["gauges"]["partition.fields"] == 600, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("partition smoke: field-run trace valid")
EOF

# Columnar export smoke: a sharded parse must write a feather-style
# file that the repo's own reader round-trips.
python -m repro parse "$OBS_TMP/smoke.csv" --workers 2 \
    --output "$OBS_TMP/out.feather" > /dev/null
python - "$OBS_TMP/out.feather" <<'EOF'
import sys
from repro.columnar import read_feather
table = read_feather(sys.argv[1])
assert table.num_rows == 200, table
assert table.num_columns == 3, table
assert table.column(2).value(199) == "item-199", table.row(199)
print("columnar smoke: feather round-trip,", table.num_rows, "rows")
EOF

# Planner smoke: a --plan auto CLI parse must emit a valid Chrome trace
# carrying the plan.* spans and metrics of the decision it made.
python -m repro parse "$OBS_TMP/smoke.csv" --plan auto \
    --trace "$OBS_TMP/trace_plan.json" --metrics > /dev/null
python - "$OBS_TMP/trace_plan.json" <<'EOF'
import json, sys
from repro.obs import validate_chrome_trace
doc = json.load(open(sys.argv[1]))
problems = validate_chrome_trace(doc)
assert not problems, problems
names = {e.get("name") for e in doc["traceEvents"]}
assert {"plan.probe", "plan.decide", "parse"} <= names, sorted(names)
assert doc["metrics"]["counters"]["plan.decisions"] == 1, doc["metrics"]
assert doc["metrics"]["gauges"]["plan.chunk_size"] > 0, doc["metrics"]
assert doc["metrics"]["counters"]["records"] == 200, doc["metrics"]
print("planner smoke: --plan auto trace valid, chunk",
      int(doc["metrics"]["gauges"]["plan.chunk_size"]), "stride",
      int(doc["metrics"]["gauges"]["plan.kernel_stride"]))
EOF

# Planner admission smoke: a tenant with a tiny cost budget must bounce
# at admission (priced by the planner), while the default tenant parses.
python - "$OBS_TMP" <<'EOF'
import pathlib, sys
from repro.errors import AdmissionError
from repro.serve.service import IngestService, ServiceConfig, TenantPolicy

data = pathlib.Path(sys.argv[1], "smoke.csv").read_bytes()
config = ServiceConfig(
    tenants={"tiny": TenantPolicy(max_cost_seconds=1e-12)})
with IngestService(config) as svc:
    try:
        svc.parse(data, tenant="tiny")
        raise SystemExit("over-budget request was accepted")
    except AdmissionError as error:
        assert error.reason == "over-budget", error.reason
    assert svc.parse(data).num_rows == 200
    rejects = svc.metrics.counters["serve.admission.rejects.over_budget"]
    assert rejects == 1, rejects
print("planner smoke: over-budget tenant rejected at admission")
EOF

# Serve smoke: start the ingest service on an ephemeral port, hit it
# with concurrent clients (one oversized request that must bounce at
# admission with a per-tenant reject), require the served tables to be
# bit-identical to a direct parse, then shut down cleanly via SIGTERM.
python - "$OBS_TMP" <<'EOF'
import pathlib, re, signal, subprocess, sys, threading

tmp = sys.argv[1]
data = pathlib.Path(tmp, "smoke.csv").read_bytes()

server = subprocess.Popen(
    [sys.executable, "-m", "repro", "serve", "--port", "0",
     "--max-request-mb", "1"],
    stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
banner = server.stdout.readline()
port = int(re.search(r":(\d+) ", banner).group(1))

from repro.columnar.serialize import write_feather
from repro.core.parser import ParPaRawParser
from repro.errors import AdmissionError
from repro.serve import RemoteClient

expected = write_feather(ParPaRawParser().parse(data).table)
failures = []

def good_client(name):
    try:
        table = RemoteClient("127.0.0.1", port, tenant=name).parse(data)
        if write_feather(table) != expected:
            failures.append(f"{name}: payload not bit-identical")
    except Exception as error:
        failures.append(f"{name}: {error!r}")

def oversized_client():
    try:
        RemoteClient("127.0.0.1", port, tenant="big").parse(
            b"x" * (1024 * 1024 + 1))
        failures.append("oversized request was accepted")
    except AdmissionError as error:
        if error.reason != "oversized":
            failures.append(f"wrong reject reason: {error.reason}")
    except Exception as error:
        failures.append(f"oversized: wrong error {error!r}")

threads = [threading.Thread(target=good_client, args=(f"t{i}",))
           for i in range(2)] + [threading.Thread(target=oversized_client)]
for t in threads: t.start()
for t in threads: t.join(60)

status = RemoteClient("127.0.0.1", port).status()
assert status["requests"]["completed"] == 2, status["requests"]
assert status["requests"]["rejected"] == 1, status["requests"]
assert status["tenants"]["big"]["rejects"] == 1, status["tenants"]

server.send_signal(signal.SIGTERM)
out, _ = server.communicate(timeout=60)
assert server.returncode == 0, (server.returncode, out)
assert "drained cleanly" in out, out
assert not failures, failures
print("serve smoke: 3 concurrent clients, 1 admission reject, "
      "bit-identical payloads, clean drain")
EOF

# End-to-end benchmark smoke: every workload (library serial and the
# served sharded path) on 64 KiB inputs; exits non-zero when any output
# check fails.
python3 benchmarks/e2e/run.py --workload all --smoke > /dev/null
echo "e2e bench smoke: all workloads correct"

python -m pytest "$@"
