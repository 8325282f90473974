"""Per-byte peak memory of a parse (ROADMAP item 3).

The tracemalloc peak of one ``parse`` plus ``write_feather`` on a 1 MiB
input, divided by the input size, must stay under a per-shape bound, on
the serial executor and on the sharded one run inline.  The bounds sit
just above what segment tags, the blocked field-run partition, payloads
that drop the tag result after validate and a tag result of emission
codes plus int32 segments give: about 5.2 B/B on yelp-like input (4.5
sharded) and 9.6 B/B on the many-short-fields taxi and logs shapes.
Per-symbol int64 tags put these at 55 and 67 B/B, the partition's two
per-symbol prefix sums at 12.4 and 25.4 B/B, payloads that kept the tag
result alive through partition and convert at 7.6 and 14.7 B/B, and a
tag result with three per-symbol bitmaps and int64 segments at 7.3 and
11.9 B/B.  A parse of a large input also trims the C heap once, so the
freed buffers leave the resident set.

The tag result holds one per-symbol array, the emission codes, and its
segment arrays are int32.  The partition payload holds no per-symbol
array but its CSS and the partition's keep mask: the tag result, the
extended input and the validate masks are all unreachable from it.

The partition has its own bound: on the validate payload of 1 MiB taxi
input, ``partition_field_runs`` alone peaks at about 6.4 B/B beyond its
inputs (17.1 B/B with the per-symbol prefix sums).

The context scan has its own bound too: over the ~270k chunk vectors of
an 8 MiB input it must stay within a small multiple of the vectors' own
size (doubling scans copy them once per sweep).
"""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro import Dialect, ParPaRawParser, ParseOptions, ShardedExecutor
from repro.columnar.serialize import write_feather
from repro.core import parser as parser_module
from repro.core.context import chunk_start_states
from repro.core.partition import partition_field_runs
from repro.dfa.minimize import canonicalize
from repro.workloads import (
    TAXI_SCHEMA,
    YELP_SCHEMA,
    generate_taxi_like,
    generate_yelp_like,
)
from tests.core.test_partition_parity import run_until

MiB = 1 << 20
RFC4180 = Dialect(strip_carriage_return=False)
PIPE = Dialect(delimiter=b"|", quote=None, strip_carriage_return=False)

SHAPES = {
    "yelp": (lambda: generate_yelp_like(MiB, seed=1),
             ParseOptions(dialect=RFC4180, schema=YELP_SCHEMA), 6),
    "taxi": (lambda: generate_taxi_like(MiB, seed=1),
             ParseOptions(dialect=RFC4180, schema=TAXI_SCHEMA), 11),
    "logs": (lambda: generate_taxi_like(MiB, seed=1).replace(b",", b"|"),
             ParseOptions(dialect=PIPE, schema=TAXI_SCHEMA), 11),
}


def assert_peak_within_bound(shape, executor=None):
    make, options, bound = SHAPES[shape]
    data = make()
    parser = ParPaRawParser(options, executor=executor)
    # Build the process-wide kernel tables outside the measurement: they
    # are a one-time cost, not a per-byte one.
    parser.parse(data[:4096])
    tracemalloc.start()
    try:
        write_feather(parser.parse(data).table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(data) <= bound, f"{peak / len(data):.1f} B/B"


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_peak_bytes_per_input_byte(shape):
    assert_peak_within_bound(shape)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sharded_inline_peak_bytes_per_input_byte(shape):
    """The sharded schedule hands the merged tag payload straight to
    validate, so it drops the tag result as early as the serial one."""
    assert_peak_within_bound(
        shape, ShardedExecutor(workers=2, use_processes=False))


def reachable_arrays(obj, seen=None):
    """Every ndarray reachable from ``obj`` through dataclass fields,
    instance attributes and containers."""
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return []
    seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return [obj]
    if dataclasses.is_dataclass(obj):
        children = [getattr(obj, f.name) for f in dataclasses.fields(obj)]
    elif isinstance(obj, (list, tuple)):
        children = list(obj)
    elif isinstance(obj, dict):
        children = list(obj.values())
    else:
        children = list(getattr(obj, "__dict__", {}).values())
    return [array for child in children
            for array in reachable_arrays(child, seen)]


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["serial", "sharded"])
def test_tag_result_holds_one_symbol_array(sharded):
    """The tag result keeps the emission codes and the segments only;
    the §3.1 bitmaps are comparisons its readers make themselves."""
    data = generate_taxi_like(1 << 16, seed=1)
    executor = ShardedExecutor(workers=2, use_processes=False) \
        if sharded else None
    tags = run_until(data, SHAPES["taxi"][1], "tag", executor).tags
    per_symbol = [array for array in reachable_arrays(tags)
                  if array.size >= len(data)]
    assert [id(array) for array in per_symbol] == [id(tags.emissions)], \
        [f"{array.dtype}[{array.size}]" for array in per_symbol]
    assert {tags.delim_positions.dtype, tags.segment_records.dtype,
            tags.segment_columns.dtype} == {np.dtype(np.int32)}


@pytest.mark.parametrize("sharded", [False, True],
                         ids=["serial", "sharded"])
def test_partition_payload_holds_no_input_arrays(sharded):
    """After partition, the only per-symbol arrays left are the CSS and
    the keep mask the partition derives ``order`` from on demand."""
    data = generate_taxi_like(1 << 16, seed=1)
    executor = ShardedExecutor(workers=2, use_processes=False) \
        if sharded else None
    payload = run_until(data, SHAPES["taxi"][1], "partition", executor)
    allowed = {id(payload.css), id(payload.part.css), id(payload.part.keep)}
    extra = [f"{array.dtype}[{array.size}]"
             for array in reachable_arrays(payload)
             if array.size >= payload.css.size and id(array) not in allowed]
    assert not extra, extra


def test_partition_peak_per_input_byte():
    make, options, _ = SHAPES["taxi"]
    data = make()
    payload = run_until(data, options, "validate")
    tracemalloc.start()
    try:
        partition_field_runs(payload.data_ext, payload.keep,
                             payload.delim_positions,
                             payload.segment_columns,
                             payload.segment_records,
                             payload.selection.num_columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(data) <= 8, f"{peak / len(data):.1f} B/B"


def test_scan_peak_per_vector_byte():
    dfa = canonicalize(ParseOptions(dialect=RFC4180).resolved_dfa()).dfa
    assert dfa.num_states == 5
    vectors = np.random.default_rng(1).integers(
        0, dfa.num_states, (270_000, dfa.num_states), dtype=np.uint8)
    tracemalloc.start()
    try:
        chunk_start_states(vectors, dfa)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * vectors.nbytes, f"{peak / vectors.nbytes:.2f}x"


def test_heap_trimmed_after_large_parses_only(monkeypatch):
    calls = []
    monkeypatch.setattr(parser_module, "_malloc_trim", calls.append)
    monkeypatch.setattr(parser_module, "TRIM_INPUT_BYTES", 4096)
    parser = ParPaRawParser(ParseOptions())
    parser.parse(b"a,b\n" * 16)
    assert calls == []
    parser.parse(b"a,b\n" * 1024)
    assert calls == [0]
