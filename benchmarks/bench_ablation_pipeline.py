"""Ablations over the design choices DESIGN.md calls out.

* global vs chunked tagger (vectorised cumulative sums vs the paper's
  per-chunk offsets + scans) on one emission stream — every parse runs
  the global one, the chunked one is its test oracle;
* vectorised type conversion over per-field byte matrices;
* radix-sort digit width;
* scan algorithm choice (sequential / Hillis-Steele / Blelloch /
  decoupled look-back / vectorised).
"""

import numpy as np
import pytest

from conftest import run_benchmark

from repro import ParPaRawParser, ParseOptions
from repro.core.chunking import Chunking
from repro.core.stages import PipelineContext, RawInput
from repro.core.tagging import tag_global
from repro.exec import SerialExecutor
from repro.reference.core.partition import stable_radix_sort
from repro.reference.core.tagging import tag_chunked
from repro.reference.scan.blelloch import blelloch_scan
from repro.reference.scan.decoupled_lookback import single_pass_scan
from repro.reference.scan.hillis_steele import hillis_steele_scan
from repro.reference.scan.numpy_scan import scan_transition_vectors
from repro.reference.scan.operators import SumMonoid, TransitionComposeMonoid
from repro.reference.scan.sequential import exclusive_scan
from repro.utils.timing import StepTimer


@pytest.fixture(scope="module")
def yelp_emissions(yelp_1mb, yelp_schema):
    """The 1 MiB yelp input's emission stream, final state and chunking,
    from the pipeline's own stages up to tagging."""
    options = ParseOptions(schema=yelp_schema)
    ctx = PipelineContext(options=options, dfa=options.resolved_dfa(),
                          timer=StepTimer())
    raw = np.frombuffer(yelp_1mb, dtype=np.uint8)
    tags = SerialExecutor().execute(
        ctx, RawInput(raw=raw), until="tag").tags
    return (tags.emissions, tags.final_state,
            Chunking.of(raw.size, options.chunk_size))


@pytest.mark.parametrize("impl", ["global", "chunked"])
def test_tagging_impl(benchmark, yelp_emissions, impl):
    emissions, final_state, chunking = yelp_emissions
    if impl == "global":
        tags = run_benchmark(benchmark, tag_global, emissions, final_state)
    else:
        tags = run_benchmark(benchmark, tag_chunked, emissions,
                             final_state, chunking)
    assert tags.num_records > 0


def test_conversion_path(benchmark, taxi_1mb, taxi_schema):
    # Cut at a record boundary so no truncated field skews the reject
    # counter.
    data = taxi_1mb[:taxi_1mb.rfind(b"\n", 0, 128 * 1024) + 1]
    parser = ParPaRawParser(ParseOptions(schema=taxi_schema))
    result = run_benchmark(benchmark, parser.parse, data)
    assert result.total_rejected_fields == 0


@pytest.mark.parametrize("radix_bits", [1, 2, 4, 8])
def test_radix_width(benchmark, radix_bits):
    rng = np.random.default_rng(0)
    keys = rng.integers(0, 17, size=500_000).astype(np.int64)
    perm = run_benchmark(benchmark, stable_radix_sort, keys, radix_bits)
    assert np.all(np.diff(keys[perm]) >= 0)


SCAN_INPUT = list(range(2000))


@pytest.mark.parametrize("algorithm,func", [
    ("sequential", lambda: exclusive_scan(SCAN_INPUT, SumMonoid())),
    ("hillis-steele", lambda: hillis_steele_scan(SCAN_INPUT, SumMonoid(),
                                                 exclusive=True)),
    ("blelloch", lambda: blelloch_scan(SCAN_INPUT, SumMonoid())),
    ("decoupled-lookback", lambda: single_pass_scan(SCAN_INPUT,
                                                    SumMonoid(),
                                                    tile_size=128)),
], ids=["sequential", "hillis-steele", "blelloch", "decoupled-lookback"])
def test_scan_algorithms(benchmark, algorithm, func):
    out = benchmark(func)
    assert out[:3] == [0, 0, 1]


def test_stv_scan_vectorised(benchmark):
    """The production composition scan over 100k chunk STVs."""
    rng = np.random.default_rng(1)
    vectors = rng.integers(0, 6, size=(100_000, 6)).astype(np.uint8)
    out = benchmark(scan_transition_vectors, vectors)
    assert out.shape == vectors.shape


def test_stv_scan_scalar_reference(benchmark):
    """The scalar scan on the same operator (1k chunks — it is the
    reference, not the production path)."""
    rng = np.random.default_rng(1)
    rows = [tuple(int(x) for x in row)
            for row in rng.integers(0, 6, size=(1_000, 6))]
    monoid = TransitionComposeMonoid(6)
    out = benchmark(exclusive_scan, rows, monoid)
    assert len(out) == 1_000
