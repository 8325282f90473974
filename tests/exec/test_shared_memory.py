"""Shared-memory input shipping in the sharded executor.

On a real process pool the raw input travels to workers once, through a
POSIX shared-memory block, instead of being pickled shard by shard for
each of the two worker phases.  These tests prove the fast path and the
fallback produce identical results, and that the bytes-shipped metrics
make the difference observable.  The fallback is reached the way a
platform without POSIX shared memory reaches it: creating the segment
raises ``OSError``.
"""

import pickle
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro import Dialect, ParPaRawParser, ParseOptions
from repro.dfa import dialect_dfa
from repro.dfa.minimize import canonicalize
from repro.exec import SerialExecutor, ShardedExecutor
from repro.exec.sharded import _shard_contexts, _shard_tags
from repro.obs import MetricsRegistry

DATA = b"".join(b"%d,%d.25,item-%d\n" % (i, i, i) for i in range(600))
OPTIONS = ParseOptions(dialect=Dialect(strip_carriage_return=False))


def no_shared_memory(*args, **kwargs):
    raise OSError("shared memory unavailable")


def parse_with(executor, metrics=None):
    parser = ParPaRawParser(OPTIONS, executor=executor,
                            metrics=metrics or MetricsRegistry())
    return parser.parse(DATA)


@pytest.fixture(scope="module")
def serial_result():
    return ParPaRawParser(OPTIONS, executor=SerialExecutor()).parse(DATA)


@pytest.mark.parametrize("shared_input", [True, False])
def test_pool_results_identical_either_path(shared_input, serial_result,
                                            monkeypatch):
    if not shared_input:
        monkeypatch.setattr(shared_memory, "SharedMemory", no_shared_memory)
    executor = ShardedExecutor(workers=2, shard_bytes=len(DATA) // 3,
                               use_processes=True)
    result = parse_with(executor)
    assert result.table.to_pylist() == serial_result.table.to_pylist()
    assert result.num_records == serial_result.num_records
    np.testing.assert_array_equal(result.validation.field_counts,
                                  serial_result.validation.field_counts)


def test_shared_memory_ships_no_input_bytes():
    metrics = MetricsRegistry()
    executor = ShardedExecutor(workers=2, shard_bytes=len(DATA) // 3,
                               use_processes=True)
    parse_with(executor, metrics)
    assert metrics.gauges["sharded.input.shared_memory"] == 1.0
    assert metrics.counters["sharded.input.bytes.shipped"] == 0


def test_fallback_ships_every_shard_twice(monkeypatch):
    monkeypatch.setattr(shared_memory, "SharedMemory", no_shared_memory)
    metrics = MetricsRegistry()
    executor = ShardedExecutor(workers=2, shard_bytes=len(DATA) // 3,
                               use_processes=True)
    parse_with(executor, metrics)
    assert metrics.gauges["sharded.input.shared_memory"] == 0.0
    # Both worker phases (contexts + tags) pickle the full input.
    assert metrics.counters["sharded.input.bytes.shipped"] == 2 * len(DATA)


def test_inline_mode_never_uses_shared_memory():
    metrics = MetricsRegistry()
    executor = ShardedExecutor(workers=2, shard_bytes=len(DATA) // 3,
                               use_processes=False)
    parse_with(executor, metrics)
    # Inline shards are plain array views; nothing crosses a process
    # boundary, and nothing is counted as shipped either way.
    assert metrics.gauges["sharded.input.shared_memory"] == 0.0


def test_shard_tags_return_is_about_one_byte_per_shard_byte():
    """Workers send home emissions only (one byte per shard byte); the
    parent tags the merged stream, so no per-symbol ids are pickled."""
    shard = np.frombuffer(DATA, dtype=np.uint8)[: len(DATA) // 3]
    dfa = dialect_dfa(OPTIONS.dialect)
    local_scan, _, _ = _shard_contexts(shard, dfa, OPTIONS.chunk_size)
    start = canonicalize(dfa).dfa.start_state
    result = _shard_tags(shard, dfa, OPTIONS.chunk_size,
                         local_scan[:, start].astype(np.uint8))
    assert len(pickle.dumps(result)) <= 1.1 * shard.size
