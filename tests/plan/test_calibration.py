"""Calibration store: measured seconds per byte, fallback chain, locking.

After ingesting measurements, `estimate_cost` converges toward the
measured rate (the EWMA is monotone — each update moves the estimate
toward the measurement and never overshoots), concurrent observers lose
no update, and serial vs sharded runs of the same workload calibrate the
same fingerprint.
"""

import json
import sys
import threading

import pytest

from repro import ParseOptions, SerialExecutor, ShardedExecutor
from repro.core.parser import ParPaRawParser
from repro.obs import MetricsRegistry
from repro.plan import CalibrationStore, Planner, config_key, probe_input
from repro.plan.calibration import STORE_WIDE
from repro.reference.gpusim.cost_model import StepCosts
from repro.utils.timing import StepTimer

RATE_A = 4e-8    # seconds per input byte (~24 MiB/s)
RATE_B = 2e-7    # ~5 MiB/s

MODELLED = StepCosts(parse=0.001, scan=0.001, tag=0.001,
                     partition=0.001, convert=0.001)


def make_data(repeats: int = 800) -> bytes:
    return b"".join(b"%d,%d.25,row%d\n" % (i, i % 97, i)
                    for i in range(repeats))


class TestStore:
    def test_first_observation_is_exact(self):
        store = CalibrationStore()
        store.observe("fp|c16k4", "fp", RATE_A)
        assert store.rate("fp|c16k4") == RATE_A
        assert store.rate("fp") == RATE_A
        assert store.rate() == RATE_A           # the store-wide entry

    def test_version_bumps_per_observation(self):
        store = CalibrationStore()
        assert store.version == 0
        store.observe("fp|c16k4", "fp", RATE_A)
        store.observe("fp|c16k4", "fp", RATE_A)
        assert store.version == 2

    def test_fallback_chain(self):
        store = CalibrationStore()
        assert store.rate("anything") is None
        store.observe("fp|c32k4", "fp", RATE_A)
        store.observe("other|c32k4", "other", RATE_B)
        # Config key first, then the fingerprint, then store-wide.
        assert store.rate("fp|c32k4", "fp") == RATE_A
        assert store.rate("fp|c64k1", "fp") == RATE_A
        assert store.rate("new|c64k1", "new") \
            == pytest.approx(0.5 * RATE_A + 0.5 * RATE_B)
        assert store.observed("fp|c32k4")
        assert not store.observed("fp|c64k1")

    def test_zero_and_missing_steps_skipped(self):
        """A parse with no timed steps (or zero seconds) calibrates
        nothing: a zero rate would make every estimate free."""
        planner = Planner()
        result = ParPaRawParser(ParseOptions()).parse(make_data())
        result.timer = StepTimer()
        planner.observe(result)
        result.timer.add("parse", 0.0)
        planner.observe(result)
        assert planner.store.version == 0
        assert planner.store.snapshot() == {}

    def test_snapshot_is_json_friendly(self):
        store = CalibrationStore()
        store.observe("fp|c16k4", "fp", RATE_A)
        snapshot = store.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot
        assert set(snapshot) == {"fp|c16k4", "fp", STORE_WIDE}

    def test_config_key_buckets_chunks_by_power_of_two(self):
        assert config_key("fp", 60, 4) == config_key("fp", 33, 4)
        assert config_key("fp", 16, 4) != config_key("fp", 64, 4)
        # Chunk bucket and stride only: there is no partition dimension.
        assert config_key("fp", 64, 4) == "fp|c64k4"

    def test_concurrent_observations_lose_no_update(self):
        """Eight threads observe while others look up: every
        read-modify-write of the averages and the version is locked."""
        store = CalibrationStore()
        threads_n, per_thread = 8, 500
        observed: dict[str, list[float]] = {}

        def hammer(t: int) -> None:
            for i in range(per_thread):
                rate = 1e-8 * (1 + (t * per_thread + i) % 97)
                store.observe(f"fp{t % 2}|c16k{t}", f"fp{t % 2}", rate)
                store.rate(f"fp{t % 2}|c16k{t}", f"fp{t % 2}")
                store.snapshot()

        for t in range(threads_n):
            rates = [1e-8 * (1 + (t * per_thread + i) % 97)
                     for i in range(per_thread)]
            for key in (f"fp{t % 2}|c16k{t}", f"fp{t % 2}", STORE_WIDE):
                observed.setdefault(key, []).extend(rates)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=hammer, args=(t,))
                       for t in range(threads_n)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert store.version == threads_n * per_thread
        snapshot = store.snapshot()
        assert set(snapshot) == set(observed)
        for key, rate in snapshot.items():
            assert min(observed[key]) <= rate <= max(observed[key]), key


class TestMonotoneConvergence:
    def test_ewma_converges_monotonically(self):
        """Under a constant measured rate each update moves the average
        toward it and never overshoots."""
        store = CalibrationStore()
        store.observe("k", "fp", RATE_A)   # warm start
        previous_error = abs(store.rate("k") - RATE_B)
        for _ in range(8):
            store.observe("k", "fp", RATE_B)
            error = abs(store.rate("k") - RATE_B)
            assert error <= previous_error
            previous_error = error
        assert previous_error < 0.01 * RATE_B

    def test_estimate_cost_converges_to_measured_totals(self):
        planner = Planner()
        data = make_data()
        fingerprint = planner.plan(data).fingerprint
        base = ParseOptions()
        key = config_key(fingerprint, base.chunk_size,
                         base.resolved_stride())
        target = len(data) * RATE_B
        # Warm-start with a different rate, then feed a constant measured
        # rate: the estimate must walk toward it monotonically.
        planner.store.observe(key, fingerprint, RATE_A)
        previous_error = abs(
            planner.estimate_cost(len(data), base,
                                  fingerprint=fingerprint) - target)
        for _ in range(8):
            planner.store.observe(key, fingerprint, RATE_B)
            estimate = planner.estimate_cost(len(data), base,
                                             fingerprint=fingerprint)
            assert estimate == pytest.approx(
                len(data) * planner.store.rate(key))
            error = abs(estimate - target)
            assert error <= previous_error + 1e-15
            previous_error = error
        assert previous_error < 0.01 * target


class TestFingerprintSharing:
    def test_serial_and_sharded_calibrate_same_fingerprint(self):
        data = make_data()
        options = ParseOptions(infer_types=True)
        planner = Planner()
        serial = ParPaRawParser(options,
                                executor=SerialExecutor()).parse(data)
        executor = ShardedExecutor(workers=2, use_processes=False)
        with executor:
            sharded = ParPaRawParser(options, executor=executor)\
                .parse(data)
        fp_serial = planner.observe(serial)
        fp_sharded = planner.observe(sharded)
        assert fp_serial == fp_sharded
        assert planner.store.observed(fp_serial)
        # Two parses, one observation each (config key, fingerprint and
        # store-wide entry updated together).
        assert planner.store.version == 2

    def test_probe_fingerprint_matches_observed_fingerprint(self):
        """The probe's fingerprint (planning) and the result's
        fingerprint (observation) land on the same calibration entry —
        the loop is closed, not two disjoint stores."""
        data = make_data()
        options = ParseOptions(infer_types=True)
        planner = Planner()
        decision = planner.plan(data, options)
        result = ParPaRawParser(decision.chosen).parse(data)
        assert planner.observe(result) == decision.fingerprint

    def test_observe_updates_both_granularities(self):
        data = make_data()
        planner = Planner()
        result = ParPaRawParser(ParseOptions()).parse(data)
        fingerprint = planner.observe(result)
        snapshot = planner.store.snapshot()
        assert fingerprint in snapshot
        config_keys = [k for k in snapshot if k.startswith(fingerprint)
                       and "|" in k]
        assert config_keys, "per-configuration entry missing"
        assert STORE_WIDE in snapshot


class TestObsPlumbing:
    def test_histogram_totals_extracts_stage_seconds(self):
        metrics = MetricsRegistry()
        metrics.observe("stage.stv.seconds", 0.5)
        metrics.observe("stage.stv.seconds", 0.25)
        metrics.observe("stage.tag.seconds", 0.125)
        metrics.observe("other.seconds", 9.0)
        totals = metrics.histogram_totals("stage.", ".seconds")
        assert totals == {"stv": 0.75, "tag": 0.125}

    def test_sharded_records_stage_seconds_metrics(self):
        metrics = MetricsRegistry()
        executor = ShardedExecutor(workers=2, use_processes=False)
        with executor:
            ParPaRawParser(ParseOptions(), executor=executor,
                           metrics=metrics).parse(make_data())
        totals = metrics.histogram_totals("stage.", ".seconds")
        for stage in ("stv", "scan", "tag"):
            assert stage in totals, f"stage.{stage}.seconds missing"

    def test_step_seconds_cover_calibration_steps(self):
        """The calibrated rate is the timer total over the input bytes;
        the total covers every paper step."""
        result = ParPaRawParser(ParseOptions()).parse(make_data())
        measured = result.step_seconds()
        for step in ("parse", "scan", "tag", "partition", "convert"):
            assert step in measured
        assert result.timer.total() == pytest.approx(
            sum(measured.values()))

    def test_scaled_step_costs(self):
        scaled = MODELLED.scaled({"parse": 2.0, "tag": 3.0})
        assert scaled.parse == pytest.approx(0.002)
        assert scaled.tag == pytest.approx(0.003)
        assert scaled.scan == pytest.approx(0.001)   # default factor 1.0


def test_probe_uses_callers_type_settings():
    """Without type inference every column converts as STRING, so the
    probe must not fingerprint the workload as numeric (the convert-cost
    profile the parse will actually have is string-shaped)."""
    data = make_data()
    plain = probe_input(data, ParseOptions())
    inferred = probe_input(data, ParseOptions(infer_types=True))
    assert plain.numeric_fraction == 0.0
    assert inferred.numeric_fraction > 0.0
    assert plain.fingerprint() != inferred.fingerprint()
