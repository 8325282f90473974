"""Calibration store: monotone EWMA convergence and fingerprint sharing.

Satellite (ISSUE 10): after ingesting synthetic obs timings,
`estimate_cost` converges toward measured stage totals (the EWMA is
monotone — each update moves the estimate toward the measurement and
never overshoots), and serial vs sharded runs of the same workload
calibrate the same fingerprint.
"""

import pytest

from repro import ParseOptions, SerialExecutor, ShardedExecutor
from repro.core.parser import ParPaRawParser
from repro.gpusim.cost_model import StepCosts
from repro.obs import MetricsRegistry
from repro.plan import CalibrationStore, Planner, config_key, probe_input
from repro.plan.calibration import STEPS

MEASURED_A = {"parse": 0.004, "scan": 0.001, "tag": 0.003,
              "partition": 0.002, "convert": 0.002}
MEASURED_B = {"parse": 0.020, "scan": 0.005, "tag": 0.015,
              "partition": 0.010, "convert": 0.010}
MODELLED = StepCosts(parse=0.001, scan=0.001, tag=0.001,
                     partition=0.001, convert=0.001)


def make_data(repeats: int = 800) -> bytes:
    return b"".join(b"%d,%d.25,row%d\n" % (i, i % 97, i)
                    for i in range(repeats))


class TestStore:
    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            CalibrationStore(alpha=0.0)
        with pytest.raises(ValueError):
            CalibrationStore(alpha=1.5)
        assert CalibrationStore(alpha=1.0).alpha == 1.0

    def test_first_observation_is_exact(self):
        store = CalibrationStore()
        store.observe("k", MEASURED_A, MODELLED)
        applied = store.apply(MODELLED, "k")
        assert applied.total == pytest.approx(sum(MEASURED_A.values()))

    def test_version_bumps_per_observation(self):
        store = CalibrationStore()
        assert store.version == 0
        store.observe("k", MEASURED_A, MODELLED)
        store.observe("k", MEASURED_A, MODELLED)
        assert store.version == 2

    def test_fallback_chain(self):
        store = CalibrationStore()
        store.observe("workload", MEASURED_A, MODELLED)
        assert store.scale("workload|c32k4", "parse",
                           "workload") == pytest.approx(4.0)
        assert store.scale("unknown", "parse") == 1.0
        assert store.observed("workload")
        assert not store.observed("unknown")

    def test_zero_and_missing_steps_skipped(self):
        store = CalibrationStore()
        store.observe("k", {"parse": 0.0, "scan": 0.002}, MODELLED)
        assert store.scale("k", "parse") == 1.0    # 0 observation skipped
        assert store.scale("k", "scan") == pytest.approx(2.0)
        assert store.scale("k", "tag") == 1.0      # missing step skipped

    def test_snapshot_is_json_friendly(self):
        import json
        store = CalibrationStore()
        store.observe("k", MEASURED_A, MODELLED)
        snapshot = store.snapshot()
        assert json.loads(json.dumps(snapshot)) == snapshot

    def test_config_key_buckets_chunks_by_power_of_two(self):
        assert config_key("fp", 60, 4) == config_key("fp", 33, 4)
        assert config_key("fp", 16, 4) != config_key("fp", 64, 4)
        # Chunk bucket and stride only: there is no partition dimension.
        assert config_key("fp", 64, 4) == "fp|c64k4"


class TestMonotoneConvergence:
    def test_ewma_converges_monotonically(self):
        """Under a constant observed workload each update moves the
        scale toward the measured ratio and never overshoots."""
        store = CalibrationStore(alpha=0.5)
        store.observe("k", MEASURED_A, MODELLED)   # warm start, ratios A
        target = MEASURED_B["parse"] / MODELLED.parse
        previous_error = abs(store.scale("k", "parse") - target)
        for _ in range(8):
            store.observe("k", MEASURED_B, MODELLED)
            scale = store.scale("k", "parse")
            error = abs(scale - target)
            assert error <= previous_error + 1e-15
            previous_error = error
        assert previous_error < 0.01 * target

    def test_estimate_cost_converges_to_measured_totals(self):
        planner = Planner()
        data = make_data()
        decision = planner.plan(data)
        fingerprint = decision.fingerprint
        base = ParseOptions()
        target = sum(MEASURED_B.values())
        # Warm-start with different timings, then feed a constant
        # measured workload: the calibrated estimate must walk toward
        # the measured total monotonically.
        for key in (fingerprint,):
            planner.store.observe(key, MEASURED_A, MODELLED)
        previous_error = abs(
            planner.estimate_cost(len(data), base,
                                  fingerprint=fingerprint) - target)
        for _ in range(8):
            stats = decision.stats
            # Model prediction for the exact config estimate_cost prices.
            stride = base.resolved_stride()
            modelled = planner._modelled(stats, len(data),
                                         base.chunk_size, stride)
            key = config_key(fingerprint, base.chunk_size, stride)
            planner.store.observe(key, MEASURED_B, modelled)
            estimate = planner.estimate_cost(len(data), base,
                                             fingerprint=fingerprint)
            error = abs(estimate - target)
            assert error <= previous_error + 1e-12
            previous_error = error
        assert previous_error < 0.05 * target


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
        # Two parses, each calibrating both granularities (per-config
        # key + bare fingerprint).
        assert planner.store.version == 4

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
        result = ParPaRawParser(ParseOptions()).parse(make_data())
        measured = result.step_seconds()
        for step in STEPS:
            assert step in measured

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
