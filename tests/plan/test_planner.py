"""The self-tuning planner: probe, candidate scoring, decisions, wiring.

Covers the static half of the tentpole (ISSUE 10): `probe_input`
statistics, fingerprint stability, feasibility filtering against the
table budget, loser rationale, `plan="auto"` end-to-end equivalence,
`plan.*` spans/metrics, and the satellite pinning the dormant
`suggest_chunk_size` / `max_input_for_device` conveniences on the paper
workload factories.
"""

import numpy as np
import pytest

from repro import Dialect, ParseOptions, parse_bytes
from repro.errors import ParseError
from repro.gpusim.cost_model import PipelineCostModel, StepCosts, \
    WorkloadStats
from repro.obs import MetricsRegistry, Tracer
from repro.plan import InputStats, Planner, config_key, probe_input
from repro.kernels.strided import SUPPORTED_STRIDES
from repro.plan.planner import CHUNK_CANDIDATES, WORKERS_INPUT_THRESHOLD
from repro.plan.stats import workload_fingerprint

CSV = b"id,price,name\n1,2.50,ash\n2,3.75,birch\n3,1.25,cedar\n"


def make_data(repeats: int = 500) -> bytes:
    return b"id,price,name\n" + b"".join(
        b"%d,%d.25,row%d\n" % (i, i % 97, i) for i in range(repeats))


class TestProbe:
    def test_probe_reads_shape(self):
        stats = probe_input(make_data())
        assert stats.num_columns == 3
        assert stats.records_sampled > 100
        assert 8.0 < stats.avg_record_bytes < 20.0
        assert stats.quote_rate == 0.0
        assert stats.input_bytes == len(make_data())

    def test_probe_is_bounded(self):
        data = make_data(100_000)
        stats = probe_input(data)
        assert stats.sample_bytes <= 64 * 1024
        assert stats.input_bytes == len(data)

    def test_fingerprint_stable_across_sizes(self):
        small = probe_input(make_data(300))
        large = probe_input(make_data(60_000))
        assert small.fingerprint() == large.fingerprint()

    def test_fingerprint_separates_shapes(self):
        csv = probe_input(make_data())
        pipe = probe_input(make_data().replace(b",", b"|"),
                           ParseOptions(dialect=Dialect.pipe()))
        assert csv.fingerprint() != pipe.fingerprint()

    def test_empty_input(self):
        stats = probe_input(b"")
        assert stats.input_bytes == 0
        assert stats.records_sampled == 0
        assert stats.fingerprint()  # still a usable key

    def test_sniffer_cross_check(self):
        # Comma data probed with a pipe dialect: the sniffer disagrees,
        # the configured dialect still wins.
        stats = probe_input(make_data(),
                            ParseOptions(dialect=Dialect.pipe()))
        assert not stats.sniffed_agrees
        assert stats.dialect.delimiter == b"|"

    def test_stats_factory_matches_workload_shape(self):
        stats = probe_input(make_data())
        ws = stats.workload(1_000_000, chunk_size=31)
        assert isinstance(ws, WorkloadStats)
        assert ws.num_columns == 3
        assert ws.input_bytes == 1_000_000
        assert ws.num_fields == ws.num_records * 3


class TestDecision:
    def test_infeasible_strides_kept_with_reason(self):
        decision = Planner().plan(make_data())
        infeasible = [c for c in decision.candidates if not c.feasible]
        assert infeasible, "quoted CSV k=8 should blow the 4 MiB budget"
        assert all("table budget" in c.reason for c in infeasible)
        assert all(c.modelled_seconds is None for c in infeasible)
        assert decision.winner.feasible

    def test_every_loser_has_a_reason(self):
        decision = Planner().plan(make_data())
        for c in decision.candidates:
            if not c.chosen:
                assert c.reason
        assert decision.winner.reason == "chosen"
        assert len([c for c in decision.candidates if c.chosen]) == 1

    def test_chosen_options_are_concrete(self):
        base = ParseOptions(plan="auto", infer_types=True)
        decision = Planner().plan(make_data(), base)
        chosen = decision.chosen
        assert chosen.plan is None
        assert chosen.kernel_stride is not None
        # Non-knob options survive planning untouched.
        assert chosen.infer_types
        assert chosen.dialect == base.dialect

    def test_pinned_stride_collapses_the_dimension(self):
        decision = Planner().plan(
            make_data(), ParseOptions(kernel_stride=2))
        assert {c.stride for c in decision.candidates} == {2}
        assert decision.chosen.kernel_stride == 2

    def test_candidates_are_chunks_times_strides(self):
        """Every parse partitions with field runs, so the knob space is
        chunk size x stride, each pair scored (or ruled out) once."""
        planner = Planner()
        base = ParseOptions()
        decision = planner.plan(make_data(), base)
        suggested = planner.model.suggest_chunk_size(
            decision.stats.stats_factory(), decision.stats.input_bytes)
        chunks = {base.chunk_size, suggested, *CHUNK_CANDIDATES}
        strides = {*SUPPORTED_STRIDES, 1}
        assert len(decision.candidates) == len(chunks) * len(strides)
        assert {(c.chunk_size, c.stride) for c in decision.candidates} \
            == {(chunk, k) for chunk in chunks for k in strides}
        assert "partition_strategy" not in decision.as_dict()["chosen"]

    def test_suggested_chunk_size_is_a_candidate(self):
        planner = Planner()
        decision = planner.plan(make_data())
        suggested = planner.model.suggest_chunk_size(
            decision.stats.stats_factory(), decision.stats.input_bytes)
        assert suggested in {c.chunk_size for c in decision.candidates}

    def test_workers_recommendation_scales_with_input(self):
        import os
        planner = Planner()
        small = planner.plan(make_data())
        assert small.workers == 1
        stats = probe_input(make_data())
        big = InputStats(**{**stats.__dict__,
                            "input_bytes": WORKERS_INPUT_THRESHOLD})
        decision = planner._decide(big, big.fingerprint(), ParseOptions())
        assert decision.workers == min(4, os.cpu_count() or 1)
        assert any("shard workers" in note for note in decision.notes)

    def test_device_ceiling_reported(self):
        decision = Planner().plan(make_data())
        assert decision.device_ceiling_bytes > decision.stats.input_bytes

    def test_rationale_and_dict_round_trip(self):
        decision = Planner().plan(make_data())
        text = "\n".join(decision.rationale())
        assert "chose chunk_size=" in text
        as_dict = decision.as_dict()
        assert as_dict["chosen"]["chunk_size"] \
            == decision.chosen.chunk_size
        assert len(as_dict["candidates"]) == len(decision.candidates)


class TestAutoParse:
    def test_plan_auto_is_bit_identical(self):
        data = make_data()
        default = parse_bytes(data, ParseOptions(infer_types=True))
        auto = parse_bytes(data, ParseOptions(plan="auto",
                                              infer_types=True))
        assert auto.table.to_pylist() == default.table.to_pylist()
        assert auto.num_records == default.num_records
        assert auto.options.plan is None

    def test_plan_auto_emits_spans_and_metrics(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        planner = Planner(tracer=tracer, metrics=metrics)
        parse_bytes(make_data(), ParseOptions(plan="auto"),
                    tracer=tracer, metrics=metrics, planner=planner)
        names = {span.name for span in tracer.spans}
        assert "plan.probe" in names
        assert "plan.decide" in names
        assert metrics.counters["plan.decisions"] == 1
        assert metrics.counters["plan.calibration.updates"] == 1
        assert "plan.chunk_size" in metrics.gauges

    def test_replan_on_new_evidence(self):
        tracer, metrics = Tracer(), MetricsRegistry()
        planner = Planner(tracer=tracer, metrics=metrics)
        data = make_data()
        first = planner.plan(data)
        loser = next(c for c in first.candidates
                     if c.feasible and not c.chosen)
        # Plant overwhelming evidence that one loser is much faster.
        key = config_key(first.fingerprint, loser.chunk_size,
                         loser.stride)
        planner.store.observe(
            key, {s: 1e-9 for s in ("parse", "scan", "tag", "partition",
                                    "convert")},
            StepCosts(1.0, 1.0, 1.0, 1.0, 1.0))
        second = planner.plan(data)
        assert second.chosen != first.chosen
        assert metrics.counters["plan.replans"] == 1
        assert "plan.replan" in {span.name for span in tracer.spans}

    def test_refine_explores_and_converges(self):
        planner = Planner()
        data = make_data(2000)
        decision = planner.refine(data, rounds=3)
        explored = [c for c in decision.candidates
                    if c.feasible and c.calibrated]
        assert len(explored) >= 3
        assert decision.calibrated

    def test_shared_default_planner_used_for_auto(self):
        import repro.plan as plan_pkg
        shared = plan_pkg.shared_planner()
        before = shared.store.version
        parse_bytes(make_data(), ParseOptions(plan="auto"))
        assert shared.store.version > before


class TestEstimateCost:
    def test_estimate_scales_with_bytes(self):
        planner = Planner()
        planner.plan(make_data())
        small = planner.estimate_cost(1_000_000)
        large = planner.estimate_cost(100_000_000)
        assert 0.0 < small < large

    def test_estimate_without_history_uses_generic_shape(self):
        assert Planner().estimate_cost(10_000_000) > 0.0


class TestDormantConveniences:
    """Satellite: pin the cost-model conveniences on the paper factories."""

    def test_suggest_chunk_size_yelp_pinned(self):
        model = PipelineCostModel()
        assert model.suggest_chunk_size(
            WorkloadStats.yelp_like, 512 * 1024 * 1024) == 63
        assert model.suggest_chunk_size(
            WorkloadStats.yelp_like, 32 * 1024 * 1024) == 63

    def test_suggest_chunk_size_taxi_pinned(self):
        model = PipelineCostModel()
        assert model.suggest_chunk_size(
            WorkloadStats.taxi_like, 512 * 1024 * 1024) == 63

    def test_max_input_for_device_pinned(self):
        model = PipelineCostModel()
        assert model.max_input_for_device(
            WorkloadStats.yelp_like) == 700_805_387
        assert model.max_input_for_device(
            WorkloadStats.taxi_like) == 605_233_242

    def test_planner_wires_both(self):
        """The planner consults both conveniences on every decision."""
        decision = Planner().plan(make_data())
        assert decision.device_ceiling_bytes > 0
        chunks = {c.chunk_size for c in decision.candidates}
        assert 63 in chunks  # the model's suggestion joined the ladder


class TestOptionsValidation:
    """Satellite: contradictory combinations rejected up front."""

    def test_stride_over_budget_rejected(self):
        with pytest.raises(ParseError, match="kernel_table_budget"):
            ParseOptions(kernel_stride=8)  # quoted CSV blows 4 MiB

    def test_stride_within_raised_budget_accepted(self):
        options = ParseOptions(kernel_stride=8,
                               kernel_table_budget=1 << 30)
        assert options.kernel_stride == 8

    def test_error_message_names_the_fix(self):
        with pytest.raises(ParseError) as err:
            ParseOptions(kernel_stride=2, kernel_table_budget=1)
        message = str(err.value)
        assert "raise kernel_table_budget to at least" in message
        assert "kernel_stride=None" in message

    def test_plan_value_validated(self):
        with pytest.raises(ParseError, match="plan"):
            ParseOptions(plan="turbo")
        assert ParseOptions(plan="auto").plan == "auto"


class TestFingerprint:
    def test_buckets_record_length_by_power_of_two(self):
        d = Dialect.csv()
        a = workload_fingerprint(d, 5, 100.0, 0.5)
        b = workload_fingerprint(d, 5, 120.0, 0.5)
        c = workload_fingerprint(d, 5, 300.0, 0.5)
        assert a == b != c

    def test_numeric_fraction_quartiles(self):
        d = Dialect.csv()
        assert workload_fingerprint(d, 5, 100.0, 0.45) \
            == workload_fingerprint(d, 5, 100.0, 0.55)
        assert workload_fingerprint(d, 5, 100.0, 0.1) \
            != workload_fingerprint(d, 5, 100.0, 0.9)


def test_probe_accepts_ndarray():
    raw = np.frombuffer(make_data(), dtype=np.uint8)
    stats = probe_input(raw)
    assert stats.num_columns == 3
    assert stats.input_bytes == raw.size
