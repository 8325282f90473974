"""The self-tuning planner: probe, candidate pricing, decisions, wiring.

Covers `probe_input` statistics, fingerprint stability, feasibility
filtering against the table budget, loser rationale, the tie rule (an
uncalibrated planner runs the unplanned configuration), refinement onto
the lowest measured rate, `plan="auto"` end-to-end equivalence,
`plan.*` spans/metrics, and the Titan X model's `suggest_chunk_size` /
`max_input_for_device` conveniences pinned on the paper workload
factories.
"""

import numpy as np
import pytest

from repro import Dialect, ParseOptions, parse_bytes
from repro.errors import ParseError
from repro.kernels.strided import SUPPORTED_STRIDES
from repro.obs import MetricsRegistry, Tracer
from repro.plan import InputStats, Planner, config_key, probe_input
from repro.plan.planner import CHUNK_CANDIDATES, DEFAULT_SECONDS_PER_BYTE, \
    WORKERS_INPUT_THRESHOLD
from repro.plan.stats import workload_fingerprint
from repro.reference.gpusim.cost_model import PipelineCostModel, \
    WorkloadStats

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


class TestDecision:
    def test_infeasible_strides_kept_with_reason(self):
        decision = Planner().plan(make_data())
        infeasible = [c for c in decision.candidates if not c.feasible]
        assert infeasible, "quoted CSV k=8 should blow the 4 MiB budget"
        assert all("table budget" in c.reason for c in infeasible)
        assert all(c.estimated_seconds is None for c in infeasible)
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
        base = ParseOptions()
        decision = Planner().plan(make_data(), base)
        chunks = {base.chunk_size, *CHUNK_CANDIDATES}
        strides = {*SUPPORTED_STRIDES, 1}
        assert len(decision.candidates) == len(chunks) * len(strides)
        assert {(c.chunk_size, c.stride) for c in decision.candidates} \
            == {(chunk, k) for chunk in chunks for k in strides}
        assert "partition_strategy" not in decision.as_dict()["chosen"]

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

    @pytest.mark.parametrize("options", [
        ParseOptions(), ParseOptions(chunk_size=48, infer_types=True),
        ParseOptions(kernel_stride=2),
        ParseOptions(dialect=Dialect.pipe()),
    ])
    def test_empty_store_plans_the_unplanned_configuration(self, options):
        """Every candidate prices at the prior, so the tie rule picks the
        configured chunk size and the stride a plain parse resolves."""
        decision = Planner().plan(make_data(), options)
        assert decision.chosen == options.with_(
            plan=None, kernel_stride=options.resolved_stride())
        assert not decision.calibrated
        assert decision.estimated_seconds == pytest.approx(
            len(make_data()) * DEFAULT_SECONDS_PER_BYTE)

    def test_unmeasured_never_beats_the_best_measured(self):
        """A low fingerprint average must not make an unmeasured
        candidate cheaper than every measured one."""
        planner = Planner()
        data = make_data()
        fingerprint = planner.plan(data).fingerprint
        slow = config_key(fingerprint, 64, 1)
        fast = config_key(fingerprint, 128, 1)
        planner.store.observe(slow, fingerprint, 4e-7)
        planner.store.observe(fast, fingerprint, 2e-7)
        planner.store.observe(slow, fingerprint, 1e-8)
        # slow averages 2.05e-7, the fingerprint 1.55e-7 < fast's 2e-7.
        assert planner.store.rate(fingerprint) < planner.store.rate(fast)
        decision = planner.plan(data)
        assert decision.calibrated
        assert (decision.winner.chunk_size, decision.winner.stride) \
            == (128, 1)
        measured = min(c.estimated_seconds for c in decision.candidates
                       if c.calibrated)
        assert all(c.estimated_seconds >= measured
                   for c in decision.candidates if c.feasible)

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
                     if c.feasible and c.chunk_size == 128)
        # Plant evidence that one loser is much faster than the prior.
        key = config_key(first.fingerprint, loser.chunk_size,
                         loser.stride)
        planner.store.observe(key, first.fingerprint,
                              DEFAULT_SECONDS_PER_BYTE / 1000)
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

    def test_refine_picks_the_lowest_measured_rate(self):
        planner = Planner()
        data = make_data(2000)
        decision = planner.refine(data, rounds=3)
        rates = {(c.chunk_size, c.stride): planner.store.rate(
                     config_key(decision.fingerprint, c.chunk_size,
                                c.stride))
                 for c in decision.candidates if c.calibrated}
        winner = decision.winner
        assert winner.calibrated
        assert rates[(winner.chunk_size, winner.stride)] == min(
            rates.values())

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
        """No measurement yet: the estimate is the prior rate."""
        assert Planner().estimate_cost(10_000_000) == pytest.approx(
            10_000_000 * DEFAULT_SECONDS_PER_BYTE)

    def test_estimate_uses_the_store_wide_rate(self):
        planner = Planner()
        parse_bytes(make_data(), ParseOptions(), planner=planner)
        rate = planner.store.rate()
        assert planner.estimate_cost(1_000_000) == pytest.approx(
            1_000_000 * rate)


class TestDormantConveniences:
    """Pin the Titan X model's conveniences on the paper factories."""

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
