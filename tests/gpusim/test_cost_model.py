"""Tests pinning the cost model to the paper's observations.

These tests encode the *shape* constraints of Figures 9-11: calibration
points near the paper's reported values, monotonicities, spike locations,
and dataset sensitivities.  If a refactor breaks one of these, a benchmark
figure has silently changed shape.
"""

import pytest

from repro.reference.gpusim.cost_model import PipelineCostModel, StepCosts, \
    WorkloadStats
from repro.reference.gpusim.device import TITAN_X_PASCAL, V100

MiB = 1024 ** 2
GB = 1e9


@pytest.fixture(scope="module")
def model():
    return PipelineCostModel(TITAN_X_PASCAL)


class TestWorkloadStats:
    def test_yelp_record_size(self):
        stats = WorkloadStats.yelp_like(512 * MiB)
        assert stats.num_records == pytest.approx(512 * MiB / 721.4, rel=0.01)
        assert stats.num_columns == 9

    def test_taxi_field_density(self):
        stats = WorkloadStats.taxi_like(512 * MiB)
        # ~5.2 bytes per field (paper §5).
        assert stats.input_bytes / stats.num_fields \
            == pytest.approx(5.2, rel=0.01)

    def test_num_chunks(self):
        stats = WorkloadStats.yelp_like(100, chunk_size=31)
        assert stats.num_chunks == 4

    def test_validation(self):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            WorkloadStats(input_bytes=-1, chunk_size=31, num_states=6,
                          num_columns=1, num_records=1, num_fields=1,
                          numeric_field_fraction=0.5)


class TestCalibrationPoints:
    def test_peak_rate_order_of_magnitude(self, model):
        """Paper: up to 14.2 GB/s on-GPU (yelp).  The robust record-tagged
        mode lands ~10 GB/s and the lean inline mode above 14 GB/s; both
        must bracket the right decade."""
        tagged = model.parsing_rate(WorkloadStats.yelp_like(512 * MiB))
        inline = model.parsing_rate(
            WorkloadStats.yelp_like(512 * MiB, record_tag_bytes=0.0))
        assert 8e9 < tagged < 14e9
        assert 12e9 < inline < 20e9

    def test_small_input_rate(self, model):
        """Paper §5.1: >2.7 GB/s (yelp) and >2.1 GB/s (taxi) at 1 MB."""
        yelp = model.parsing_rate(WorkloadStats.yelp_like(1 * MiB))
        taxi = model.parsing_rate(WorkloadStats.taxi_like(1 * MiB))
        assert 1.8e9 < yelp < 4.5e9
        assert 1.3e9 < taxi < 3.5e9

    def test_ten_megabytes_yelp(self, model):
        """Paper §5.1: ~9.75 GB/s parsing 10 MB of yelp."""
        rate = model.parsing_rate(WorkloadStats.yelp_like(10 * MiB))
        assert 6e9 < rate < 12e9

    def test_convert_share(self, model):
        """Figure 9: conversion ≈1/3 of total for taxi, ≈20% for yelp."""
        yelp = model.step_costs(WorkloadStats.yelp_like(512 * MiB))
        taxi = model.step_costs(WorkloadStats.taxi_like(512 * MiB))
        assert yelp.convert / yelp.total < 0.25
        assert 0.25 < taxi.convert / taxi.total < 0.45

    def test_scan_share_tiny(self, model):
        """§5.1: the scan takes <2% of total for most chunk sizes."""
        costs = model.step_costs(WorkloadStats.yelp_like(512 * MiB))
        assert costs.scan / costs.total < 0.05

    def test_non_convert_steps_dataset_agnostic(self, model):
        """Figure 11: except conversion, steps cost ~the same on both."""
        yelp = model.step_costs(WorkloadStats.yelp_like(512 * MiB))
        taxi = model.step_costs(WorkloadStats.taxi_like(512 * MiB))
        for step in ("parse", "scan", "tag", "partition"):
            assert getattr(yelp, step) \
                == pytest.approx(getattr(taxi, step), rel=0.05), step


class TestChunkSizeShape:
    def test_tiny_chunks_slower(self, model):
        """Figure 9: chunk sizes below ~16 bytes degrade."""
        t4 = model.total_seconds(WorkloadStats.yelp_like(512 * MiB, 4))
        t31 = model.total_seconds(WorkloadStats.yelp_like(512 * MiB, 31))
        assert t4 > 1.15 * t31

    @pytest.mark.parametrize("spike", [32, 48, 64])
    def test_bank_conflict_spikes(self, model, spike):
        """Figure 9: spikes at 32/48/64-byte chunks vs their neighbours."""
        at_spike = model.total_seconds(
            WorkloadStats.yelp_like(512 * MiB, spike))
        neighbour = model.total_seconds(
            WorkloadStats.yelp_like(512 * MiB, spike - 1))
        assert at_spike > neighbour

    def test_31_is_near_optimal(self, model):
        """§5.1: best performance at 31 bytes per chunk."""
        t31 = model.total_seconds(WorkloadStats.yelp_like(512 * MiB, 31))
        for chunk in (4, 8, 16, 32, 48, 64):
            t = model.total_seconds(WorkloadStats.yelp_like(512 * MiB,
                                                            chunk))
            assert t31 <= t * 1.02, chunk


class TestInputSizeShape:
    def test_rate_increases_with_size(self, model):
        """Figure 10: parsing rate grows with input size, flattening."""
        rates = [model.parsing_rate(WorkloadStats.yelp_like(s * MiB))
                 for s in (1, 2, 4, 8, 16, 64, 256, 512)]
        assert all(a < b for a, b in zip(rates, rates[1:]))

    def test_half_peak_around_5mb(self, model):
        """§5.1: at ~5 MB either dataset reaches roughly 50% of peak."""
        peak = model.parsing_rate(WorkloadStats.yelp_like(512 * MiB))
        at5 = model.parsing_rate(WorkloadStats.yelp_like(5 * MiB))
        assert 0.35 * peak < at5 < 0.85 * peak

    def test_launch_overhead_hurts_taxi_more(self, model):
        """More columns -> more conversion kernel launches (§5.1)."""
        yelp = model.parsing_rate(WorkloadStats.yelp_like(1 * MiB))
        taxi = model.parsing_rate(WorkloadStats.taxi_like(1 * MiB))
        assert taxi < yelp


class TestTaggingModes:
    def test_record_tags_slowest(self, model):
        """Figure 11: record-tagged > inline/vector-delimited cost."""
        sizes = {}
        for name, tag_bytes in (("tagged", 4.0), ("inline", 0.0),
                                ("delimited", 0.125)):
            sizes[name] = model.total_seconds(
                WorkloadStats.yelp_like(512 * MiB,
                                        record_tag_bytes=tag_bytes))
        assert sizes["tagged"] > sizes["delimited"] > sizes["inline"]

    def test_mode_affects_tag_partition_convert(self, model):
        tagged = model.step_costs(WorkloadStats.yelp_like(512 * MiB))
        inline = model.step_costs(
            WorkloadStats.yelp_like(512 * MiB, record_tag_bytes=0.0))
        assert tagged.tag > inline.tag
        assert tagged.partition > inline.partition
        assert tagged.convert > inline.convert
        # Parse and scan are mode independent.
        assert tagged.parse == pytest.approx(inline.parse)
        assert tagged.scan == pytest.approx(inline.scan)


class TestDeviceScaling:
    def test_more_cores_faster(self):
        """§6: the design keeps gaining from added cores."""
        titan = PipelineCostModel(TITAN_X_PASCAL)
        big = PipelineCostModel(TITAN_X_PASCAL.scaled(2.0))
        stats = WorkloadStats.yelp_like(512 * MiB)
        assert big.total_seconds(stats) < titan.total_seconds(stats)

    def test_v100_beats_titan(self):
        titan = PipelineCostModel(TITAN_X_PASCAL)
        v100 = PipelineCostModel(V100)
        stats = WorkloadStats.taxi_like(512 * MiB)
        assert v100.total_seconds(stats) < titan.total_seconds(stats)


class TestStepCosts:
    def test_addition(self):
        a = StepCosts(parse=1, scan=2, tag=3, partition=4, convert=5)
        b = StepCosts(parse=1, scan=1, tag=1, partition=1, convert=1)
        total = a + b
        assert total.total == pytest.approx(20)
        assert set(total.as_dict()) == {"parse", "scan", "tag",
                                        "partition", "convert"}
