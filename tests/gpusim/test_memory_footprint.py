"""Tests for the device-memory footprint model (§5.1's 512 MB ceiling)."""

import pytest

from repro.reference.gpusim.cost_model import PipelineCostModel, WorkloadStats
from repro.reference.gpusim.device import TITAN_X_PASCAL

MB = 1024 ** 2
GiB = 1024 ** 3


@pytest.fixture(scope="module")
def model():
    return PipelineCostModel(TITAN_X_PASCAL)


class TestFootprint:
    def test_grows_with_input(self, model):
        small = model.device_memory_bytes(WorkloadStats.yelp_like(64 * MB))
        large = model.device_memory_bytes(WorkloadStats.yelp_like(512 * MB))
        assert large > 7 * small

    def test_record_tags_dominate(self, model):
        """Record-tagged mode carries ~4 B/symbol extra through tagging
        and sorting — the memory pressure §4.1 motivates removing."""
        tagged = model.device_memory_bytes(
            WorkloadStats.yelp_like(512 * MB, record_tag_bytes=4.0))
        inline = model.device_memory_bytes(
            WorkloadStats.yelp_like(512 * MB, record_tag_bytes=0.0))
        assert tagged > 1.8 * inline

    def test_paper_evaluation_ceiling(self, model):
        """§5.1 evaluates the first 512 MB of each dataset 'to be able to
        evaluate all tagging modes before running out of device memory':
        one tagged parse of ~512 MB-1 GB must fit in 12 GB, ~2 GB+ must
        not fit three-modes-resident."""
        ceiling = model.max_input_for_device(WorkloadStats.yelp_like)
        # Single-parse ceiling comfortably above 512 MB...
        assert ceiling > 512 * MB
        # ...but within the same order of magnitude (not ~12 GB: the
        # intermediates are a small multiple of the input).
        assert ceiling < 2 * GiB

    def test_512mb_tagged_fits(self, model):
        footprint = model.device_memory_bytes(
            WorkloadStats.yelp_like(512 * MB))
        assert footprint < TITAN_X_PASCAL.memory_bytes

    def test_monotone_in_tag_width(self, model):
        footprints = [model.device_memory_bytes(
            WorkloadStats.yelp_like(256 * MB, record_tag_bytes=w))
            for w in (0.0, 0.125, 4.0)]
        assert footprints[0] < footprints[1] < footprints[2]
