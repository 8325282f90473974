"""Tests for device specs, kernel/occupancy, memory, and warp models."""

import pytest

from repro.errors import SimulationError
from repro.reference.gpusim.device import (GTX_1080, TITAN_X_PASCAL, V100,
                                          DeviceSpec)
from repro.reference.gpusim.kernel import KernelLaunch, KernelModel
from repro.reference.gpusim.memory import GlobalMemoryModel, SharedMemoryModel
from repro.reference.gpusim.warp import WarpExecutionModel


class TestDeviceSpec:
    def test_titan_x_matches_paper(self):
        # Paper §5: 3 584 cores, 12 GB, 1 417 MHz base clock.
        assert TITAN_X_PASCAL.num_cores == 3584
        assert TITAN_X_PASCAL.memory_bytes == 12 * 1024 ** 3
        assert TITAN_X_PASCAL.clock_hz == pytest.approx(1.417e9)

    def test_v100_core_count(self):
        # Paper §1: "as much as 5 120 cores on a single chip".
        assert V100.num_cores == 5120

    def test_scaled_device(self):
        doubled = TITAN_X_PASCAL.scaled(2.0)
        assert doubled.num_sms == 56
        assert doubled.memory_bandwidth \
            == pytest.approx(2 * TITAN_X_PASCAL.memory_bandwidth)
        # PCIe does not scale with the die.
        assert doubled.pcie_bandwidth == TITAN_X_PASCAL.pcie_bandwidth

    def test_scaled_rejects_nonpositive(self):
        with pytest.raises(SimulationError):
            TITAN_X_PASCAL.scaled(0)


class TestSharedMemoryModel:
    @pytest.mark.parametrize("stride,degree", [
        (31, 1),   # odd strides are conflict free
        (15, 1),
        (32, 8),   # the Figure 9 spike strides
        (48, 4),
        (64, 16),
        (128, 32),
    ])
    def test_conflict_degrees(self, stride, degree):
        assert SharedMemoryModel().conflict_degree(stride) == degree

    def test_slowdown_monotone_in_degree(self):
        model = SharedMemoryModel()
        assert model.conflict_slowdown(31) < model.conflict_slowdown(32) \
            < model.conflict_slowdown(64)

    def test_rejects_bad_stride(self):
        with pytest.raises(SimulationError):
            SharedMemoryModel().conflict_degree(0)


class TestGlobalMemoryModel:
    def test_stream_time_proportional(self):
        model = GlobalMemoryModel(TITAN_X_PASCAL)
        assert model.stream_time(2e9) == pytest.approx(
            2 * model.stream_time(1e9))

    def test_scatter_slower_than_stream(self):
        model = GlobalMemoryModel(TITAN_X_PASCAL)
        assert model.scatter_time(1e9) > model.stream_time(1e9)

    def test_rejects_negative(self):
        with pytest.raises(SimulationError):
            GlobalMemoryModel(TITAN_X_PASCAL).stream_time(-1)


class TestKernelModel:
    def test_launch_overhead_in_paper_range(self):
        # §5.1 estimates 5-10 µs per invocation.
        model = KernelModel(TITAN_X_PASCAL)
        assert 5e-6 <= model.launch_overhead(1) <= 10e-6

    def test_occupancy_full_for_light_kernels(self):
        model = KernelModel(TITAN_X_PASCAL)
        launch = KernelLaunch("light", 10 ** 6, registers_per_thread=32)
        assert model.occupancy(launch) == 1.0

    def test_occupancy_drops_with_registers(self):
        model = KernelModel(TITAN_X_PASCAL)
        heavy = KernelLaunch("heavy", 10 ** 6, registers_per_thread=255)
        assert model.occupancy(heavy) < 0.5

    def test_occupancy_drops_with_shared_memory(self):
        model = KernelModel(TITAN_X_PASCAL)
        smem = KernelLaunch("smem", 10 ** 6, shared_bytes_per_block=48 * 1024)
        assert model.occupancy(smem) < 1.0

    def test_impossible_block_raises(self):
        model = KernelModel(TITAN_X_PASCAL)
        # One block needing more shared memory than the SM owns.
        bad = KernelLaunch("bad", 1, shared_bytes_per_block=10 ** 9)
        with pytest.raises(SimulationError):
            model.occupancy(bad)

    def test_thread_setup_scales_with_threads(self):
        model = KernelModel(TITAN_X_PASCAL)
        small = KernelLaunch("s", 10 ** 5)
        large = KernelLaunch("l", 10 ** 7)
        assert model.thread_setup_time(large) == pytest.approx(
            100 * model.thread_setup_time(small))


class TestWarpModel:
    def test_converged_warp(self):
        assert WarpExecutionModel().warp_serialisation([0] * 32) == 1

    def test_fully_divergent(self):
        assert WarpExecutionModel().warp_serialisation(list(range(32))) == 32

    def test_average_over_launch(self):
        model = WarpExecutionModel(warp_size=4)
        # Two warps: converged + two-way divergent.
        paths = [0, 0, 0, 0, 0, 1, 0, 1]
        assert model.average_serialisation(paths) == pytest.approx(1.5)

    def test_divergence_penalty_single_path(self):
        model = WarpExecutionModel()
        assert model.divergence_penalty({0: 1.0}) == 1.0

    def test_row_order_conversion_diverges_more(self):
        """The §3.3 argument: converting in row order (types interleaved)
        serialises warps; converting after partitioning does not."""
        model = WarpExecutionModel()
        # 17 taxi columns in row order: near-uniform path mix.
        row_order = {i: 1 / 17 for i in range(17)}
        partitioned = {0: 1.0}
        assert model.divergence_penalty(row_order) \
            > 10 * model.divergence_penalty(partitioned)

    def test_penalty_requires_probabilities(self):
        with pytest.raises(SimulationError):
            WarpExecutionModel().divergence_penalty({0: 0.4})
