"""Edge coverage for the kernel/launch model."""

import pytest

from repro.errors import SimulationError
from repro.reference.gpusim.device import TITAN_X_PASCAL
from repro.reference.gpusim.kernel import KernelLaunch, KernelModel


class TestKernelLaunch:
    def test_rejects_negative_threads(self):
        with pytest.raises(SimulationError):
            KernelLaunch("x", -1)

    def test_rejects_zero_block(self):
        with pytest.raises(SimulationError):
            KernelLaunch("x", 1, block_size=0)


class TestKernelModel:
    def test_launch_overhead_scales(self):
        model = KernelModel(TITAN_X_PASCAL)
        assert model.launch_overhead(10) \
            == pytest.approx(10 * model.launch_overhead(1))

    def test_launch_overhead_rejects_negative(self):
        with pytest.raises(SimulationError):
            KernelModel(TITAN_X_PASCAL).launch_overhead(-1)

    def test_compute_time_scales_with_cycles(self):
        model = KernelModel(TITAN_X_PASCAL)
        launch = KernelLaunch("k", 10 ** 6)
        assert model.compute_time(launch, 200.0) \
            == pytest.approx(2 * model.compute_time(launch, 100.0))

    def test_low_occupancy_slows_compute(self):
        model = KernelModel(TITAN_X_PASCAL)
        light = KernelLaunch("light", 10 ** 6, registers_per_thread=32)
        heavy = KernelLaunch("heavy", 10 ** 6, registers_per_thread=240)
        assert model.compute_time(heavy, 100.0) \
            > model.compute_time(light, 100.0)

    def test_zero_threads_costs_nothing_per_thread(self):
        model = KernelModel(TITAN_X_PASCAL)
        launch = KernelLaunch("empty", 0)
        assert model.thread_setup_time(launch) == 0.0
