"""Disk-time accounting: FIFO queueing vs preempting read priority."""

import time

import pytest

from repro.serving import NullIoModel, SimulatedDisksIoModel


class TestNullIoModel:
    def test_free(self):
        io = NullIoModel()
        assert io.read_elements({0: 5}) == 0.0
        assert io.reserve_background({0: 100, 1: 100}) is None


class TestSimulatedDisksIoModel:
    def test_validates_geometry(self):
        with pytest.raises(ValueError):
            SimulatedDisksIoModel(0)
        with pytest.raises(ValueError):
            SimulatedDisksIoModel(4, element_read_ms=-0.1)

    def test_single_read_costs_one_element(self):
        io = SimulatedDisksIoModel(4, element_read_ms=2.0)
        t0 = time.perf_counter()
        io.read_elements({1: 1})
        elapsed = time.perf_counter() - t0
        assert 0.001 <= elapsed < 0.5

    def test_fifo_read_queues_behind_rebuild_backlog(self):
        io = SimulatedDisksIoModel(4, element_read_ms=1.0)
        # book 30ms of rebuild backlog on disk 2 without waiting for it
        io._reserve(2, 0.030, priority=False)
        t0 = time.perf_counter()
        io.read_elements({2: 1}, priority=False)
        fifo_wait = time.perf_counter() - t0
        assert fifo_wait >= 0.015

    def test_priority_read_preempts_backlog(self):
        io = SimulatedDisksIoModel(4, element_read_ms=1.0, priority_grace_ms=1.0)
        io._reserve(2, 0.030, priority=False)
        t0 = time.perf_counter()
        io.read_elements({2: 1}, priority=True)
        prio_wait = time.perf_counter() - t0
        # grace (1ms) + own service (1ms) + scheduling slop, never the
        # full 30ms backlog
        assert prio_wait < 0.015

    def test_priority_read_pushes_backlog_back(self):
        io = SimulatedDisksIoModel(4, element_read_ms=1.0)
        done_before = io._reserve(2, 0.030, priority=False)
        io.read_elements({2: 1}, priority=True)
        assert io._busy_until[2] >= done_before  # displaced, not dropped

    def test_parallel_disks_charge_max_not_sum(self):
        io = SimulatedDisksIoModel(4, element_read_ms=5.0)
        t0 = time.perf_counter()
        io.read_elements({0: 2, 1: 2, 2: 2})  # 10ms on each of 3 disks
        elapsed = time.perf_counter() - t0
        assert elapsed < 0.025  # parallel: ~10ms, not 30ms
