"""Tests for the kernel workspace arena (borrow/release scratch buffers)."""

from __future__ import annotations

import gc
import os
import platform
import threading

import numpy as np
import pytest

from repro.framework.workspace import (
    Workspace,
    arena,
    record_arena_gauges,
    retain_freed_heap,
)
from repro.telemetry import Telemetry


class TestTakeRelease:
    def test_take_shape_and_dtype(self):
        ws = Workspace()
        buf = ws.take((3, 4), np.float64)
        assert buf.shape == (3, 4)
        assert buf.dtype == np.float64

    def test_int_shape(self):
        ws = Workspace()
        assert ws.take(7).shape == (7,)

    def test_release_then_take_reuses(self):
        ws = Workspace()
        a = ws.take((4, 6))
        base = a.base if a.base is not None else a
        ws.release(a)
        b = ws.take((4, 6))
        assert (b.base if b.base is not None else b) is base
        assert ws.hits == 1 and ws.misses == 1

    def test_size_keyed_across_shapes(self):
        ws = Workspace()
        a = ws.take((4, 6))
        ws.release(a)
        b = ws.take((24,))  # same element count, different shape
        assert ws.hits == 1

    def test_dtype_keyed(self):
        ws = Workspace()
        a = ws.take((8,), np.float32)
        ws.release(a)
        ws.take((8,), np.float64)
        assert ws.hits == 0 and ws.misses == 2

    def test_live_borrows_never_alias(self):
        ws = Workspace()
        a = ws.take((16,))
        b = ws.take((16,))
        assert not np.shares_memory(a, b)
        ws.release(a)
        c = ws.take((16,))  # a's buffer may come back only after release
        assert not np.shares_memory(b, c)

    def test_double_release_raises(self):
        ws = Workspace()
        buf = ws.take((4,))
        ws.release(buf)
        with pytest.raises(ValueError):
            ws.release(buf)

    def test_foreign_release_raises(self):
        ws = Workspace()
        with pytest.raises(ValueError):
            ws.release(np.zeros(4))

    def test_borrow_contextmanager(self):
        ws = Workspace()
        with ws.borrow((4, 4)) as buf:
            assert buf.shape == (4, 4)
            assert ws.live_count == 1
        assert ws.live_count == 0
        ws.take((4, 4))
        assert ws.hits == 1


class TestReclaimAndStats:
    def test_dead_borrow_is_reclaimed(self):
        ws = Workspace()
        buf = ws.take((32,))
        del buf
        gc.collect()
        assert ws.live_count == 0
        ws.take((32,))
        assert ws.hits == 1

    def test_stats_and_reset(self):
        ws = Workspace()
        a = ws.take((8,), np.float32)
        ws.release(a)
        b = ws.take((8,), np.float32)
        stats = ws.stats()
        assert b.size == 8
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["hit_rate"] == 0.5
        assert stats["bytes_allocated"] == 32
        assert stats["live"] == 1
        ws.reset_stats()
        assert ws.hit_rate == 0.0 and ws.bytes_allocated == 0

    def test_clear_drops_pool(self):
        ws = Workspace()
        ws.release(ws.take((8,)))
        assert ws.pooled_bytes > 0
        ws.clear()
        assert ws.pooled_bytes == 0

    def test_arena_is_thread_local(self):
        main_ws = arena()
        other: list[Workspace] = []
        t = threading.Thread(target=lambda: other.append(arena()))
        t.start()
        t.join()
        assert other[0] is not main_ws
        assert arena() is main_ws


class TestTelemetry:
    def test_take_counts_into_ambient_metrics(self):
        telemetry = Telemetry()
        ws = Workspace()
        with telemetry.activate():
            first = ws.take((16,), np.float32)
            ws.release(first)
            ws.take((16,), np.float32)
        metrics = telemetry.metrics
        assert metrics.counter("kernel_arena_misses").value == 1
        assert metrics.counter("kernel_arena_hits").value == 1
        assert metrics.counter("kernel_arena_bytes_allocated").value == 64

    def test_record_arena_gauges(self):
        telemetry = Telemetry()
        with telemetry.activate():
            stats = record_arena_gauges()
        gauge = telemetry.metrics.gauge("kernel_arena_hit_rate")
        assert gauge.value == stats["hit_rate"]
        assert telemetry.metrics.gauge("kernel_arena_live_borrows").value == stats["live"]


def test_retain_freed_heap_applies_once_on_glibc():
    applied = retain_freed_heap()
    assert retain_freed_heap() is applied
    user_tuned = any(k in os.environ
                     for k in ("MALLOC_MMAP_THRESHOLD_", "MALLOC_TRIM_THRESHOLD_"))
    if platform.libc_ver()[0] == "glibc" and not user_tuned:
        assert applied is True
