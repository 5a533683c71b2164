"""Size-keyed scratch-buffer arena for the framework's hot kernels.

Time-to-train (§3.2.1) is dominated by what happens inside the training
step, and on a NumPy substrate a large share of that is *allocator traffic*:
every ``conv2d`` forward/backward conjures multi-megabyte im2col columns,
GEMM outputs, and gradient scratch with ``np.empty`` — fresh pages each
time, faulted in and thrown away.  A :class:`Workspace` recycles those
buffers across steps: kernels *borrow* (:meth:`Workspace.take`) and
*release* scratch, so the steady-state training loop allocates almost
nothing.

Design:

- **Size-keyed pooling.**  Free buffers are flat 1-D arrays pooled by
  ``(dtype, element-count)``; :meth:`take` hands out a reshaped view.  A
  ``(64, 27, 144)`` borrow can be satisfied by a released ``(64*27*144,)``
  buffer regardless of its previous shape.
- **Alias safety.**  A buffer is either in the free pool or out on loan —
  never both — so two live borrows can never alias.  Double release and
  releasing a foreign array raise.
- **Leak tolerance.**  Borrows that die without being released (e.g. a
  backward closure that never ran because the graph was dropped) are
  reclaimed into the pool via a weakref callback, so kernels may hold
  scratch for the lifetime of an autograd closure without leaking.  The
  autograd graph is acyclic, so a dropped graph returns its borrows at
  once, by reference count, not at the next cyclic collection.
- **Per-thread.**  :func:`arena` returns a thread-local instance; kernels
  running on different threads never contend or alias.
- **Telemetry-counted.**  Every take increments ``kernel_arena_hits`` /
  ``kernel_arena_misses`` (and ``kernel_arena_bytes_allocated`` on a miss)
  on the ambient :class:`~repro.telemetry.metrics.MetricsRegistry`, so
  traces show allocation pressure per phase;
  :func:`record_arena_gauges` snapshots hit rate and pool size as gauges.

The arena is engaged by the ``reuse`` and ``fused`` kernel modes (see
:mod:`repro.framework.config`); ``naive`` mode never touches it.

Everything else a step allocates (activations, gradients) goes through
NumPy to the C heap and is freed when the step's graph dies.  By default
glibc hands those pages straight back to the OS and faults them in again
on the next step; :func:`retain_freed_heap` makes the heap keep them.
"""

from __future__ import annotations

import contextlib
import ctypes
import os
import threading
import weakref
from typing import Any, Iterable

import numpy as np

__all__ = ["Workspace", "arena", "record_arena_gauges", "retain_freed_heap"]


class Workspace:
    """A borrow/release arena of reusable NumPy scratch buffers."""

    def __init__(self, name: str = "default"):
        self.name = name
        # (dtype.str, size) -> list of free flat buffers (LIFO: warmest first).
        self._pool: dict[tuple[str, int], list[np.ndarray]] = {}
        # id(borrowed view) -> (key, flat buffer, weakref to view).
        self._live: dict[int, tuple[tuple[str, int], np.ndarray, Any]] = {}
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0
        # Memory accounting: bytes_requested counts every borrow whether
        # or not it hit the pool, so requested - allocated is the reuse
        # saving; live/peak track outstanding borrow footprint.
        self.bytes_requested = 0
        self.live_bytes = 0
        self.peak_live_bytes = 0

    # -- borrow / release ----------------------------------------------------
    def take(self, shape: tuple[int, ...] | int, dtype=np.float32) -> np.ndarray:
        """Borrow a buffer of ``shape``/``dtype`` (contents are arbitrary).

        The returned array must be handed back with :meth:`release` (or
        simply dropped — dead borrows are reclaimed automatically).
        """
        if isinstance(shape, int):
            shape = (shape,)
        dt = np.dtype(dtype)
        size = 1
        for dim in shape:
            size *= int(dim)
        key = (dt.str, size)
        free = self._pool.get(key)
        if free:
            flat = free.pop()
            self.hits += 1
            _metrics_counter("kernel_arena_hits").inc()
        else:
            flat = np.empty(size, dtype=dt)
            self.misses += 1
            self.bytes_allocated += flat.nbytes
            _metrics_counter("kernel_arena_misses").inc()
            _metrics_counter("kernel_arena_bytes_allocated").inc(flat.nbytes)
        self.bytes_requested += flat.nbytes
        self.live_bytes += flat.nbytes
        if self.live_bytes > self.peak_live_bytes:
            self.peak_live_bytes = self.live_bytes
        view = flat.reshape(shape)
        borrow_id = id(view)
        ref = weakref.ref(view, lambda wr, b=borrow_id: self._reclaim(b, wr))
        self._live[borrow_id] = (key, flat, ref)
        return view

    def release(self, buf: np.ndarray) -> None:
        """Return a borrowed buffer to the pool.

        Raises ``ValueError`` for arrays that are not live borrows of this
        workspace (including double releases).
        """
        entry = self._live.pop(id(buf), None)
        if entry is None:
            raise ValueError(
                f"workspace {self.name!r}: release() of an array that is not "
                "a live borrow (double release, or foreign buffer)"
            )
        key, flat, _ref = entry
        self.live_bytes -= flat.nbytes
        self._pool.setdefault(key, []).append(flat)

    def release_all(self, bufs: Iterable[np.ndarray]) -> None:
        for buf in bufs:
            self.release(buf)

    @contextlib.contextmanager
    def borrow(self, shape, dtype=np.float32):
        """``with ws.borrow((n, k)) as buf: ...`` — release on exit."""
        buf = self.take(shape, dtype)
        try:
            yield buf
        finally:
            self.release(buf)

    def _reclaim(self, borrow_id: int, wr) -> None:
        """Weakref callback: a borrowed view died unreleased — repool it."""
        entry = self._live.get(borrow_id)
        if entry is not None and entry[2] is wr:
            del self._live[borrow_id]
            key, flat, _ = entry
            self.live_bytes -= flat.nbytes
            self._pool.setdefault(key, []).append(flat)

    # -- introspection -------------------------------------------------------
    @property
    def live_count(self) -> int:
        return len(self._live)

    @property
    def pooled_bytes(self) -> int:
        return sum(b.nbytes for free in self._pool.values() for b in free)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    @property
    def bytes_saved(self) -> int:
        """Allocator traffic avoided by reuse: requested minus allocated."""
        return self.bytes_requested - self.bytes_allocated

    def stats(self) -> dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": self.hit_rate,
            "bytes_allocated": self.bytes_allocated,
            "bytes_requested": self.bytes_requested,
            "bytes_saved": self.bytes_saved,
            "live_bytes": self.live_bytes,
            "peak_live_bytes": self.peak_live_bytes,
            "pooled_bytes": self.pooled_bytes,
            "live": self.live_count,
        }

    def reset_stats(self) -> None:
        """Zero the hit/miss/bytes counters (pool contents are kept).

        The live-borrow footprint is state, not a counter — it survives,
        and the peak restarts from the current live level.
        """
        self.hits = 0
        self.misses = 0
        self.bytes_allocated = 0
        self.bytes_requested = 0
        self.peak_live_bytes = self.live_bytes

    def clear(self) -> None:
        """Drop every pooled buffer and forget live-borrow tracking.

        Intended for test/bench isolation when no borrows are outstanding;
        releasing a borrow taken before ``clear()`` raises.
        """
        self._pool.clear()
        self._live.clear()
        self.live_bytes = 0
        self.peak_live_bytes = 0


_LOCAL = threading.local()


def arena() -> Workspace:
    """The calling thread's workspace (created on first use)."""
    ws = getattr(_LOCAL, "workspace", None)
    if ws is None:
        ws = Workspace(name=f"thread-{threading.get_ident()}")
        _LOCAL.workspace = ws
    return ws


def _metrics_counter(name: str):
    # Imported lazily to keep framework -> telemetry a soft dependency.
    from ..telemetry import current_metrics

    return current_metrics().counter(name)


def record_arena_gauges(metrics=None) -> dict[str, float]:
    """Publish the arena's current stats as ``kernel_*`` telemetry gauges.

    Called by the suite's ``run_epoch`` implementations at epoch boundaries
    so per-run telemetry shows allocation pressure alongside throughput.
    The same snapshot is published as an ``arena_stats`` event on the
    ambient bus, so live streams carry allocation pressure too.  Returns
    the stats dict (also handy for benches).
    """
    ws = arena()
    if metrics is None:
        from ..telemetry import current_metrics

        metrics = current_metrics()
    stats = ws.stats()
    metrics.gauge("kernel_arena_hit_rate").set(stats["hit_rate"])
    metrics.gauge("kernel_arena_live_borrows").set(stats["live"])
    metrics.gauge("kernel_arena_pooled_bytes").set(stats["pooled_bytes"])
    metrics.gauge("kernel_arena_peak_live_bytes").set(stats["peak_live_bytes"])
    metrics.gauge("kernel_arena_bytes_saved").set(stats["bytes_saved"])
    from ..telemetry import current_events

    current_events().publish("arena_stats", arena=ws.name, **stats)
    return stats


# glibc ``mallopt`` parameters (malloc.h).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_HEAP_RETAINED: bool | None = None


def retain_freed_heap() -> bool:
    """Keep memory freed by one training step in the heap for the next.

    A step frees its whole graph at once.  glibc's defaults then return
    most of it to the OS: blocks above a (self-raising) mmap threshold are
    unmapped, and free space above 128 KiB at the heap top is trimmed, so
    every step pays page faults for its activations again.  This serves
    blocks up to 32 MiB from the heap and keeps up to 64 MiB of free heap
    top, so steady-state steps reuse resident pages.  Peak RSS does not
    grow: the step's live peak sets it either way.

    Process-wide and idempotent.  Returns whether the setting applies: it
    does not without glibc's ``mallopt``, or when the user tunes malloc
    through ``MALLOC_MMAP_THRESHOLD_`` / ``MALLOC_TRIM_THRESHOLD_``.
    """
    global _HEAP_RETAINED
    if _HEAP_RETAINED is None:
        _HEAP_RETAINED = False
        user_tuned = ("MALLOC_MMAP_THRESHOLD_" in os.environ
                      or "MALLOC_TRIM_THRESHOLD_" in os.environ)
        # ``pythonapi`` resolves symbols in the running process, libc
        # included; a fresh ``CDLL`` would leave a reference cycle.
        mallopt = getattr(ctypes.pythonapi, "mallopt", None)
        if mallopt is not None and not user_tuned:
            mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
            mallopt.restype = ctypes.c_int
            _HEAP_RETAINED = bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20)
                                  and mallopt(_M_TRIM_THRESHOLD, 64 << 20))
    return _HEAP_RETAINED
