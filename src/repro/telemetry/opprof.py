"""Op-level profiling: where the wall-clock goes *inside* a step.

The paper's §4.1 log and the DAWNBench decomposition answer "which phase
was slow" (init vs. epochs vs. eval); this module answers the next
question down — which *op* — by recording per-op call counts, wall time,
and bytes moved for forward and backward passes, per phase.

Three moving parts:

- :class:`OpProfiler` — the recorder.  One lives on every
  :class:`~repro.telemetry.context.Telemetry` session; kernels reach it
  through :func:`current_profiler` (via the tiny shim in
  :mod:`repro.framework.prof`, which keeps the framework → telemetry
  dependency lazy).  Mode comes from ``REPRO_PROFILE``:

  - ``off`` (default) — ``active`` is permanently False and every probe
    collapses to one attribute check; numerics are untouched, so runs
    are bit-identical to an unprofiled build.
  - ``sampled`` — profile one step out of every ``REPRO_PROFILE_EVERY``
    (default 8).  The runner calls :meth:`OpProfiler.step` at each epoch
    boundary; benches call it per iteration.  Window 0 (model creation,
    first step) is always sampled so short runs still produce data.
  - ``full`` — profile every step.

- **Self vs. total time.**  Profiled ops nest (a fused linear records a
  GEMM inside itself when fusion is off), so the recorder keeps a span
  stack and charges child time against the parent: ``self_ns`` sums to
  the true profiled wall-clock with no double counting, while
  ``total_ns`` stays the inclusive cost callers observe.

- **Memory accounting.**  When profiling is on, the Telemetry session
  installs :meth:`OpProfiler.note_alloc` as the framework's tensor
  allocation tracker, so each phase reports tensor bytes constructed;
  :meth:`snapshot` also captures the workspace arena's live/peak/saved
  bytes, making the arena's reuse savings visible per run.

The serializable aggregate (:func:`OpProfiler.snapshot`) is a plain dict
with ``schema == "repro.op_profile.v1"``; it rides on
:class:`~repro.telemetry.profile.RunTelemetry` and round-trips through
saved run artifacts, which is what ``repro profile <run>`` renders.
"""

from __future__ import annotations

import os
import time
from typing import Any, Callable, Iterable

__all__ = ["OpProfiler", "NULL_OP_SPAN", "OP_PROFILE_SCHEMA", "PROFILE_MODES",
           "DEFAULT_SAMPLE_EVERY", "profile_mode_from_env",
           "merge_op_profiles", "render_op_profile"]

OP_PROFILE_SCHEMA = "repro.op_profile.v1"
PROFILE_MODES = ("off", "sampled", "full")
DEFAULT_SAMPLE_EVERY = 8

_ENV_MODE = "REPRO_PROFILE"
_ENV_EVERY = "REPRO_PROFILE_EVERY"


def profile_mode_from_env() -> str:
    """The validated ``REPRO_PROFILE`` value (default ``off``)."""
    mode = os.environ.get(_ENV_MODE, "off").strip().lower() or "off"
    if mode not in PROFILE_MODES:
        raise ValueError(
            f"{_ENV_MODE}={mode!r}: expected one of {PROFILE_MODES}")
    return mode


def _sample_every_from_env() -> int:
    raw = os.environ.get(_ENV_EVERY, "").strip()
    if not raw:
        return DEFAULT_SAMPLE_EVERY
    every = int(raw)
    if every < 1:
        raise ValueError(f"{_ENV_EVERY} must be >= 1, got {every}")
    return every


class _NullOpSpan:
    """Shared no-op stand-in returned when the profiler is not sampling."""

    __slots__ = ()

    def __enter__(self) -> "_NullOpSpan":
        return self

    def __exit__(self, *exc) -> None:
        return None

    def add_bytes(self, nbytes: int) -> None:
        return None


NULL_OP_SPAN = _NullOpSpan()


class _OpSpan:
    """Times one explicit op section (optimizer update, all-reduce)."""

    __slots__ = ("_prof", "_name", "_phase", "_nbytes", "_t0")

    def __init__(self, prof: "OpProfiler", name: str, phase: str | None,
                 nbytes: int):
        self._prof = prof
        self._name = name
        self._phase = phase
        self._nbytes = nbytes
        self._t0 = 0

    def add_bytes(self, nbytes: int) -> None:
        self._nbytes += int(nbytes)

    def __enter__(self) -> "_OpSpan":
        self._prof.begin()
        self._t0 = self._prof.clock_ns()
        return self

    def __exit__(self, exc_type, *exc) -> None:
        dt = self._prof.clock_ns() - self._t0
        if exc_type is not None:
            self._prof.cancel()
            return
        self._prof.end(self._name, dt, self._nbytes, phase=self._phase)


class OpProfiler:
    """Per-op wall-time/bytes recorder with step sampling.

    ``active`` is the one flag hot paths check: False collapses every
    probe to a no-op.  ``phase`` is the bucket forward-path records land
    in; :meth:`~repro.framework.tensor.Tensor.backward` flips it to
    ``backward`` for the extent of a backward pass, and explicit sites
    pass their own (``update`` for the optimizer, ``comms`` for the
    all-reduce).
    """

    __slots__ = ("mode", "sample_every", "active", "phase", "steps_total",
                 "steps_sampled", "clock_ns", "_ops", "_mem", "_stack")

    def __init__(self, mode: str | None = None, sample_every: int | None = None,
                 enabled: bool = True, clock_ns: Callable[[], int] | None = None):
        if mode is None:
            mode = profile_mode_from_env() if enabled else "off"
        if mode not in PROFILE_MODES:
            raise ValueError(f"profile mode must be one of {PROFILE_MODES}, "
                             f"got {mode!r}")
        if not enabled:
            mode = "off"
        self.mode = mode
        self.sample_every = (sample_every if sample_every is not None
                             else _sample_every_from_env())
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        self.clock_ns = clock_ns or time.perf_counter_ns
        # Window 0 (everything before the first step boundary, plus the
        # first step) is always sampled, so short runs still profile.
        self.active = mode != "off"
        self.phase = "forward"
        self.steps_total = 0
        self.steps_sampled = 0
        # (phase, op) -> [calls, total_ns, self_ns, bytes_moved]
        self._ops: dict[tuple[str, str], list[int]] = {}
        # phase -> {"tensor_allocs": n, "tensor_bytes": n}
        self._mem: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []  # child-time accumulators (ns)

    # -- sampling ------------------------------------------------------------
    def step(self) -> None:
        """Mark a step/epoch boundary (drives ``sampled`` mode)."""
        if self.mode == "off":
            return
        # Count the window this boundary closes, so full mode samples
        # exactly ``steps_total`` and sampled mode never exceeds it.
        self.steps_total += 1
        if self.active:
            self.steps_sampled += 1
        if self.mode == "sampled":
            self.active = (self.steps_total % self.sample_every) == 0

    # -- recording -----------------------------------------------------------
    def begin(self) -> None:
        """Open a nesting level (pair with :meth:`end` or :meth:`cancel`)."""
        self._stack.append(0)

    def cancel(self) -> None:
        """Abandon the innermost open level (op raised; record nothing)."""
        if self._stack:
            self._stack.pop()

    def end(self, name: str, total_ns: int, nbytes: int = 0,
            phase: str | None = None) -> None:
        """Close the innermost level and record the op."""
        child_ns = self._stack.pop() if self._stack else 0
        if self._stack:
            self._stack[-1] += total_ns
        key = ((phase or self.phase), name)
        entry = self._ops.get(key)
        if entry is None:
            self._ops[key] = entry = [0, 0, 0, 0]
        entry[0] += 1
        entry[1] += total_ns
        entry[2] += max(total_ns - child_ns, 0)
        entry[3] += int(nbytes)

    def op(self, name: str, phase: str | None = None, nbytes: int = 0):
        """Context manager timing an explicit section; no-op when inactive."""
        if not self.active:
            return NULL_OP_SPAN
        return _OpSpan(self, name, phase, nbytes)

    # -- memory --------------------------------------------------------------
    def note_alloc(self, nbytes: int) -> None:
        """Tensor-construction hook (installed by ``Telemetry.activate``)."""
        if not self.active:
            return
        bucket = self._mem.get(self.phase)
        if bucket is None:
            self._mem[self.phase] = bucket = {"tensor_allocs": 0,
                                              "tensor_bytes": 0}
        bucket["tensor_allocs"] += 1
        bucket["tensor_bytes"] += int(nbytes)

    # -- export --------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """The serializable ``OpProfile`` payload (empty dict when off)."""
        if self.mode == "off":
            return {}
        ops: dict[str, dict[str, dict[str, int]]] = {}
        for (phase, name), (calls, total_ns, self_ns, nbytes) in sorted(
                self._ops.items()):
            ops.setdefault(phase, {})[name] = {
                "calls": calls,
                "total_ns": total_ns,
                "self_ns": self_ns,
                "bytes_moved": nbytes,
            }
        payload: dict[str, Any] = {
            "schema": OP_PROFILE_SCHEMA,
            "mode": self.mode,
            "sample_every": self.sample_every,
            "steps_total": self.steps_total,
            "steps_sampled": self.steps_sampled,
            "ops": ops,
            "memory": {phase: dict(bucket)
                       for phase, bucket in sorted(self._mem.items())},
        }
        payload["arena"] = _arena_snapshot()
        return payload


def _arena_snapshot() -> dict[str, float]:
    """The calling thread's workspace-arena memory stats (lazy import)."""
    from ..framework.workspace import arena

    ws = arena()
    stats = ws.stats()
    return {
        "live_bytes": stats.get("live_bytes", 0),
        "peak_live_bytes": stats.get("peak_live_bytes", 0),
        "bytes_allocated": stats.get("bytes_allocated", 0),
        "bytes_requested": stats.get("bytes_requested", 0),
        "bytes_saved": stats.get("bytes_saved", 0),
        "hit_rate": stats.get("hit_rate", 0.0),
    }


def merge_op_profiles(payloads: Iterable[dict[str, Any] | None]) -> dict[str, Any]:
    """Sum several ``OpProfile`` payloads (e.g. one per campaign cell).

    Counters and step counts add; ``mode``/``sample_every`` are taken
    from the first payload; arena gauges take element-wise maxima (peaks)
    except counters, which add.
    """
    present = [p for p in payloads if p]
    if not present:
        return {}
    out: dict[str, Any] = {
        "schema": OP_PROFILE_SCHEMA,
        "mode": present[0].get("mode", "sampled"),
        "sample_every": present[0].get("sample_every", DEFAULT_SAMPLE_EVERY),
        "steps_total": 0,
        "steps_sampled": 0,
        "ops": {},
        "memory": {},
        "arena": {},
    }
    for payload in present:
        out["steps_total"] += int(payload.get("steps_total", 0))
        out["steps_sampled"] += int(payload.get("steps_sampled", 0))
        for phase, ops in (payload.get("ops") or {}).items():
            into = out["ops"].setdefault(phase, {})
            for name, stat in ops.items():
                acc = into.setdefault(name, {"calls": 0, "total_ns": 0,
                                             "self_ns": 0, "bytes_moved": 0})
                for field in acc:
                    acc[field] += int(stat.get(field, 0))
        for phase, bucket in (payload.get("memory") or {}).items():
            into = out["memory"].setdefault(phase, {})
            for field, value in bucket.items():
                into[field] = into.get(field, 0) + int(value)
        for field, value in (payload.get("arena") or {}).items():
            if field in ("bytes_allocated", "bytes_requested", "bytes_saved"):
                out["arena"][field] = out["arena"].get(field, 0) + value
            else:
                out["arena"][field] = max(out["arena"].get(field, 0), value)
    return out


def _fmt_bytes(n: float) -> str:
    n = float(n)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if abs(n) < 1024.0 or unit == "GiB":
            return f"{n:.1f}{unit}" if unit != "B" else f"{int(n)}B"
        n /= 1024.0
    return f"{n:.1f}GiB"


def render_op_profile(payload: dict[str, Any]) -> str:
    """A per-phase op table: calls, total/self ms, bytes, self-time share."""
    if not payload:
        return "no op profile recorded (REPRO_PROFILE=off)"
    lines = [
        f"op profile: mode={payload.get('mode')} "
        f"sample_every={payload.get('sample_every')} "
        f"steps={payload.get('steps_total')} "
        f"sampled={payload.get('steps_sampled')}"
    ]
    ops = payload.get("ops") or {}
    total_self = sum(stat.get("self_ns", 0)
                     for phase_ops in ops.values()
                     for stat in phase_ops.values()) or 1
    header = (f"  {'Phase':<10}{'Op':<22}{'Calls':>8}{'Total ms':>11}"
              f"{'Self ms':>10}{'Bytes':>11}{'Share':>8}")
    lines += [header, "  " + "-" * (len(header) - 2)]
    for phase in sorted(ops):
        ranked = sorted(ops[phase].items(),
                        key=lambda kv: (-kv[1].get("self_ns", 0), kv[0]))
        for name, stat in ranked:
            lines.append(
                f"  {phase:<10}{name:<22}{stat.get('calls', 0):>8}"
                f"{stat.get('total_ns', 0) / 1e6:>11.2f}"
                f"{stat.get('self_ns', 0) / 1e6:>10.2f}"
                f"{_fmt_bytes(stat.get('bytes_moved', 0)):>11}"
                f"{100.0 * stat.get('self_ns', 0) / total_self:>7.1f}%"
            )
    memory = payload.get("memory") or {}
    if memory:
        lines.append("  memory (tensor construction per phase):")
        for phase in sorted(memory):
            bucket = memory[phase]
            lines.append(
                f"    {phase:<10}{bucket.get('tensor_allocs', 0):>8} allocs"
                f"  {_fmt_bytes(bucket.get('tensor_bytes', 0)):>11}"
            )
    arena = payload.get("arena") or {}
    if arena:
        lines.append(
            "  arena: "
            f"peak_live={_fmt_bytes(arena.get('peak_live_bytes', 0))} "
            f"allocated={_fmt_bytes(arena.get('bytes_allocated', 0))} "
            f"requested={_fmt_bytes(arena.get('bytes_requested', 0))} "
            f"saved={_fmt_bytes(arena.get('bytes_saved', 0))} "
            f"hit_rate={arena.get('hit_rate', 0.0):.3f}"
        )
    return "\n".join(lines)
