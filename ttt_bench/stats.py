"""The benchmark's own arithmetic, kept free of timing so it can be tested.

Everything here is a pure function of its arguments: percentile selection,
the §3.2.2 olympic mean, span self time, per-step attribution, signed
overhead and the ``tracked_stats`` fold.  ``test_stats.py`` checks each one
on fixed inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

TRACKED_STATS = "tracked_stats"


def median(values: Sequence[float]) -> float:
    """Middle value (mean of the two middle values for an even count)."""
    if not values:
        raise ValueError("median of no values")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail_percentile(values: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile, refused without ``min_beyond`` samples above it.

    The nearest-rank value is the ``ceil(q/100 * n)``-th smallest sample; a
    tail percentile is only reported when at least ``min_beyond`` samples
    lie beyond that rank, so p90 needs at least 100 samples.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(values)
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < min_beyond:
        raise ValueError(
            f"p{q:g} of {n} samples has {n - rank} beyond it; need {min_beyond}")
    return float(sorted(values)[rank - 1])


def olympic_mean(values: Sequence[float]) -> float:
    """§3.2.2: drop one fastest and one slowest value, mean the rest."""
    if len(values) < 3:
        raise ValueError(f"olympic mean needs at least 3 values, got {len(values)}")
    kept = sorted(values)[1:-1]
    return math.fsum(kept) / len(kept)


def signed_overhead_pct(measured: float, baseline: float) -> float:
    """``(measured - baseline) / baseline`` in percent, negative when faster."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (measured - baseline) / baseline * 100.0


def tracked_throughput(events: Iterable) -> tuple[float, float]:
    """Sum ``(samples, epoch_seconds)`` over the runner's ``tracked_stats`` events.

    ``events`` are parsed MLLOG records (anything with ``key`` and ``value``).
    Eval time is not in ``epoch_seconds``, so samples / seconds is training
    throughput alone.  An epoch that logged no ``samples`` adds its seconds
    but no samples.
    """
    samples = seconds = 0.0
    for event in events:
        if event.key != TRACKED_STATS:
            continue
        seconds += float(event.value["epoch_seconds"])
        samples += float(event.value.get("samples", 0))
    return samples, seconds


@dataclass(frozen=True)
class Span:
    """One recorded interval; ``parent`` is an index into the same list or -1."""

    name: str
    start: float
    end: float
    parent: int = -1
    run: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    result = [s.duration for s in spans]
    for span in spans:
        if span.parent >= 0:
            result[span.parent] -= span.duration
    return result


@dataclass
class StepAttribution:
    """Per-step wall time split over layers, from one training epoch's spans."""

    walls: list[float] = field(default_factory=list)
    layers: list[dict[str, float]] = field(default_factory=list)
    other: list[float] = field(default_factory=list)
    # Spans that straddle a step boundary (or lie outside every step while
    # starting before the last boundary): a non-empty list means the
    # layer times do not partition the step walls.
    straddling: list[str] = field(default_factory=list)

    def max_residual(self) -> float:
        """Largest |layers + other - wall| over steps (0 up to rounding)."""
        return max((abs(math.fsum(layer.values()) + other - wall)
                    for layer, other, wall in zip(self.layers, self.other, self.walls)),
                   default=0.0)


def attribute_steps(spans: Sequence[Span], epoch: int, step_end: frozenset[str],
                    layer_of: dict[str, str]) -> StepAttribution:
    """Split one epoch span's steps into per-layer self time plus ``other``.

    A step ends when a direct child of the epoch whose name is in
    ``step_end`` ends (the optimizer update, or the sharded step that holds
    it); the first step starts with the epoch.  Every descendant span
    whose name is in ``layer_of`` adds its self time to that layer in the
    step containing it.  ``other`` is the step wall minus the layer times,
    signed: work the benchmark does not wrap (gradient clipping, LR
    scheduling, loss bookkeeping) shows up there, and so would any
    double counting, as a negative value.
    """
    own = self_times(spans)
    children: dict[int, list[int]] = {}
    for i, span in enumerate(spans):
        children.setdefault(span.parent, []).append(i)

    bounds = [spans[epoch].start]
    for i in children.get(epoch, []):
        if spans[i].name in step_end:
            bounds.append(spans[i].end)

    result = StepAttribution()
    result.walls = [b - a for a, b in zip(bounds, bounds[1:])]
    result.layers = [dict.fromkeys(sorted(set(layer_of.values())), 0.0)
                     for _ in result.walls]

    stack = list(children.get(epoch, []))
    while stack:
        i = stack.pop()
        stack.extend(children.get(i, []))
        layer = layer_of.get(spans[i].name)
        if layer is None:
            continue
        step = _containing_step(bounds, spans[i])
        if step is None:
            if spans[i].start < bounds[-1]:
                result.straddling.append(spans[i].name)
            continue
        result.layers[step][layer] += own[i]

    result.other = [wall - math.fsum(layer.values())
                    for wall, layer in zip(result.walls, result.layers)]
    return result


def _containing_step(bounds: Sequence[float], span: Span) -> int | None:
    for step, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
        if lo <= span.start and span.end <= hi:
            return step
    return None


@dataclass
class Breakdown:
    """Per-layer self time summed over every training step of a set of spans."""

    layers: dict[str, float]
    walls: list[float] = field(default_factory=list)  # one per step
    other: float = 0.0  # summed signed ``StepAttribution.other``
    residual: float = 0.0  # largest per-step |layers + other - wall|
    straddling: list[str] = field(default_factory=list)
    first_epoch: dict[int, float] = field(default_factory=dict)  # run -> seconds


def epoch_breakdown(spans: Sequence[Span], epoch_name: str, step_end: frozenset[str],
                    layer_of: dict[str, str]) -> Breakdown:
    """:func:`attribute_steps` over every span named ``epoch_name``, summed.

    Spans are in start order, so the first epoch seen for a run is its first.
    """
    result = Breakdown(dict.fromkeys(sorted(set(layer_of.values())), 0.0))
    for i, span in enumerate(spans):
        if span.name != epoch_name:
            continue
        result.first_epoch.setdefault(span.run, span.duration)
        steps = attribute_steps(spans, i, step_end, layer_of)
        for layers in steps.layers:
            for name, seconds in layers.items():
                result.layers[name] += seconds
        result.walls.extend(steps.walls)
        result.other += math.fsum(steps.other)
        result.residual = max(result.residual, steps.max_residual())
        result.straddling.extend(steps.straddling)
    return result
