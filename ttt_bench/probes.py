"""Probes around the calls the benchmark makes into each layer of the repo.

Nothing under ``src/`` is changed: the benchmark wraps the objects it
builds (the benchmark's ``prepare_data``/``create_session``, and the
session's loader, step executor, optimizer, dataset batch builders and
comms engine) by setting instance attributes that shadow the bound
methods.  A :class:`Recorder` keeps the resulting spans in memory and
writes them out once, as a Chrome trace, when the benchmark ends.

With ``timing=False`` the probes only count calls; that is how the
untraced runs check that a workload exercised its layer (loader batches
against steps) without paying for span records.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import time
from typing import Any, Callable

from stats import Span

# Span name -> the per-layer metric its self time adds to.
LAYER_OF = {
    "framework.data.wait": "framework.data.wait_s",
    "datasets.batch": "datasets.batch_s",
    "framework.forward": "framework.forward_s",
    "framework.step": "framework.backward_s",  # self time: step minus forward
    "framework.optim": "framework.optim_s",
    "comms.step": "comms.step_s",  # self time: sharded step minus the update
}
# A direct child of an epoch span with one of these names closes a step.
STEP_END = frozenset({"framework.optim", "comms.step"})


class Recorder:
    """In-memory span recorder; spans nest through a stack of open spans."""

    def __init__(self, timing: bool = True, clock: Callable[[], float] = time.perf_counter):
        self.timing = timing
        self.clock = clock
        self.spans: list[Span | None] = []
        self.counts: collections.Counter[str] = collections.Counter()
        self.run = 0  # run id stamped on new spans (the training seed)
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        self.counts[name] += 1
        if not self.timing:
            yield
            return
        index = len(self.spans)
        parent = self._open[-1] if self._open else -1
        self.spans.append(None)  # reserve the index so children point at it
        self._open.append(index)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def wrap(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def probed(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return probed

    def closed_spans(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("spans still open")
        return list(self.spans)

    def chrome_trace(self, metadata: dict[str, Any]) -> dict[str, Any]:
        """The spans as a Chrome ``trace_event`` document (``repro analyze`` reads it)."""
        spans = self.closed_spans()
        origin = min((s.start for s in spans), default=0.0)
        events = []
        for run in sorted({s.run for s in spans}):
            events.append({"ph": "M", "name": "process_name", "pid": run, "tid": 0,
                           "args": {"name": f"run {run}"}})
        for s in spans:
            events.append({
                "ph": "X", "name": s.name, "pid": s.run, "tid": 0,
                "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
                "args": {"parent": spans[s.parent].name if s.parent >= 0 else None},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def probed_iter(recorder: Recorder, name: str, iterable):
    """Yield from ``iterable``, each fetch a span; ``<name>.items`` counts the items."""
    items = iter(iterable)
    while True:
        with recorder.span(name):
            try:
                item = next(items)
            except StopIteration:
                return
        recorder.counts[f"{name}.items"] += 1
        yield item


class ProbedLoader:
    """A ``DataLoader`` whose batch fetches are ``framework.data.wait`` spans."""

    def __init__(self, loader, recorder: Recorder):
        self._loader = loader
        self._rec = recorder

    def __iter__(self):
        return probed_iter(self._rec, "framework.data.wait", self._loader)


def probe_benchmark(benchmark, recorder: Recorder, sessions: list) -> None:
    """Wrap a benchmark so its setup phases and every session it creates are probed.

    Each created session is appended to ``sessions`` so the caller can read
    its executor and engine counters after the run.
    """
    benchmark.prepare_data = recorder.wrap("datasets.prepare", benchmark.prepare_data)
    create = recorder.wrap("suite.create_session", benchmark.create_session)
    probed_data: set[int] = set()

    @functools.wraps(benchmark.create_session)
    def create_session(seed, hyperparameters):
        recorder.run = seed
        session = create(seed, hyperparameters)
        _probe_session(session, recorder, probed_data)
        sessions.append(session)
        return session

    benchmark.create_session = create_session


def _probe_session(session, recorder: Recorder, probed_data: set[int]) -> None:
    session.run_epoch = recorder.wrap("suite.epoch", session.run_epoch)
    session.evaluate = recorder.wrap("suite.evaluate", session.evaluate)
    session.optimizer.step = recorder.wrap("framework.optim", session.optimizer.step)
    if hasattr(session, "loader"):
        session.loader = ProbedLoader(session.loader, recorder)
    # The recommendation session keeps its ShardedDataParallel engine in a
    # private attribute; there is no public accessor for it.
    engine = getattr(session, "_engine", None)
    if engine is not None:
        recorder.counts[f"comms.backend.{engine.backend}"] += 1
        engine.step = recorder.wrap("comms.step", engine.step)
    else:
        executor = session.step_executor()
        inner_step = executor.step

        @functools.wraps(inner_step)
        def step(forward, *args, **kwargs):
            with recorder.span("framework.step"):
                return inner_step(recorder.wrap("framework.forward", forward),
                                  *args, **kwargs)

        executor.step = step
    # Batch builders live on the dataset object, which sessions of one
    # benchmark share: wrap each dataset once.
    for owner, methods in ((getattr(session, "corpus", None), ("encoder_inputs", "decoder_io")),
                           (getattr(session, "data", None), ("sample_training_batch",))):
        if owner is None or id(owner) in probed_data:
            continue
        for method in methods:
            if hasattr(owner, method):
                setattr(owner, method, recorder.wrap("datasets.batch", getattr(owner, method)))
        probed_data.add(id(owner))
