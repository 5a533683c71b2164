"""CampaignFold: one bounded, incremental tail-and-fold over a campaign.

Two properties are pinned here.  Memory: a fold holds the last ``tail``
events and a count, never the history, so what it retains does not grow
with the stream.  Equivalence: polling a campaign while its streams are
written in ragged chunks (one stream lagging, lines split mid-record)
ends in exactly the state a one-shot read of the finished files gives.
"""

import gc
import json
import shutil
import tracemalloc
import types

import pytest

from repro.core.timing import FakeClock
from repro.telemetry import Event, load_monitor_view, merge_event_streams
from repro.telemetry.monitor import CampaignFold

from .test_monitor import _run_campaign


def _write_synthetic_campaign(root, n_events, streams=8):
    """``n_events`` worker events spread over ``streams`` job streams."""
    events_dir = root / "events"
    events_dir.mkdir(parents=True)
    per_stream = n_events // streams
    assert per_stream * streams == n_events
    for pid in range(streams):
        lines = [Event("run_start", 1000.0, pid,
                       {"benchmark": "b", "seed": pid, "target": 0.8})]
        for i in range(1, per_stream):
            t = 1000.0 + i + pid / streams
            if i % 2:
                lines.append(Event("epoch", t, pid,
                                   {"epoch": i, "epoch_seconds": 1.0,
                                    "samples": 32.0}))
            else:
                lines.append(Event("eval", t, pid,
                                   {"epoch": i, "quality": i / per_stream}))
        (events_dir / f"b_seed{pid}.jsonl").write_text(
            "".join(event.to_json() + "\n" for event in lines))


def _events_reachable(*roots):
    """Count Event objects reachable from ``roots`` (not via code/types)."""
    opaque = (type, types.ModuleType, types.FunctionType,
              types.BuiltinFunctionType, types.MethodType)
    seen, stack, count = set(), list(roots), 0
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        if isinstance(obj, Event):
            count += 1
        else:
            stack.extend(gc.get_referents(obj))
    return count


class TestBoundedMemory:
    TAIL = 50
    N = 20_000

    def _fold(self, root):
        """Fold ``root`` once; return (fold, view, bytes still allocated)."""
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            fold = CampaignFold(root, tail=self.TAIL)
            fold.poll()
            view = fold.view(now_s=5000.0)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        return fold, view, retained

    def test_retained_state_does_not_grow_with_history(self, tmp_path):
        retained = {}
        for n in (self.N, 4 * self.N):
            root = tmp_path / f"n{n}"
            _write_synthetic_campaign(root, n)
            fold, view, retained[n] = self._fold(root)
            assert fold.event_count == view.event_count == n
            assert len(view.recent_events) == self.TAIL
            # The view shares the fold's tail events rather than copying.
            assert _events_reachable(fold, view) <= self.TAIL
            del fold, view
        # Four times the history, the same state: a full-history fold
        # would retain tens of MB more here.
        assert retained[4 * self.N] - retained[self.N] < 64 * 1024, retained


def _chunked_copy_schedule(src_dir, chunk, lag_stream, lag_steps):
    """Yield, per step, the ``(stream name, bytes)`` appends to make.

    Every stream gains ``chunk`` bytes per step — so most steps end
    mid-line — except ``lag_stream``, which starts ``lag_steps`` steps
    late and so delivers its events after newer ones from the others.
    """
    data = {p.name: p.read_bytes()
            for p in sorted((src_dir / "events").glob("*.jsonl"))}
    step = 0
    while True:
        appends = []
        for name, raw in data.items():
            offset = (step - (lag_steps if name == lag_stream else 0)) * chunk
            if 0 <= offset < len(raw):
                appends.append((name, raw[offset: offset + chunk]))
        if not appends and step > lag_steps:
            return
        yield appends
        step += 1


def _fold_while_writing(tmp_path, *, tail, lagging, lag_steps):
    """Copy the fixture campaign in chunks, polling one fold after each.

    Returns the fold, the copied directory, its merged timeline and an
    instant after the campaign ended.
    """
    clock = FakeClock(start=1000.0)
    src = tmp_path / "src"
    _run_campaign(src, clock)
    dest = tmp_path / "dest"
    (dest / "events").mkdir(parents=True)
    shutil.copytree(src / "heartbeats", dest / "heartbeats")
    # The journal starts with the plan only, then gains its records.
    journal = json.loads((src / "campaign_journal.json").read_text())
    (dest / "campaign_journal.json").write_text(
        json.dumps({"campaign": journal["campaign"], "jobs": {}}))

    fold = CampaignFold(dest, tail=tail)
    for appends in _chunked_copy_schedule(src, chunk=97, lag_stream=lagging,
                                          lag_steps=lag_steps):
        for name, piece in appends:
            with open(dest / "events" / name, "ab") as fh:
                fh.write(piece)
        fold.poll()
    shutil.copy(src / "campaign_journal.json", dest)
    # A writer caught mid-record: both readers must ignore the tail.
    with open(dest / "events" / lagging, "ab") as fh:
        fh.write(b'{"args": {}, "name": "epoch", "pid": 1, "ti')
    fold.poll()

    merged = merge_event_streams(sorted((dest / "events").glob("*.jsonl")))
    assert merged == merge_event_streams(
        sorted((src / "events").glob("*.jsonl")))
    assert fold.consumed_bytes == sum(
        p.stat().st_size for p in (src / "events").glob("*.jsonl"))
    return fold, dest, merged, clock.now() + 5.0


class TestIncrementalEqualsOneShot:
    @pytest.mark.parametrize("lag_steps", [10, 40])
    @pytest.mark.parametrize("tail", [6, 40, 100])
    def test_chunked_polling_matches_one_shot_read(self, tmp_path, tail,
                                                    lag_steps):
        fold, dest, merged, now = _fold_while_writing(
            tmp_path, tail=tail, lagging="fake_benchmark_seed1.jsonl",
            lag_steps=lag_steps)
        view = fold.view(now)
        once = load_monitor_view(dest, now_s=now, tail=tail)
        assert view.jobs == once.jobs
        assert [j.status for j in view.jobs] == ["reached"] * 3
        assert view.recent_events == once.recent_events == merged[-tail:]
        assert view.event_count == once.event_count == len(merged)

        reference = CampaignFold()
        for event in merged:
            reference.apply(event)
        assert fold.runs == reference.runs

    @pytest.mark.parametrize("tail", [6, 100])
    def test_lagging_campaign_stream_keeps_timeline_order(self, tmp_path,
                                                          tail):
        # campaign.jsonl and the seed-0 stream both carry pid 0, and their
        # job_finished / run_stop share an instant: the stream name must
        # break that tie as merge_event_streams does, whatever arrived
        # first.  (Run state is not compared: the reducer sees polls in
        # arrival order, so here job_finished lands after run_stop.)
        fold, dest, merged, now = _fold_while_writing(
            tmp_path, tail=tail, lagging="campaign.jsonl", lag_steps=40)
        once = load_monitor_view(dest, now_s=now, tail=tail)
        view = fold.view(now)
        assert view.jobs == once.jobs
        assert view.recent_events == once.recent_events == merged[-tail:]
        assert view.event_count == once.event_count == len(merged)
