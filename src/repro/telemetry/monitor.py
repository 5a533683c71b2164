"""The campaign monitor: a terminal view built purely from files.

``repro monitor <campaign-dir>`` must work on a *live* campaign run by
another process, and post-mortem on a dead one — so this module reads
only the durable observability surface:

- ``campaign_journal.json`` — terminal per-cell results and the planned
  cell list (:mod:`repro.exec.journal` writes it atomically);
- ``heartbeats/*.json`` — each job's latest liveness record
  (:class:`~repro.telemetry.events.HeartbeatWriter`);
- ``events/*.jsonl`` — the merged lifecycle/progress timeline
  (:class:`~repro.telemetry.events.EventCursor`, truncation-tolerant).

:class:`CampaignFold` reads all three incrementally, with memory bounded
by the number of runs plus a fixed event tail; it is the one fold the
monitor, the observability server and the alert rules share.

No sockets, no shared state, no imports of the execution engine: the
monitor cannot crash a campaign and works on a copied directory.  ``now``
is an explicit parameter everywhere, so views are deterministic under
:class:`repro.core.timing.FakeClock` in tests.

Job states: ``pending`` (planned, no record or heartbeat yet),
``running`` (fresh running heartbeat), ``stalled`` (running heartbeat
older than the stall threshold), plus the journal's terminal/attempted
states ``reached`` / ``quality_miss`` / ``fault`` / ``timeout``.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from pathlib import Path
from typing import Any, Iterable, Mapping

from .events import Event, EventCursor, Heartbeat, HeartbeatCache

__all__ = ["JobView", "MonitorView", "CampaignFold", "RunAlertState",
           "AlertContext", "DEFAULT_STALL_AFTER_S", "DEFAULT_RECENT_EVENTS",
           "load_monitor_view", "build_view", "campaign_dir_problem",
           "render_monitor_view", "render_job_table"]

DEFAULT_STALL_AFTER_S = 30.0

# Events the monitor screen lists under its job table (``--events``).
DEFAULT_RECENT_EVENTS = 6

# Rolling-throughput memory per run; bounds fold state on long runs.
_THROUGHPUT_KEEP = 32

# CampaignFold tail entries are ((time_s, pid, stream name), event): the
# name breaks same-instant ties the way merge_event_streams' path order does.
_TIMELINE_ORDER = itemgetter(0)

# Journal states that cannot change without another scheduling decision.
_SETTLED = frozenset({"reached", "quality_miss", "fault", "timeout"})


@dataclass(frozen=True)
class JobView:
    """One (benchmark, seed) cell as the monitor sees it."""

    benchmark: str
    seed: int
    status: str
    attempts: int = 0
    epoch: int = 0
    step: float = 0.0
    quality: float | None = None
    time_to_train_s: float | None = None
    heartbeat_age_s: float | None = None
    stalled: bool = False
    error: str | None = None

    @property
    def key(self) -> str:
        return f"{self.benchmark}/{self.seed}"

    @property
    def active(self) -> bool:
        return self.status in ("running", "stalled")


@dataclass
class MonitorView:
    """Everything one refresh of the monitor knows."""

    jobs: list[JobView] = field(default_factory=list)
    campaign: dict[str, Any] = field(default_factory=dict)
    recent_events: list[Event] = field(default_factory=list)
    event_count: int = 0
    now_s: float = 0.0
    stall_after_s: float = DEFAULT_STALL_AFTER_S

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for job in self.jobs:
            counts[job.status] = counts.get(job.status, 0) + 1
        return counts

    @property
    def settled(self) -> bool:
        """True when no cell can still make progress without rescheduling."""
        return all(not j.active and j.status != "pending" for j in self.jobs)

    @property
    def stalled_jobs(self) -> list[JobView]:
        return [j for j in self.jobs if j.stalled]

    @property
    def remaining(self) -> int:
        """Cells that can still make progress."""
        return sum(1 for j in self.jobs
                   if j.status in ("pending", "running", "stalled"))

    def completion(self) -> tuple[int, int, float | None]:
        """(settled, total, fraction) — fraction None for empty campaigns.

        All math is guarded: a campaign with zero planned cells, or one
        where no job has made progress yet, yields None fractions, never
        a ZeroDivisionError (the monitor must survive attaching at t=0).
        """
        total = len(self.jobs)
        settled = sum(1 for j in self.jobs if j.status in _SETTLED)
        return settled, total, (settled / total) if total else None

    def rate_cells_per_s(self) -> float | None:
        """Finished cells per second of mean TTT; None before progress."""
        durations = [j.time_to_train_s for j in self.jobs
                     if j.time_to_train_s is not None]
        if not durations:
            return None
        mean = sum(durations) / len(durations)
        return (1.0 / mean) if mean > 0 else None

    def eta_s(self) -> float | None:
        """Naive remaining-work estimate: mean finished-cell TTT x cells left.

        Deliberately simple (ignores parallelism and per-benchmark cost
        skew); None until at least one cell finished with a duration.
        """
        durations = [j.time_to_train_s for j in self.jobs
                     if j.time_to_train_s is not None]
        if not durations or self.remaining == 0:
            return None
        return self.remaining * (sum(durations) / len(durations))


def _read_journal(path: Path) -> dict[str, Any]:
    """Parse the journal JSON directly (no exec-engine import: files only)."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError):
        # A journal mid-replace can't be half-written (atomic rename), but
        # a foreign/corrupt file should degrade to "no journal", not crash
        # a monitor attached to a live run.
        return {}


def _beat_is_live(record: dict[str, Any] | None,
                  beat: Heartbeat | None) -> bool:
    """A running heartbeat not superseded by a reached record: in flight."""
    return (beat is not None and beat.status == "running"
            and (record is None or record["status"] != "reached"))


def build_view(
    *,
    job_records: dict[str, dict[str, Any]],
    planned_cells: list[tuple[str, int]] | None = None,
    heartbeats: dict[str, Heartbeat] | None = None,
    campaign: dict[str, Any] | None = None,
    recent_events: Iterable[Event] = (),
    event_count: int = 0,
    now_s: float,
    stall_after_s: float = DEFAULT_STALL_AFTER_S,
) -> MonitorView:
    """Fuse journal records, heartbeats, and the plan into one view.

    ``job_records`` maps ``benchmark/seed`` to journal-record dicts (the
    exact shape :class:`~repro.exec.journal.JobRecord` serializes to).
    This is the single state-derivation path — ``repro monitor`` feeds it
    from a :class:`CampaignFold` and ``repro campaign`` from the
    in-memory journal, so both render identical tables.
    """
    heartbeats = heartbeats or {}
    cells: dict[tuple[str, int], None] = {}
    for benchmark, seed in planned_cells or []:
        cells[(benchmark, int(seed))] = None
    for key in job_records:
        benchmark, _, seed = key.rpartition("/")
        cells[(benchmark, int(seed))] = None
    for beat in heartbeats.values():
        cells[(beat.benchmark, beat.seed)] = None

    jobs: list[JobView] = []
    for benchmark, seed in sorted(cells):
        key = f"{benchmark}/{seed}"
        record = job_records.get(key)
        beat = heartbeats.get(key)
        status = record["status"] if record else "pending"
        attempts = int(record["attempts"]) if record else 0
        quality = record.get("quality") if record else None
        ttt = record.get("time_to_train_s") if record else None
        error = record.get("error") if record else None
        epoch = int(record["epochs"]) if record and record.get("epochs") else 0
        step = 0.0
        age = None
        stalled = False
        if beat is not None:
            age = beat.age_s(now_s)
            if _beat_is_live(record, beat):
                stalled = age > stall_after_s
                status = "stalled" if stalled else "running"
                attempts = max(attempts, beat.attempt + 1)
                epoch = beat.epoch
                step = beat.step
                quality = beat.quality if beat.quality is not None else quality
        jobs.append(JobView(
            benchmark=benchmark, seed=seed, status=status, attempts=attempts,
            epoch=epoch, step=step, quality=quality,
            time_to_train_s=ttt, heartbeat_age_s=age, stalled=stalled,
            error=error,
        ))
    return MonitorView(jobs=jobs, campaign=dict(campaign or {}),
                       recent_events=list(recent_events),
                       event_count=event_count, now_s=now_s,
                       stall_after_s=stall_after_s)


def load_monitor_view(
    campaign_dir: str | Path,
    *,
    now_s: float | None = None,
    stall_after_s: float = DEFAULT_STALL_AFTER_S,
    tail: int = DEFAULT_RECENT_EVENTS,
) -> MonitorView:
    """Build a view from a campaign directory's files: a one-shot fold."""
    fold = CampaignFold(campaign_dir, tail=tail, stall_after_s=stall_after_s)
    fold.poll()
    return fold.view(now_s)


def campaign_dir_problem(campaign_dir: str | Path) -> str | None:
    """Human-readable reason this directory cannot be monitored, or None.

    ``repro monitor`` / ``repro alerts`` pointed at a typo'd or not-yet-
    provisioned path should say so in one line and exit nonzero, not
    unwind a traceback.  A directory counts as a campaign once any of its
    observability surfaces exists (journal, events, heartbeats).
    """
    campaign_dir = Path(campaign_dir)
    if not campaign_dir.exists():
        return f"{campaign_dir}: no such campaign directory"
    if not campaign_dir.is_dir():
        return f"{campaign_dir}: not a directory"
    has_journal = (campaign_dir / "campaign_journal.json").is_file()
    has_events = any((campaign_dir / "events").glob("*.jsonl")) \
        if (campaign_dir / "events").is_dir() else False
    has_beats = any((campaign_dir / "heartbeats").glob("*.json")) \
        if (campaign_dir / "heartbeats").is_dir() else False
    if not (has_journal or has_events or has_beats):
        return (f"{campaign_dir}: not a campaign directory (no "
                f"campaign_journal.json, events/, or heartbeats/)")
    return None


@dataclass
class RunAlertState:
    """Everything the alert rules need to know about one (benchmark, seed) run."""

    key: str
    active: bool = False
    status: str = "pending"
    last_progress_s: float = 0.0
    target: float | None = None
    quality: float | None = None
    evals: int = 0
    throughput: list[float] = field(default_factory=list)
    arena_hit_rate: float | None = None


@dataclass(frozen=True)
class AlertContext:
    """A point-in-time evaluation input: the fold state at ``now_s``."""

    now_s: float
    runs: Mapping[str, RunAlertState]


class CampaignFold:
    """The one incremental tail-and-fold over a campaign directory.

    ``repro monitor`` (and ``--watch``), ``serve-metrics`` and its alert
    engine read campaign state through this class.  :meth:`poll` reads
    only what the files gained: an
    :class:`~repro.telemetry.events.EventCursor` per stream and
    stat-signature-cached journal and heartbeat parses, so polling a
    quiet campaign costs ``stat`` calls.  Each new event goes once
    through :meth:`apply`, the per-run alert reducer; each poll's batch
    in timeline order, batches in arrival order.

    Memory is O(runs + ``tail``), not O(history): the fold keeps a count
    and the last ``tail`` events, equal to
    ``merge_event_streams(...)[-tail:]`` even when a slow stream delivers
    older events late.  Without a ``campaign_dir`` it is the bare reducer
    that :func:`~repro.telemetry.alerts.replay_alerts` feeds.
    """

    def __init__(self, campaign_dir: str | Path | None = None, *,
                 tail: int = DEFAULT_RECENT_EVENTS,
                 stall_after_s: float = DEFAULT_STALL_AFTER_S):
        self.campaign_dir = None if campaign_dir is None else Path(campaign_dir)
        self.stall_after_s = float(stall_after_s)
        self.cursors: dict[Path, EventCursor] = {}
        self.event_count = 0
        self.runs: dict[str, RunAlertState] = {}
        self._key_by_pid: dict[int, str] = {}
        self._tail: deque[tuple[tuple[float, int, str], Event]] = \
            deque(maxlen=tail)
        self._journal_cache = HeartbeatCache(_read_journal)
        self._beat_cache = HeartbeatCache()
        self._journal: dict[str, Any] = {}
        self._beats: dict[str, Heartbeat] = {}

    @property
    def consumed_bytes(self) -> int:
        """Total event-stream bytes ever handed to the parser."""
        return sum(c.consumed_bytes for c in self.cursors.values())

    def poll(self) -> list[Event]:
        """Absorb what the files gained; return the new events, sorted."""
        if self.campaign_dir is None:
            return []
        events_dir = self.campaign_dir / "events"
        if events_dir.is_dir():
            for path in events_dir.glob("*.jsonl"):
                if path not in self.cursors:
                    self.cursors[path] = EventCursor(path)
        fresh = sorted((((event.time_s, event.pid, path.name), event)
                        for path in sorted(self.cursors)
                        for event in self.cursors[path].poll()),
                       key=_TIMELINE_ORDER)
        if fresh:
            # A slow stream may deliver events older than the tail's end.
            # Sorting two sorted runs is a linear merge, and stable, so one
            # stream's same-instant lines keep their file order.
            self._tail = deque(sorted([*self._tail, *fresh],
                                      key=_TIMELINE_ORDER),
                               maxlen=self._tail.maxlen)
        self.event_count += len(fresh)
        events = [event for _, event in fresh]
        for event in events:
            self.apply(event)

        self._journal = self._journal_cache.read(
            self.campaign_dir / "campaign_journal.json") or {}
        self._beats = {}
        hb_dir = self.campaign_dir / "heartbeats"
        if hb_dir.is_dir():
            for path in sorted(hb_dir.glob("*.json")):
                beat = self._beat_cache.read(path)
                if beat is not None:
                    self._beats[beat.key] = beat
        return events

    def view(self, now_s: float | None = None) -> MonitorView:
        """The monitor view of the last poll at ``now_s`` (default: now)."""
        now_s = time.time() if now_s is None else float(now_s)
        campaign = self._journal.get("campaign", {})
        return build_view(job_records=self._journal.get("jobs", {}),
                          planned_cells=campaign.get("planned_cells", []),
                          heartbeats=self._beats, campaign=campaign,
                          recent_events=[event for _, event in self._tail],
                          event_count=self.event_count, now_s=now_s,
                          stall_after_s=self.stall_after_s)

    def alert_context(self, now_s: float) -> AlertContext:
        """Run state for the alert rules at ``now_s``.

        Folds the last poll's journal records and heartbeats into the
        event-derived state (replay has neither).  A fresh heartbeat
        advances a run's progress instant as the monitor's stall
        detection sees it.
        """
        now_s = float(now_s)
        records = self._journal.get("jobs", {})
        for key in set(records) | set(self._beats):
            state = self._run(key)
            record, beat = records.get(key), self._beats.get(key)
            live = _beat_is_live(record, beat)
            if live:
                state.active = True
            elif record is not None:
                state.active = False
                state.status = record["status"]
            quality = record.get("quality") if record else None
            if beat is not None:
                state.last_progress_s = max(state.last_progress_s,
                                            now_s - beat.age_s(now_s))
                if live and beat.quality is not None:
                    quality = beat.quality
            if quality is not None and state.quality is None:
                state.quality = quality
        return AlertContext(now_s=now_s, runs=self.runs)

    # -- the per-run reducer -------------------------------------------------
    def _run(self, key: str) -> RunAlertState:
        state = self.runs.get(key)
        if state is None:
            state = self.runs[key] = RunAlertState(key=key)
        return state

    def _resolve(self, event: Event) -> RunAlertState | None:
        key = self._key_by_pid.get(event.pid)
        return None if key is None else self._run(key)

    def apply(self, event: Event) -> None:
        """Fold one event into its run's state.

        Worker events carry no benchmark/seed in their args, only a
        ``pid`` (the job ordinal) — ``run_start``/``job_start`` establish
        the pid→run mapping the progress events resolve through.
        """
        args = event.args
        name = event.name
        if name in ("run_start", "job_start"):
            if "benchmark" not in args or "seed" not in args:
                return
            key = f"{args['benchmark']}/{args['seed']}"
            self._key_by_pid[event.pid] = key
            state = self._run(key)
            if name == "run_start":
                # A (re)started attempt resets the run-scoped signals.
                state.active = True
                state.status = "running"
                state.quality = None
                state.evals = 0
                state.throughput = []
                state.arena_hit_rate = None
                if args.get("target") is not None:
                    state.target = float(args["target"])
            state.last_progress_s = max(state.last_progress_s, event.time_s)
        elif name == "epoch":
            state = self._resolve(event)
            if state is None:
                return
            state.last_progress_s = max(state.last_progress_s, event.time_s)
            seconds = args.get("epoch_seconds")
            samples = args.get("samples")
            if seconds and samples:
                state.throughput.append(float(samples) / float(seconds))
                del state.throughput[:-_THROUGHPUT_KEEP]
        elif name == "eval":
            state = self._resolve(event)
            if state is None:
                return
            state.last_progress_s = max(state.last_progress_s, event.time_s)
            if "quality" in args:
                state.quality = float(args["quality"])
                state.evals += 1
        elif name == "run_stop":
            state = self._resolve(event)
            if state is None and "benchmark" in args and "seed" in args:
                state = self._run(f"{args['benchmark']}/{args['seed']}")
            if state is None:
                return
            state.active = False
            state.status = str(args.get("status", "stopped"))
            if args.get("quality") is not None:
                state.quality = float(args["quality"])
        elif name == "job_finished":
            # Campaign-stream confirmation; authoritative terminal status.
            if "benchmark" in args and "seed" in args:
                state = self._run(f"{args['benchmark']}/{args['seed']}")
                state.active = bool(args.get("will_retry", False))
                state.status = str(args.get("status", state.status))
        elif name == "arena_stats":
            state = self._resolve(event)
            if state is not None and "hit_rate" in args:
                state.arena_hit_rate = float(args["hit_rate"])


def _fmt(value: float | None, spec: str, empty: str = "-") -> str:
    return empty if value is None else format(value, spec)


def render_job_table(jobs: list[JobView]) -> str:
    """One row per cell — the table ``monitor`` and ``campaign`` share."""
    header = (
        f"{'Job':<32}{'Status':<14}{'Att':>4}{'Epoch':>6}{'Step':>8}"
        f"{'Quality':>9}{'TTT (s)':>9}  Heartbeat"
    )
    lines = [header, "-" * len(header)]
    for job in jobs:
        status = job.status.upper() if job.stalled else job.status
        beat = ("-" if job.heartbeat_age_s is None
                else f"{job.heartbeat_age_s:.1f}s ago")
        step = "-" if not job.step else f"{job.step:g}"
        lines.append(
            f"{job.key:<32}{status:<14}{job.attempts:>4}{job.epoch:>6}"
            f"{step:>8}{_fmt(job.quality, '.4f'):>9}"
            f"{_fmt(job.time_to_train_s, '.3f'):>9}  {beat}"
        )
    return "\n".join(lines)


def render_monitor_view(view: MonitorView, *,
                        recent_events: int = DEFAULT_RECENT_EVENTS) -> str:
    """The full refreshable screen: summary line, job table, event tail."""
    counts = view.counts()
    summary = " ".join(f"{name}={counts[name]}" for name in
                       ("reached", "running", "stalled", "pending",
                        "quality_miss", "fault", "timeout") if name in counts)
    benchmarks = view.campaign.get("benchmarks")
    head = (f"campaign: {len(benchmarks)} benchmark(s), " if benchmarks
            else "campaign: ") + f"{len(view.jobs)} cell(s)  [{summary or 'empty'}]"
    lines = [head]
    settled, total, fraction = view.completion()
    if total:
        pct = "--" if fraction is None else f"{100.0 * fraction:.0f}%"
        rate = view.rate_cells_per_s()
        rate_txt = "--" if rate is None else f"{rate:.3g} cells/s"
        lines.append(f"  progress {settled}/{total} ({pct}), rate {rate_txt}")
    if view.remaining:
        eta = view.eta_s()
        # Before any cell has finished there is no basis for an estimate;
        # render "--" rather than guessing (or crashing on empty math).
        lines.append(f"  eta ~{eta:.1f}s (mean finished-cell TTT x cells left)"
                     if eta is not None else "  eta ~--s (no finished cell yet)")
    if view.stalled_jobs:
        lines.append(
            f"  STALL: {len(view.stalled_jobs)} job(s) without a heartbeat "
            f"for > {view.stall_after_s:.0f}s"
        )
    lines.append("")
    lines.append(render_job_table(view.jobs))
    if view.recent_events and recent_events > 0:
        shown = view.recent_events[-recent_events:]
        lines.append("")
        lines.append(f"recent events (last {len(shown)} "
                     f"of {view.event_count}):")
        for event in shown:
            args = " ".join(f"{k}={event.args[k]}" for k in sorted(event.args))
            lines.append(f"  t={event.time_s:.3f} pid={event.pid} "
                         f"{event.name} {args}".rstrip())
    return "\n".join(lines)
