"""The three workloads, each driven through the repo's public API.

``resnet_fused`` and ``transformer_compiled`` are single training runs
through :meth:`BenchmarkRunner.run`; ``ncf_campaign`` is a ten-seed
campaign through :func:`run_campaign` with the sequential executor and an
on-disk journal, whose traced run adds the same campaign at
``dp_workers=2`` for the comms layer.  A *unit* is one of these: the thing
the measurement loop repeats.  The training seeds belong to the workload (see README.md for why
they are not drawn from ``--seed``).
"""

from __future__ import annotations

import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.core.mllog import MLLogger
from repro.core.results import score_runs
from repro.core.runner import BenchmarkRunner, RunFailure
from repro.exec import CampaignSpec, SequentialExecutor, run_campaign
from repro.framework.config import kernel_mode
from repro.framework.workspace import arena
from repro.suite import create_benchmark
from repro.telemetry import Telemetry

from probes import Recorder, probe_benchmark, probed_iter
from stats import median, olympic_mean, tracked_throughput

clock = time.perf_counter


@dataclass
class Unit:
    """What one repetition of a workload measured."""

    time_to_train_s: float  # a campaign's is its recomputed olympic mean
    epochs: int  # summed over the unit's training runs
    samples: float
    train_seconds: float  # inside training epochs, eval excluded
    wall_s: float
    attempted: int
    failed: int
    run_ttt: dict[int, float] = field(default_factory=dict)  # training seed -> time
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    counters: dict[str, Any] = field(default_factory=dict)

    @property
    def samples_per_s(self) -> float:
        return self.samples / self.train_seconds if self.train_seconds else math.nan


def measure_setup(benchmark: str, seed: int, overrides, recorder: Recorder) -> float:
    """Seconds for ``prepare_data`` plus ``create_session`` on a fresh benchmark."""
    bench = create_benchmark(benchmark)
    probe_benchmark(bench, recorder, [])
    hp = bench.spec.resolve_hyperparameters(overrides)
    start = clock()
    bench.prepare_data()
    session = bench.create_session(seed, hp)
    elapsed = clock() - start
    session.close()
    return elapsed


class SingleRun:
    """One suite benchmark trained to target by ``BenchmarkRunner.run``."""

    def __init__(self, benchmark: str, seed: int):
        self.benchmark = benchmark
        self.seed = seed

    def setup(self, recorder: Recorder) -> float:
        return measure_setup(self.benchmark, self.seed, None, recorder)

    def run(self, recorder: Recorder, workdir: Path) -> Unit:
        bench = create_benchmark(self.benchmark)
        sessions: list = []
        probe_benchmark(bench, recorder, sessions)
        runner = BenchmarkRunner()
        telemetry = Telemetry(clock=runner.clock, process_name=self.benchmark)
        ws = arena()
        hits0, misses0 = ws.hits, ws.misses
        start = clock()
        try:
            result = runner.run(bench, self.seed, telemetry=telemetry)
        except RunFailure as failure:
            wall = clock() - start
            return Unit(math.nan, 0, 0.0, math.nan, wall, 1, 1,
                        checks=[("run completed", False, failure.summary())])
        wall = clock() - start
        samples, seconds = tracked_throughput(MLLogger.from_lines(result.log_lines).events)
        unit = Unit(result.time_to_train_s, result.epochs, samples, seconds, wall,
                    attempted=1, failed=0 if result.reached_target else 1,
                    run_ttt={self.seed: result.time_to_train_s})
        unit.checks.append(("run reached its quality target", result.reached_target,
                             f"quality {result.quality:.4f} after {result.epochs} epochs"))
        executor = sessions[0].step_executor()
        unit.counters = {
            "kernel_mode": kernel_mode(),
            "steps": recorder.counts["framework.step"],
            "loader_batches": recorder.counts["framework.data.wait.items"],
            "arena_hits": ws.hits - hits0,
            "arena_takes": ws.hits - hits0 + ws.misses - misses0,
            "arena_pooled_bytes": ws.pooled_bytes,
            "compile": executor.stats(),
        }
        unit.checks.extend(self.layer_checks(unit.counters))
        return unit

    def layer_checks(self, c: dict) -> list[tuple[str, bool, str]]:
        """Checks that the run exercised the layer the workload was chosen for."""
        raise NotImplementedError

    def extra_layer_metrics(self, untraced: Unit, traced: Unit, job_wall_s: float,
                            workdir: Path):
        """A single run has no comms or exec layer: no extra units, metrics or spans."""
        return [], {}, {}


class ResnetFused(SingleRun):
    def __init__(self):
        super().__init__("image_classification", seed=0)

    def layer_checks(self, c):
        return [("DataLoader batches equal training steps",
                 c["loader_batches"] == c["steps"] > 0,
                 f"{c['loader_batches']} batches, {c['steps']} steps"),
                ("workspace arena hits > 0", c["arena_hits"] > 0,
                 f"{c['arena_hits']} hits of {c['arena_takes']} takes")]


class TransformerCompiled(SingleRun):
    def __init__(self):
        super().__init__("translation_transformer", seed=0)

    def layer_checks(self, c):
        return [("kernel mode is compiled", c["kernel_mode"] == "compiled", c["kernel_mode"]),
                ("compiled plan hits > 0", c["compile"]["hits"] > 0,
                 f"{c['compile']['hits']} hits over {c['steps']} steps")]


class ProbedExecutor:
    """A ``SequentialExecutor`` whose job attempts are spans named ``exec.job``."""

    def __init__(self, inner: SequentialExecutor, recorder: Recorder):
        self._inner = inner
        self._rec = recorder
        self.kind = inner.kind

    def run(self, jobs):
        return probed_iter(self._rec, "exec.job", self._inner.run(jobs))


class NcfCampaign:
    """A ten-seed recommendation campaign, ``dp_workers`` processes per run."""

    benchmark = "recommendation"

    def __init__(self, dp_workers: int = 1):
        self.dp_workers = dp_workers
        self.overrides = {"dp_workers": dp_workers}

    def setup(self, recorder: Recorder) -> float:
        return measure_setup(self.benchmark, 0, self.overrides, recorder)

    def run(self, recorder: Recorder, workdir: Path) -> Unit:
        def factory(name):
            bench = create_benchmark(name)
            probe_benchmark(bench, recorder, [])
            return bench

        executor = ProbedExecutor(SequentialExecutor(benchmark_factory=factory), recorder)
        journal = Path(tempfile.mkdtemp(prefix="campaign-", dir=workdir))
        try:
            start = clock()
            outcome = run_campaign(
                CampaignSpec((self.benchmark,), seeds=10, overrides=self.overrides),
                executor=executor, journal_dir=journal)
            wall = clock() - start
            event_bytes = sum(p.stat().st_size for p in (journal / "events").rglob("*")
                              if p.is_file())
        finally:
            shutil.rmtree(journal, ignore_errors=True)

        summary = outcome.summary
        runs = outcome.runs_by_benchmark[self.benchmark]
        samples = seconds = 0.0
        for run in runs:
            s, t = tracked_throughput(MLLogger.from_lines(run.log_lines).events)
            samples += s
            seconds += t
        times = [run.time_to_train_s for run in runs]
        unit = Unit(olympic_mean(times) if len(times) >= 3 else math.nan,
                    sum(run.epochs for run in runs), samples, seconds, wall,
                    attempted=summary.executed,
                    failed=summary.executed - summary.reached,
                    run_ttt={run.seed: run.time_to_train_s for run in runs})
        unit.checks.append(("every campaign run reached its target", outcome.ok,
                            f"{summary.reached} of {summary.total_cells} cells reached; "
                            f"{summary.faults} faults, {summary.timeouts} timeouts, "
                            f"{summary.quality_misses} misses, {summary.retries} retries"))
        score = outcome.scores.get(self.benchmark)
        official = score_runs(runs).time_to_train_s if outcome.ok else math.nan
        unit.checks.append((
            "recomputed olympic mean equals score_runs",
            score is not None and math.isclose(unit.time_to_train_s, official, rel_tol=1e-12)
            and official == score.time_to_train_s,
            f"recomputed {unit.time_to_train_s!r}, score_runs {official!r}"))

        def metric(run, name):
            return (run.telemetry.metrics.get(name, {}).get("value", 0.0)
                    if run.telemetry else 0.0)

        backends = sorted(k.split(".")[-1] for k in recorder.counts
                          if k.startswith("comms.backend."))
        allreduce = sum(metric(run, "allreduce_bytes") for run in runs)
        unit.counters = {
            "backends": backends,
            "allreduce_bytes": allreduce,
            "overlap": [metric(run, "comms_overlap_fraction") for run in runs],
            "event_bytes": event_bytes,
            "campaign_wall_s": wall,
        }
        unit.checks.append(("journal holds every cell and event streams were written",
                            len(outcome.journal.jobs) == summary.total_cells and event_bytes > 0,
                            f"{len(outcome.journal.jobs)} journal records, {event_bytes} event bytes"))
        if self.dp_workers > 1:
            unit.checks.append(("comms backend is process", backends == ["process"],
                                f"backends {backends}"))
            unit.checks.append(("allreduce bytes > 0", allreduce > 0, f"{allreduce:.0f} B"))
        return unit


    def extra_layer_metrics(self, untraced: Unit, traced: Unit, job_wall_s: float,
                            workdir: Path):
        """Exec metrics of the traced campaign, and comms metrics of a
        ``dp_workers=2`` campaign on the same seeds, untraced for the
        scaling figure and traced for the sharded-step spans.

        ``job_wall_s`` is the summed wall of the traced campaign's jobs.
        """
        sharded = NcfCampaign(dp_workers=2)
        plain = sharded.run(Recorder(timing=False), workdir)
        recorder = Recorder()
        probed = sharded.run(recorder, workdir)
        same_seeds = plain.run_ttt.keys() == untraced.run_ttt.keys()
        plain.checks.append(("dp_workers=2 campaign ran the same seeds", same_seeds,
                             f"{sorted(plain.run_ttt)} vs {sorted(untraced.run_ttt)}"))
        c = probed.counters
        return [plain, probed], {
            "comms.allreduce_bytes": c["allreduce_bytes"],
            "comms.overlap_fraction": median(c["overlap"]),
            # The plain single-worker time over the sharded time, summed.
            "comms.scaling_speedup": (math.fsum(untraced.run_ttt.values())
                                      / math.fsum(plain.run_ttt.values())),
            "exec.overhead_s": traced.counters["campaign_wall_s"] - job_wall_s,
            "exec.event_bytes": traced.counters["event_bytes"],
        }, {"dp2": recorder}


WORKLOADS = {
    "resnet_fused": ResnetFused,
    "transformer_compiled": TransformerCompiled,
    "ncf_campaign": NcfCampaign,
}
