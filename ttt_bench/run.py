"""Time-to-train benchmark: three suite workloads, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 ttt_bench/run.py --workload resnet_fused --seed 0 --seconds 35 --trace 0

Workloads: ``resnet_fused``, ``transformer_compiled``, ``ncf_campaign``
(see README.md).  With ``--trace 0`` the command sets the workload up
several times, then repeats its unit (a training run, or a ten-seed
campaign) back to back, at least twice and until another unit would overrun
``--seconds``, and reports the end-to-end metrics.  With ``--trace 1`` it
runs a warm-up unit, one untraced and one traced unit, reports the
per-layer metrics from the traced one and writes its spans as a Chrome
trace under ``.ttt_bench/traces/``.

Every line but the last is for people.  The last line is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 1 when an output check fails, and 2 when the repository's
``src/`` tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import sys
import time
from pathlib import Path

from stats import epoch_breakdown, median, signed_overhead_pct, tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".ttt_bench"

# The kernel mode is read from the environment when repro is imported, and
# BLAS sizes its thread pool when NumPy loads, so both are set before either.
KERNEL_MODES = {
    "resnet_fused": "fused",
    "transformer_compiled": "compiled",
    "ncf_campaign": "fused",
}
PINNED_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "REPRO_PROFILE": "off",
}
SETUP_REPEATS = 9
# The first training run in a process is slower than later ones (it faults
# in the memory later runs reuse; about 8% on resnet_fused), so every timed
# run measures at least two units and the median always mixes the two kinds.
MIN_UNITS = 2
MAX_UNITS = 100

END_TO_END = {
    "time_to_train_s": "s",
    "train_samples_per_s": "1/s",
    "epochs_to_target": "count",
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "datasets.prepare_s": "s",
    "suite.create_session_s": "s",
    "framework.data.wait_s": "s",
    "datasets.batch_s": "s",
    "framework.forward_s": "s",
    "framework.backward_s": "s",
    "framework.optim_s": "s",
    "suite.step_other_s": "s",
    "suite.step_ms.p50": "ms",
    "suite.step_ms.p90": "ms",
    "suite.first_epoch_s": "s",
    "suite.evaluate_s": "s",
    "core.runner_other_s": "s",
    "framework.arena_hit_rate": "ratio",
    "framework.arena_pooled_mb": "MB",
    "framework.compile_hit_rate": "ratio",
    "framework.compile_fallbacks": "count",
    "framework.compile_plans": "count",
    "comms.step_s": "s",
    "comms.allreduce_bytes": "B",
    "comms.overlap_fraction": "ratio",
    "comms.scaling_speedup": "ratio",
    "exec.overhead_s": "s",
    "exec.event_bytes": "B",
    "telemetry.trace_overhead_pct": "%",
}
MB = 1 << 20

clock = time.perf_counter


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(KERNEL_MODES))
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded in the host fingerprint; the training seeds "
                             "are part of each workload (README.md)")
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"ttt_bench: {SRC / 'repro'} not found; run from the root of a "
              "checkout of the repository", file=sys.stderr)
        return 2
    os.environ.update(PINNED_ENV)
    os.environ["REPRO_KERNEL_MODE"] = KERNEL_MODES[args.workload]
    sys.path.insert(0, str(SRC))
    import workloads  # first import of NumPy and repro, under the pinned environment

    workload = workloads.WORKLOADS[args.workload]()
    WORKDIR.mkdir(exist_ok=True)
    fingerprint = host_fingerprint(args)
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    checks = [("BLAS runs one thread", fingerprint["blas_threads"] in (1, None),
               f"blas_threads={fingerprint['blas_threads']}")]
    try:
        if args.trace:
            metrics, units, raw = traced_run(workload, f"{args.workload}-seed{args.seed}",
                                             checks)
        else:
            metrics, units, raw = timed_run(workload, args.seconds, checks)
    finally:
        stop_resource_tracker()
    return report(args, fingerprint, metrics, units, raw, checks)


def stop_resource_tracker() -> None:
    """Stop, and wait for, the helper process that shared-memory segments start.

    The comms engine's segments (the campaign's ``dp_workers=2`` pass) start
    ``multiprocessing``'s resource tracker, which would otherwise outlive
    this process for a moment; the benchmark waits for every process it
    started.  A no-op when no tracker is running.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def host_fingerprint(args) -> dict:
    import numpy as np
    from repro.framework.config import kernel_mode

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "platform": platform.platform(),
        "kernel_mode": kernel_mode(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pinned_env": {k: os.environ[k] for k in PINNED_ENV},
    }


def blas_threads() -> int | None:
    """The thread count OpenBLAS reports, or None when NumPy uses another BLAS."""
    import ctypes

    import numpy.linalg._umath_linalg as linalg

    lib = ctypes.CDLL(linalg.__file__)  # symbols of its BLAS resolve through it
    for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                 "openblas_get_num_threads"):
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.argtypes = []
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def timed_run(workload, seconds: float, checks: list):
    """End-to-end metrics: medians over setups and over back-to-back units."""
    from probes import Recorder

    setups = [workload.setup(Recorder(timing=False)) for _ in range(SETUP_REPEATS)]
    units = []
    deadline = clock() + seconds
    while len(units) < MAX_UNITS:
        units.append(workload.run(Recorder(timing=False), WORKDIR))
        if len(units) == MIN_UNITS:
            # Read here, not at exit: this process's peak creeps up with each
            # campaign unit, and the unit count depends on the host's speed.
            rss_mb = peak_rss_mb()
        if len(units) >= MIN_UNITS and clock() + max(u.wall_s for u in units) > deadline:
            break
    for unit in units:
        checks.extend(unit.checks)
    epochs = {u.epochs for u in units}
    checks.append(("epochs repeat exactly at a fixed seed", len(epochs) == 1,
                   f"epochs per unit {sorted(epochs)}"))
    metrics = {
        "time_to_train_s": median([u.time_to_train_s for u in units]),
        "train_samples_per_s": median([u.samples_per_s for u in units]),
        "epochs_to_target": units[0].epochs,
        "setup_s": median(setups),
        "wall_s": median([u.wall_s for u in units]),
        "peak_rss_mb": rss_mb,
    }
    raw = {
        "setup_s": setups,
        "time_to_train_s": [u.time_to_train_s for u in units],
        "train_samples_per_s": [u.samples_per_s for u in units],
        "epochs_to_target": [u.epochs for u in units],
        "wall_s": [u.wall_s for u in units],
        "run_time_to_train_s": [u.run_ttt for u in units],
    }
    return metrics, units, raw


def traced_run(workload, trace_name: str, checks: list):
    """Per-layer metrics from one traced unit, against one untraced unit.

    Both run after an untimed warm-up unit, so the signed overhead compares
    two warm runs rather than a cold one with a warm one.
    """
    from probes import Recorder

    setup_rec = Recorder()
    for _ in range(SETUP_REPEATS):
        workload.setup(setup_rec)
    workload.run(Recorder(timing=False), WORKDIR)  # warm-up
    untraced = workload.run(Recorder(timing=False), WORKDIR)
    rec = Recorder()
    traced = workload.run(rec, WORKDIR)
    spans = rec.closed_spans()

    def total(name, spans=spans):
        return math.fsum(s.duration for s in spans if s.name == name)

    extra_units, extra_metrics, extra_recorders = workload.extra_layer_metrics(
        untraced, traced, total("exec.job"), WORKDIR)
    units = [untraced, traced, *extra_units]
    for unit in units:
        checks.extend(unit.checks)
    recorders = {trace_name: rec}
    recorders.update({f"{trace_name}-{label}": r for label, r in extra_recorders.items()})
    breakdowns = [layer_breakdown(name, r, checks) for name, r in recorders.items()]
    steps = breakdowns[0]
    try:
        p90 = tail_percentile(steps.walls, 90) * 1e3
    except ValueError as exc:
        checks.append(("step_ms.p90 has ten samples beyond it", False, str(exc)))
        p90 = math.nan

    epoch_s, evaluate_s = total("suite.epoch"), total("suite.evaluate")
    c = traced.counters
    compile_stats = c.get("compile", {})
    takes = c.get("arena_takes", 0)
    setup_spans = setup_rec.closed_spans()
    metrics = dict.fromkeys(PER_LAYER, 0.0)
    metrics.update(steps.layers)
    metrics.update({
        "datasets.prepare_s": median([s.duration for s in setup_spans
                                      if s.name == "datasets.prepare"]),
        "suite.create_session_s": median([s.duration for s in setup_spans
                                          if s.name == "suite.create_session"]),
        "suite.step_other_s": steps.other,
        "suite.step_ms.p50": median(steps.walls) * 1e3 if steps.walls else math.nan,
        "suite.step_ms.p90": p90,
        "suite.first_epoch_s": median(list(steps.first_epoch.values())),
        "suite.evaluate_s": evaluate_s,
        "core.runner_other_s": math.fsum(traced.run_ttt.values()) - epoch_s - evaluate_s,
        "framework.arena_hit_rate": c.get("arena_hits", 0) / takes if takes else 0.0,
        "framework.arena_pooled_mb": c.get("arena_pooled_bytes", 0) / MB,
        "framework.compile_hit_rate": compile_stats.get("hit_rate", 0.0),
        "framework.compile_fallbacks": compile_stats.get("fallbacks", 0),
        "framework.compile_plans": compile_stats.get("plans", 0),
        # Sharded steps only run in the campaign's dp_workers=2 pass.
        "comms.step_s": math.fsum(b.layers["comms.step_s"] for b in breakdowns),
        "telemetry.trace_overhead_pct": signed_overhead_pct(traced.wall_s, untraced.wall_s),
    })
    metrics.update(extra_metrics)
    raw = {"untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
           "step_walls_s": steps.walls,
           "traces": [str((WORKDIR / "traces" / f"{n}.json").relative_to(ROOT))
                      for n in recorders]}
    return metrics, units, raw


def layer_breakdown(name: str, recorder, checks: list):
    """Split a traced unit's steps over layers, check the split, write the trace."""
    from probes import LAYER_OF, STEP_END
    from repro.telemetry import analyze_trace

    spans = recorder.closed_spans()
    steps = epoch_breakdown(spans, "suite.epoch", STEP_END, LAYER_OF)
    checks.append((f"{name}: layer times + step_other_s sum to each step's wall",
                   bool(steps.walls) and steps.residual <= 1e-9 and not steps.straddling,
                   f"{len(steps.walls)} steps, max residual {steps.residual:.3g} s, "
                   f"straddling spans {sorted(set(steps.straddling))}"))
    trace_dir = WORKDIR / "traces"
    trace_dir.mkdir(exist_ok=True)
    path = trace_dir / f"{name}.json"
    path.write_text(json.dumps(recorder.chrome_trace({"trace": name})))
    analysis = analyze_trace(json.loads(path.read_text()))
    checks.append((f"{name}: trace loads in repro analyze", analysis.span_count == len(spans),
                   f"{analysis.span_count} of {len(spans)} spans from {path.relative_to(ROOT)}"))
    return steps


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) * 1024 / MB  # ru_maxrss is in KiB on Linux


def report(args, fingerprint: dict, metrics: dict, units: list, raw: dict,
           checks: list) -> int:
    names = PER_LAYER if args.trace else END_TO_END
    attempted = sum(u.attempted for u in units)
    failed = sum(u.failed for u in units)
    correct = all(ok for _, ok, _ in checks)
    for name, ok, detail in checks:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}: {detail}")
    print(f"runs_failed = {failed / attempted!r} share "
          f"({failed} of {attempted} training runs attempted)")
    for name, unit in names.items():
        samples = raw.get(name)
        detail = f"  (median of {samples})" if isinstance(samples, list) else ""
        print(f"{name} = {metrics[name]!r} {unit}{detail}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": _finite(metrics[name]), "unit": unit}
                    for name, unit in names.items()},
    }
    results_dir = WORKDIR / "results"
    results_dir.mkdir(exist_ok=True)
    record = {"fingerprint": fingerprint, "result": result, "raw": raw,
              "checks": [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]}
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if correct else 1


def _finite(value):
    """JSON has no NaN: a metric a failed run could not measure is null."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


if __name__ == "__main__":
    sys.exit(main())
