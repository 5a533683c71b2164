"""Op-level profiler: sampling, nesting, memory accounting, overhead bench."""

import numpy as np
import pytest

from repro.framework.fused import conv2d_bias_relu, linear_bias_act
from repro.framework.microbench import bench_profile, gate_profile_failures
from repro.framework.module import Parameter
from repro.framework.optim import SGD
from repro.framework.tensor import Tensor
from repro.telemetry import Telemetry, merge_op_profiles, render_op_profile
from repro.telemetry.opprof import OpProfiler, profile_mode_from_env


def _train_step(seed=0):
    """One conv + linear forward/backward plus an SGD update."""
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32),
               requires_grad=True)
    wc = Parameter((rng.standard_normal((4, 3, 3, 3)) * 0.1).astype(np.float32))
    bc = Parameter(rng.standard_normal(4).astype(np.float32))
    out = conv2d_bias_relu(x, wc, bc, stride=1, pad=1)
    out.backward(rng.standard_normal(out.shape).astype(np.float32))
    y = Tensor(rng.standard_normal((8, 16)).astype(np.float32),
               requires_grad=True)
    wl = Parameter((rng.standard_normal((16, 16)) * 0.1).astype(np.float32))
    bl = Parameter(rng.standard_normal(16).astype(np.float32))
    out2 = linear_bias_act(y, wl, bl, act="relu")
    out2.backward(rng.standard_normal((8, 16)).astype(np.float32))
    opt = SGD([wc, bc, wl, bl], lr=0.1)
    opt.step()
    return wc.data.copy(), bc.data.copy(), wl.data.copy(), bl.data.copy()


class TestOpProfilerCore:
    def test_off_mode_records_nothing_and_snapshot_is_empty(self):
        prof = OpProfiler(mode="off")
        assert prof.active is False
        prof.step()
        with prof.op("gemm"):
            pass
        prof.note_alloc(1024)
        assert prof.snapshot() == {}

    def test_env_mode_validation(self, monkeypatch):
        monkeypatch.setenv("REPRO_PROFILE", "sampled")
        assert profile_mode_from_env() == "sampled"
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        with pytest.raises(ValueError):
            profile_mode_from_env()

    def test_disabled_session_never_reads_env(self, monkeypatch):
        # Telemetry.disabled() is built at import time in some paths; a
        # bad env value must not detonate a disabled profiler.
        monkeypatch.setenv("REPRO_PROFILE", "bogus")
        prof = OpProfiler(enabled=False)
        assert prof.mode == "off"

    def test_sampled_mode_windows(self):
        prof = OpProfiler(mode="sampled", sample_every=4)
        assert prof.active  # window 0 always sampled
        states = []
        for _ in range(8):
            prof.step()
            states.append(prof.active)
        assert states == [False, False, False, True] * 2
        assert prof.steps_total == 8
        # Closed sampled windows: window 0 and the one opened at step 4;
        # the window step 8 opened is still open.
        assert prof.steps_sampled == 2

    def test_full_mode_counts_every_step(self):
        prof = OpProfiler(mode="full")
        for _ in range(5):
            prof.step()
        assert prof.active
        assert prof.steps_sampled == prof.steps_total == 5

    @pytest.mark.parametrize("sample_every", [1, 2, 3, 4, 7, 64])
    @pytest.mark.parametrize("steps", [0, 1, 5, 64, 65])
    def test_sampled_count_never_exceeds_steps(self, sample_every, steps):
        prof = OpProfiler(mode="sampled", sample_every=sample_every)
        for _ in range(steps):
            prof.step()
        assert prof.steps_total == steps
        assert prof.steps_sampled <= prof.steps_total
        # Window 0 plus every window opened on a multiple of sample_every
        # that a later boundary closed.
        expected = 1 + (steps - 1) // sample_every if steps else 0
        assert prof.steps_sampled == expected

    def test_nested_ops_attribute_self_time(self):
        t = [0]

        def clock():
            return t[0]

        prof = OpProfiler(mode="full", clock_ns=clock)
        prof.begin()           # outer (linear)
        prof.begin()           # inner (gemm)
        prof.end("gemm", 300)
        prof.end("linear", 1000)
        ops = prof.snapshot()["ops"]["forward"]
        assert ops["gemm"]["self_ns"] == 300
        assert ops["linear"]["total_ns"] == 1000
        assert ops["linear"]["self_ns"] == 700  # child time removed

    def test_cancel_discards_the_open_level(self):
        prof = OpProfiler(mode="full")
        prof.begin()
        prof.cancel()
        assert prof.snapshot()["ops"] == {}

    def test_explicit_op_span_phases_and_bytes(self):
        prof = OpProfiler(mode="full")
        with prof.op("all_reduce", phase="comms", nbytes=100) as span:
            span.add_bytes(28)
        stat = prof.snapshot()["ops"]["comms"]["all_reduce"]
        assert stat["calls"] == 1 and stat["bytes_moved"] == 128

    def test_note_alloc_buckets_by_phase(self):
        prof = OpProfiler(mode="full")
        prof.note_alloc(64)
        prof.phase = "backward"
        prof.note_alloc(32)
        mem = prof.snapshot()["memory"]
        assert mem["forward"] == {"tensor_allocs": 1, "tensor_bytes": 64}
        assert mem["backward"] == {"tensor_allocs": 1, "tensor_bytes": 32}


class TestFrameworkIntegration:
    def test_full_profile_records_every_op_family(self):
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
        ops = tele.profiler.snapshot()["ops"]
        assert {"forward", "backward", "update"} <= set(ops)
        assert "conv2d_bias_relu" in ops["forward"]
        assert "linear" in ops["forward"]
        assert "conv2d_bias_relu" in ops["backward"]
        assert "optimizer_step" in ops["update"]
        for phase_ops in ops.values():
            for stat in phase_ops.values():
                assert stat["calls"] >= 1
                assert stat["total_ns"] >= stat["self_ns"] >= 0
                assert stat["bytes_moved"] > 0

    def test_off_mode_is_bit_identical_to_no_profiler(self):
        plain = _train_step()
        tele = Telemetry(profile="off")
        with tele.activate():
            profiled = _train_step()
        for a, b in zip(plain, profiled):
            np.testing.assert_array_equal(a, b)
        assert tele.profiler.snapshot() == {}

    def test_full_mode_is_bit_identical_too(self):
        plain = _train_step()
        with Telemetry(profile="full").activate():
            profiled = _train_step()
        for a, b in zip(plain, profiled):
            np.testing.assert_array_equal(a, b)

    def test_profile_counts_are_deterministic(self):
        def run():
            tele = Telemetry(profile="full")
            with tele.activate():
                _train_step()
            snap = tele.profiler.snapshot()
            return {phase: {name: (s["calls"], s["bytes_moved"])
                            for name, s in ops.items()}
                    for phase, ops in snap["ops"].items()}

        assert run() == run()

    def test_alloc_tracker_uninstalled_after_activate(self):
        from repro.framework.tensor import set_alloc_tracker

        with Telemetry(profile="full").activate():
            pass
        # Restore returns the previous tracker; after exit it must be None.
        assert set_alloc_tracker(None) is None

    def test_backward_restores_phase_on_completion(self):
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
            assert tele.profiler.phase == "forward"


class TestMergeAndRender:
    def test_merge_sums_counters_and_keeps_peaks(self):
        a = {"schema": "repro.op_profile.v1", "mode": "full", "sample_every": 8,
             "steps_total": 2, "steps_sampled": 3,
             "ops": {"forward": {"gemm": {"calls": 1, "total_ns": 10,
                                          "self_ns": 10, "bytes_moved": 4}}},
             "memory": {"forward": {"tensor_allocs": 1, "tensor_bytes": 8}},
             "arena": {"peak_live_bytes": 100, "bytes_saved": 50}}
        b = {"schema": "repro.op_profile.v1", "mode": "full", "sample_every": 8,
             "steps_total": 3, "steps_sampled": 4,
             "ops": {"forward": {"gemm": {"calls": 2, "total_ns": 20,
                                          "self_ns": 20, "bytes_moved": 8}}},
             "memory": {"forward": {"tensor_allocs": 2, "tensor_bytes": 16}},
             "arena": {"peak_live_bytes": 80, "bytes_saved": 70}}
        merged = merge_op_profiles([a, None, b])
        assert merged["steps_total"] == 5
        assert merged["ops"]["forward"]["gemm"] == {
            "calls": 3, "total_ns": 30, "self_ns": 30, "bytes_moved": 12}
        assert merged["memory"]["forward"]["tensor_allocs"] == 3
        assert merged["arena"]["peak_live_bytes"] == 100  # max, not sum
        assert merged["arena"]["bytes_saved"] == 120  # counter: sum

    def test_merge_of_nothing_is_empty(self):
        assert merge_op_profiles([None, {}]) == {}

    def test_render_handles_empty_and_full(self):
        assert "REPRO_PROFILE=off" in render_op_profile({})
        tele = Telemetry(profile="full")
        with tele.activate():
            _train_step()
        text = render_op_profile(tele.profiler.snapshot())
        assert "conv2d_bias_relu" in text and "optimizer_step" in text
        assert "Share" in text and "arena:" in text


class TestBenchProfile:
    def test_smoke_bench_payload_and_gate(self):
        payload = bench_profile(smoke=True, steps=2, repeats=1)
        assert payload["schema"] == "repro.bench_profile.v1"
        checks = payload["checks"]
        assert checks["ops_recorded"] == 5
        assert checks["bit_identical"]
        assert checks["off_overhead"] >= 0.0
        assert payload["op_profile"]["ops"]["update"]["optimizer_step"]["calls"] == 2
        assert gate_profile_failures(payload) == []

    def test_gate_flags_excess_overhead_and_missing_ops(self):
        payload = {"checks": {"ops_recorded": 2, "sampled_overhead": 0.5,
                              "bit_identical": False,
                              "bit_identical_by_mode": {"full": False}}}
        failures = gate_profile_failures(payload)
        assert len(failures) == 3
        assert any("overhead" in f for f in failures)
        assert any("changed training results" in f for f in failures)
        assert any("instrumentation hole" in f for f in failures)
