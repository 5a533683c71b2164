"""A few real training steps of each suite benchmark: mode equivalence and graph freeing.

Two whole-step contracts that per-kernel tests cannot see:

- **Kernel-mode equivalence.**  The Closed division (§4) admits only
  mathematically equivalent implementation changes, so switching kernel
  mode must not change a single parameter bit.  Every benchmark trains K
  steps under all four modes and compares parameter bytes; conv+BN models
  also catch kernels whose output layout differs between modes.
- **No cyclic garbage.**  Autograd graphs are acyclic, so each step's
  graph is freed by reference count.  With the cyclic collector disabled,
  K steps of every benchmark must leave nothing for ``gc.collect()``.
"""

from __future__ import annotations

import functools
import gc

import pytest

from repro.framework import use_kernel_mode
from repro.framework.compile import StepExecutor
from repro.suite import REGISTRY, create_benchmark

K = 3

# Keep reinforcement's self-play to a sliver; every other benchmark trains
# with its default hyperparameters.
_OVERRIDES = {
    "reinforcement": dict(games_per_iteration=1, mcts_simulations=4,
                          train_steps_per_iteration=2),
}


class _StepLimitReached(Exception):
    pass


class _LimitedExecutor(StepExecutor):
    """A step executor that stops training after ``limit`` steps."""

    def __init__(self, limit: int):
        super().__init__(name="limited")
        self.limit = limit
        self.taken = 0

    def step(self, *args, **kwargs):
        if self.taken == self.limit:
            raise _StepLimitReached
        self.taken += 1
        return super().step(*args, **kwargs)


@functools.lru_cache(maxsize=None)
def _prepared(name):
    bench = create_benchmark(name)
    bench.prepare_data()
    return bench


def _train_steps(name, mode):
    """A fresh seed-0 session of ``name`` after ``K`` training steps."""
    bench = _prepared(name)
    hp = bench.spec.resolve_hyperparameters(_OVERRIDES.get(name))
    with use_kernel_mode(mode):
        session = bench.create_session(0, hp)
        session._step_executor = _LimitedExecutor(K)
        try:
            for epoch in range(bench.spec.max_epochs):
                session.run_epoch(epoch)
        except _StepLimitReached:
            pass
    assert session._step_executor.taken == K
    return session


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_kernel_modes_train_bit_identically(name):
    states = {}
    for mode in ("naive", "reuse", "fused", "compiled"):
        session = _train_steps(name, mode)
        states[mode] = session.model.state_dict()
        session.close()
    ref = states["naive"]
    for mode, state in states.items():
        assert state.keys() == ref.keys()
        for key, value in state.items():
            assert value.dtype == ref[key].dtype and value.shape == ref[key].shape
            assert value.tobytes() == ref[key].tobytes(), \
                f"{name}: {key} differs between naive and {mode} after {K} steps"


@pytest.mark.parametrize("mode", ["naive", "fused", "compiled"])
@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_training_leaves_no_cyclic_garbage(name, mode):
    _prepared(name)
    gc.collect()
    gc.disable()
    try:
        session = _train_steps(name, mode)
        unreachable = gc.collect()
    finally:
        gc.enable()
    session.close()
    assert unreachable == 0

