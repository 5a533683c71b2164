"""Autograd graphs are freed by reference count, never by the cyclic collector.

Tape nodes hold their raw adjoint and are called as ``node._backward(node)``,
so no node references itself.  Dropping the last name of a step's graph must
therefore free its activations and return its arena borrows at once — with
the cyclic collector disabled, and with the op profiler wrapping adjoints.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.framework import BatchNorm2d, Conv2d, Tensor, arena, use_kernel_mode
from repro.telemetry import Telemetry


@pytest.mark.parametrize("run_backward", [True, False])
@pytest.mark.parametrize("profile", ["off", "full"])
@pytest.mark.parametrize("mode", ["naive", "reuse", "fused"])
def test_conv_bn_graph_dies_with_its_loss(mode, profile, run_backward):
    rng = np.random.default_rng(0)
    with use_kernel_mode(mode), Telemetry(profile=profile).activate():
        conv = Conv2d(3, 4, 3, rng, padding=1, activation="relu")
        bn = BatchNorm2d(4)
        x = Tensor(rng.standard_normal((2, 3, 6, 6)).astype(np.float32))
        gc.collect()
        gc.disable()
        try:
            live = arena().live_count
            act = conv(x)
            probe = weakref.ref(act.data)
            loss = (bn(act) ** 2.0).mean()
            del act
            if run_backward:
                loss.backward()
                assert conv.weight.grad is not None
            assert probe() is not None  # the graph hangs off ``loss``
            del loss
            assert probe() is None
            assert arena().live_count == live
        finally:
            gc.enable()
