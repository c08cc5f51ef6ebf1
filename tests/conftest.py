"""Shared fixtures for the test suite.

Everything here is deliberately tiny: models with a few hundred
parameters and datasets of a few dozen samples, so the full suite runs
in seconds on one CPU core while still exercising every code path the
experiments use.
"""

from __future__ import annotations

import signal

import numpy as np
import pytest

from repro.data.dataset import Dataset
from repro.data.synthetic import make_image_classification
from repro.nn.models import build_mlp

# Default hard deadline for @pytest.mark.transport tests.  These spawn
# real worker processes and block on real sockets, so a deadlock or a
# lost wakeup would otherwise hang CI forever; SIGALRM cuts the test
# with a stack trace instead.  Override per test with
# ``@pytest.mark.transport(timeout=N)``.
TRANSPORT_TEST_TIMEOUT_S = 120


class TransportTestDeadline(BaseException):
    """A transport test ran past its hard deadline.

    A ``BaseException`` so no ``except Exception`` absorbs it: raised
    inside a socket read, a ``TimeoutError`` would become a retryable
    ``TransportTimeout`` and the test could pass on the retry.
    """


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_call(item):
    """Enforce a wall-clock deadline on transport-marked tests."""
    marker = item.get_closest_marker("transport")
    if marker is None or not hasattr(signal, "SIGALRM"):
        yield
        return
    timeout = int(marker.kwargs.get("timeout", TRANSPORT_TEST_TIMEOUT_S))

    def _expired(signum, frame):
        raise TransportTestDeadline(
            f"transport test exceeded its {timeout}s hard deadline "
            "(deadlock or lost wakeup in the socket protocol?)"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.alarm(timeout)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture
def tiny_shape() -> tuple[int, int, int]:
    return (1, 6, 6)


@pytest.fixture
def tiny_model_fn(tiny_shape):
    """Factory producing identical small MLPs (deterministic init)."""

    def factory():
        return build_mlp(tiny_shape, num_classes=4, hidden=(12,), seed=99)

    return factory


@pytest.fixture
def tiny_model(tiny_model_fn):
    return tiny_model_fn()


@pytest.fixture
def tiny_data(tiny_shape) -> tuple[Dataset, Dataset]:
    """An easy 4-class synthetic dataset pair (train, test)."""
    return make_image_classification(
        n_train=80,
        n_test=40,
        num_classes=4,
        image_shape=tiny_shape,
        noise_std=0.4,
        seed=7,
    )


@pytest.fixture
def tiny_train(tiny_data) -> Dataset:
    return tiny_data[0]


@pytest.fixture
def tiny_test(tiny_data) -> Dataset:
    return tiny_data[1]
