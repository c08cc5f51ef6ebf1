"""Experiment scale presets.

Every experiment runner accepts a :class:`ExperimentScale` so the same
code serves three audiences:

* ``FAST`` — seconds per run; used by the test suite and CI smoke.
* ``BENCH`` — the default for the pytest-benchmark harness; minutes
  per table/figure, enough rounds for the paper's qualitative shapes
  (who wins, by roughly what factor) to emerge.
* ``FULL`` — closest to the paper's setup (400 client updates etc.);
  hours on a single CPU core, provided for completeness.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ExperimentScale", "FAST", "BENCH", "FULL", "SCALES", "get_scale"]


@dataclass(frozen=True)
class ExperimentScale:
    """Scaling knobs shared across all experiment runners."""

    name: str
    num_clients: int
    num_rounds: int
    train_samples: int
    test_samples: int
    local_epochs: int
    batch_size: int
    eval_every: int
    max_sim_time_s: float
    # Model size knobs (channels for the CNN, hidden width for MLP).
    cnn_channels: tuple[int, int]
    cnn_hidden: int
    image_size: int

    def __post_init__(self) -> None:
        if self.num_clients <= 0 or self.num_rounds <= 0:
            raise ValueError("counts must be positive")
        if self.train_samples < self.num_clients:
            raise ValueError("need at least one sample per client")


FAST = ExperimentScale(
    name="fast",
    num_clients=10,
    num_rounds=8,
    train_samples=400,
    test_samples=120,
    local_epochs=1,
    batch_size=20,
    eval_every=2,
    max_sim_time_s=200.0,
    cnn_channels=(4, 8),
    cnn_hidden=32,
    image_size=10,
)

BENCH = ExperimentScale(
    name="bench",
    num_clients=10,
    num_rounds=40,
    train_samples=1200,
    test_samples=300,
    local_epochs=1,
    batch_size=20,
    eval_every=4,
    max_sim_time_s=1500.0,
    cnn_channels=(8, 16),
    cnn_hidden=64,
    image_size=14,
)

FULL = ExperimentScale(
    name="full",
    num_clients=10,
    num_rounds=80,
    train_samples=4000,
    test_samples=1000,
    local_epochs=1,
    batch_size=32,
    eval_every=4,
    max_sim_time_s=6000.0,
    cnn_channels=(20, 50),
    cnn_hidden=128,
    image_size=14,
)

SCALES = {scale.name: scale for scale in (FAST, BENCH, FULL)}


def get_scale(name: str) -> ExperimentScale:
    """Look up a scale preset by name."""
    try:
        return SCALES[name]
    except KeyError:
        known = ", ".join(sorted(SCALES))
        raise KeyError(f"unknown scale {name!r}; known scales: {known}") from None
