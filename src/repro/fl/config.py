"""Configuration dataclasses shared by the FL engines and strategies."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fl.validation import ValidationConfig
from repro.sim.retry import RetryPolicy

__all__ = ["LocalTrainingConfig", "FederationConfig"]


@dataclass(frozen=True)
class LocalTrainingConfig:
    """How each client runs its local optimisation.

    ``prox_mu`` enables the FedProx proximal term (0 disables it);
    clients always train with plain SGD as in the paper's baselines.
    """

    local_epochs: int = 1
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.0
    prox_mu: float = 0.0

    def __post_init__(self) -> None:
        if self.local_epochs <= 0:
            raise ValueError("local_epochs must be positive")
        if self.batch_size <= 0:
            raise ValueError("batch_size must be positive")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError("momentum must be in [0, 1)")
        if self.prox_mu < 0:
            raise ValueError("prox_mu must be non-negative")


@dataclass(frozen=True)
class FederationConfig:
    """Engine-level settings for one federated run."""

    num_rounds: int = 40
    participation_rate: float = 0.5
    eval_every: int = 1
    seed: int = 0
    local: LocalTrainingConfig = field(default_factory=LocalTrainingConfig)
    # Synchronous engine: optional per-round deadline.  §III-A: "the
    # server can impose a maximum wait time, dropping any delayed
    # updates beyond this threshold" — updates arriving after the
    # deadline are discarded and the round closes at the deadline.
    round_deadline_s: float | None = None
    # Async engine settings.
    max_sim_time_s: float = 2000.0
    max_updates: int | None = None
    # Async engine at population scale: cap the initial model fan-out
    # to the first N client ids.  None broadcasts to everyone — the
    # legacy behaviour, required for bit-identical trajectories — but
    # is O(population) work and memory; virtual-population runs set a
    # cohort so only O(active) clients ever enter the reactive loop.
    async_cohort: int | None = None
    # Transfer retry schedules.  None keeps each engine's historical
    # default: single-attempt legs for the synchronous engine and both
    # uplinks, and the async engine's constant-backoff downlink retry
    # (capped at 8 attempts).
    downlink_retry: RetryPolicy | None = None
    uplink_retry: RetryPolicy | None = None
    # Server-side update validation; None disables every screen (the
    # historical trust-everything behaviour, bit-identical trajectories).
    validation: ValidationConfig | None = None
    # Synchronous engine: minimum fraction of the selected cohort whose
    # uploads must survive for the round to aggregate.  When fewer
    # arrive (e.g. worker processes died mid-round over a remote
    # transport), the round is voided — the server keeps its model and
    # the AGGREGATED event carries ``quorum_missed=True``.  None keeps
    # the historical behaviour: aggregate whatever arrived.
    quorum_frac: float | None = None
    # Fuse the selected clients' local training into one stacked-buffer
    # kernel (repro.nn.batched) when the cohort allows it; trajectories
    # are bit-identical to the serial path, so this defaults to on.
    # The sync engine batches the whole barrier cohort, the async
    # engine batches simultaneously-ready clients opportunistically;
    # unsupported models fall back to the serial oracle automatically.
    batched_compute: bool = True

    def __post_init__(self) -> None:
        if self.num_rounds <= 0:
            raise ValueError("num_rounds must be positive")
        if not 0.0 < self.participation_rate <= 1.0:
            raise ValueError("participation_rate must be in (0, 1]")
        if self.eval_every <= 0:
            raise ValueError("eval_every must be positive")
        if self.round_deadline_s is not None and self.round_deadline_s <= 0:
            raise ValueError("round_deadline_s must be positive or None")
        if self.max_sim_time_s <= 0:
            raise ValueError("max_sim_time_s must be positive")
        if self.max_updates is not None and self.max_updates <= 0:
            raise ValueError("max_updates must be positive or None")
        if self.async_cohort is not None and self.async_cohort <= 0:
            raise ValueError("async_cohort must be positive or None")
        if self.quorum_frac is not None and not 0.0 < self.quorum_frac <= 1.0:
            raise ValueError("quorum_frac must be in (0, 1] or None")
