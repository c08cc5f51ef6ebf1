"""The fault vocabulary: every way a run describes unavailability and loss.

An engine consults one :class:`FaultPlan`; each model in it gates one
part of a client leg:

* availability — :class:`ChurnModel`, :class:`ClientCrashModel` (which
  also voids in-progress work) and Fig. 1's
  :class:`StragglerDropoutModel`, all behind the one protocol the
  engines' gates speak, :class:`AvailabilityModel`;
* upload fate — Fig. 1's :class:`UploadLossModel` and
  :class:`StaleUploadModel` (delayed / duplicated deliveries);
* payload — :class:`PayloadCorruptionModel`;
* server — :class:`ServerOutageModel`.

Determinism contract: models draw only from streams derived from the
kernel seed (``default_rng((seed, crc32("fault"), crc32(name),
index))``) or, for churn, from the model's own seed — never from the
engine's root RNG — so attaching a plan whose models never fire, or no
plan at all, leaves trajectories bit-identical.  The one exception is
:class:`UploadLossModel`, which draws from the stream its caller passes
(see its docstring).  Models hold plain generators and float lists, so
a bound plan pickles cleanly into run snapshots.
"""

from __future__ import annotations

import zlib
from typing import Iterable, Sequence

import numpy as np

from repro.wire.frame import FRAME_OVERHEAD

__all__ = [
    "FaultPlan",
    "AvailabilityModel",
    "ChurnModel",
    "ClientCrashModel",
    "StragglerDropoutModel",
    "UploadLossModel",
    "PayloadCorruptionModel",
    "StaleUploadModel",
    "ServerOutageModel",
    "straggler_ids",
]

_FAULT_NAMESPACE = zlib.crc32(b"fault")


def _fault_stream(seed: int, name: str, index: int) -> np.random.Generator:
    """The derived RNG stream for one fault model + client/site index."""
    return np.random.default_rng(
        (seed, _FAULT_NAMESPACE, zlib.crc32(name.encode()), index)
    )


def straggler_ids(
    num_clients: int, fraction: float, rng: np.random.Generator
) -> frozenset[int]:
    """``round(fraction * num_clients)`` random client ids (Fig. 1's stragglers).

    A positive fraction always yields at least one: tiny fleets would
    otherwise round down to zero and silently inject nothing.
    """
    if not 0.0 <= fraction <= 1.0:
        raise ValueError("fraction must be in [0, 1]")
    num_bad = int(round(num_clients * fraction))
    if fraction > 0.0 and num_bad == 0:
        num_bad = 1
    ids = rng.choice(num_clients, size=num_bad, replace=False)
    return frozenset(int(i) for i in ids)


class _ToggleSchedule:
    """Lazy alternating up/down schedule from t=0.

    Up and down periods are exponential with the given means; toggle
    times are generated on demand, so lookups are deterministic for a
    given stream regardless of query order.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        mean_up_s: float,
        mean_down_s: float,
        starts_up: bool = True,
    ):
        self._rng = rng
        self.mean_up_s = mean_up_s
        self.mean_down_s = mean_down_s
        self.starts_up = starts_up
        self._toggles: list[float] = []

    def _up_after(self, num_toggles: int) -> bool:
        return self.starts_up == (num_toggles % 2 == 0)

    def _extend(self, until: float) -> None:
        toggles = self._toggles
        up = self._up_after(len(toggles))
        last = toggles[-1] if toggles else 0.0
        while last <= until:
            mean = self.mean_up_s if up else self.mean_down_s
            last += float(self._rng.exponential(mean))
            toggles.append(last)
            up = not up

    def _index(self, t: float) -> int:
        if t < 0:
            raise ValueError("time must be non-negative")
        self._extend(t)
        return int(np.searchsorted(self._toggles, t, side="right"))

    def is_up(self, t: float) -> bool:
        return self._up_after(self._index(t))

    def next_up(self, t: float) -> float:
        """Earliest time >= ``t`` at which the subject is up."""
        idx = self._index(t)
        if self._up_after(idx):
            return t
        return self._toggles[idx]

    def next_down_in(self, t0: float, t1: float) -> float | None:
        """First down transition in ``[t0, t1)``; ``t0`` if already down."""
        idx = self._index(t0)
        if not self._up_after(idx):
            return t0
        self._extend(t1)
        toggle = self._toggles[idx]
        return toggle if t0 <= toggle < t1 else None


class _FaultModel:
    """Shared bind plumbing: models are inert until given seed + fleet size."""

    name = "fault"

    def __init__(self, client_ids: Iterable[int] | None = None):
        self.client_ids = None if client_ids is None else frozenset(
            int(i) for i in client_ids
        )
        self._bound = False

    @property
    def bound(self) -> bool:
        return self._bound

    def bind(self, seed: int, num_clients: int) -> None:
        """Derive per-client streams; idempotent (resume keeps state)."""
        if self._bound:
            return
        ids = (
            range(num_clients)
            if self.client_ids is None
            else sorted(i for i in self.client_ids if i < num_clients)
        )
        self._setup(seed, ids)
        self._bound = True

    def _setup(self, seed: int, ids) -> None:
        """Derive per-client state for ``ids``; stateless models have none."""

    def _covers(self, client_id: int) -> bool:
        return self.client_ids is None or client_id in self.client_ids

    def _require_bound(self) -> None:
        if not self._bound:
            raise RuntimeError(f"{type(self).__name__} is not bound to a kernel seed")


class AvailabilityModel(_FaultModel):
    """A reason a client cannot take part at some instant.

    Both engines' gates consult every such model of the plan the same
    way — which also makes this the seam a test plugs a fake into.  A
    client that :meth:`is_down` when a synchronous round opens is left
    out (``dropped``/``offline`` with the model's ``cause``); an
    asynchronous one is ``halted`` with that ``cause`` and re-queued
    for :meth:`next_up`, where a ``woken`` event labelled
    :attr:`woken` announces it — or, when no instant of return is
    known, parked until the next global model version.
    """

    cause: str
    woken: str | None = None

    def is_down(self, client_id: int, t: float, round_index: int) -> bool:
        """Is the client unavailable at time ``t`` / in round ``round_index``
        (the server's model version in an asynchronous run)?"""
        raise NotImplementedError

    def next_up(self, client_id: int, t: float) -> float | None:
        """Earliest time >= ``t`` the client is back; None if not knowable."""
        return None


class _ScheduledAvailability(AvailabilityModel):
    """Availability read off one lazy :class:`_ToggleSchedule` per client."""

    def __init__(self, client_ids: Iterable[int] | None = None):
        super().__init__(client_ids)
        self._schedules: dict[int, _ToggleSchedule] = {}

    def _schedule(self, seed: int, client_id: int) -> _ToggleSchedule:
        raise NotImplementedError  # pragma: no cover - interface

    def _setup(self, seed: int, ids) -> None:
        for cid in ids:
            self._schedules[cid] = self._schedule(seed, cid)

    def is_down(self, client_id: int, t: float, round_index: int | None = None) -> bool:
        del round_index  # a schedule is indexed by time alone
        self._require_bound()
        sched = self._schedules.get(client_id)
        return sched is not None and not sched.is_up(t)

    def next_up(self, client_id: int, t: float) -> float:
        self._require_bound()
        sched = self._schedules.get(client_id)
        return t if sched is None else sched.next_up(t)


class ChurnModel(_ScheduledAvailability):
    """Devices sleep, move out of coverage, or yield to foreground work.

    Each client alternates exponential on- and off-periods and starts
    online with probability ``start_online_prob``.  Streams come from
    the model's own ``seed`` (``seed * 1_000_003 + client_id``), not
    the kernel's: the pinned traces fix them, and one fleet's
    availability can be replayed under different training seeds.
    """

    name = cause = "churn"
    woken = "online"

    def __init__(
        self,
        mean_on_s: float = 300.0,
        mean_off_s: float = 60.0,
        seed: int = 0,
        start_online_prob: float = 0.8,
        client_ids: Iterable[int] | None = None,
    ):
        super().__init__(client_ids)
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("mean periods must be positive")
        if not 0.0 <= start_online_prob <= 1.0:
            raise ValueError("start_online_prob must be in [0, 1]")
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self.seed = seed
        self.start_online_prob = start_online_prob

    def _schedule(self, seed: int, client_id: int) -> _ToggleSchedule:
        del seed
        rng = np.random.default_rng(self.seed * 1_000_003 + client_id)
        starts_online = bool(rng.random() < self.start_online_prob)
        return _ToggleSchedule(rng, self.mean_on_s, self.mean_off_s, starts_online)


class ClientCrashModel(_ScheduledAvailability):
    """Devices crash (losing in-progress work) and restart later."""

    name = cause = "crash"
    woken = "restart"

    def __init__(
        self,
        mtbf_s: float,
        mean_downtime_s: float,
        client_ids: Iterable[int] | None = None,
    ):
        super().__init__(client_ids)
        if mtbf_s <= 0 or mean_downtime_s <= 0:
            raise ValueError("mtbf_s and mean_downtime_s must be positive")
        self.mtbf_s = mtbf_s
        self.mean_downtime_s = mean_downtime_s

    def _schedule(self, seed: int, client_id: int) -> _ToggleSchedule:
        return _ToggleSchedule(
            _fault_stream(seed, self.name, client_id), self.mtbf_s, self.mean_downtime_s
        )

    def crash_in(self, client_id: int, t0: float, t1: float) -> float | None:
        """Crash instant inside ``[t0, t1)`` — the window's work is lost."""
        self._require_bound()
        sched = self._schedules.get(client_id)
        return None if sched is None else sched.next_down_in(t0, t1)


class StragglerDropoutModel(AvailabilityModel):
    """Fig. 1 *dropout*: a straggler reaches the server only every
    ``period``-th round (§III-B).

    Deterministic — no stream at all.  Phases are staggered by client
    id so stragglers do not all skip the same rounds.  Indexed by round,
    not by time, so no instant of return is known.
    """

    cause = "fault"

    def __init__(self, period: int = 2, client_ids: Iterable[int] | None = None):
        super().__init__(client_ids)
        if period < 2:
            raise ValueError("period must be >= 2")
        self.period = period

    def is_down(self, client_id: int, t: float, round_index: int) -> bool:
        del t
        return self._covers(client_id) and (round_index + client_id) % self.period != 0


class UploadLossModel(_FaultModel):
    """Fig. 1 *data loss*: an upload that crossed the link is destroyed
    in transit with probability ``prob``.

    The plan's one exception to "derived streams only": :meth:`lost`
    draws from the generator its caller passes — the engine's root RNG,
    at the point of each engine's fate order where the seed's injector
    drew — because the pinned trajectories (``sync_fedavg_net_faults``)
    fix that sequence.  A client the model does not cover, or a zero
    ``prob``, costs no draw, so a model that cannot fire is inert.
    """

    def __init__(self, prob: float = 0.5, client_ids: Iterable[int] | None = None):
        super().__init__(client_ids)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        self.prob = prob

    def lost(self, client_id: int, rng: np.random.Generator) -> bool:
        """Is this client's delivered upload destroyed in transit?"""
        if self.prob <= 0.0 or not self._covers(client_id):
            return False
        return bool(rng.random() < self.prob)


class PayloadCorruptionModel(_FaultModel):
    """Uploaded payloads arrive damaged with some probability.

    ``kind``: ``"nan"`` poisons ~0.1% of coordinates with NaN,
    ``"bitflip"`` flips one random bit of the *encoded wire frame*
    (so the server's CRC-32 integrity check catches it as a
    ``corrupt_frame`` rejection), and ``"blowup"`` scales the whole
    vector by ``magnitude``.  ``nan``/``blowup`` tamper the decoded
    vector and exercise the numeric screen instead;
    :meth:`corrupt_upload` routes each kind to the right
    representation.
    """

    name = "corrupt"
    KINDS = ("nan", "bitflip", "blowup")

    def __init__(
        self,
        prob: float,
        kind: str = "nan",
        magnitude: float = 1e6,
        client_ids: Iterable[int] | None = None,
    ):
        super().__init__(client_ids)
        if not 0.0 <= prob <= 1.0:
            raise ValueError("prob must be in [0, 1]")
        if kind not in self.KINDS:
            raise ValueError(f"kind must be one of {self.KINDS}")
        if magnitude <= 0:
            raise ValueError("magnitude must be positive")
        self.prob = prob
        self.kind = kind
        self.magnitude = magnitude
        self._rngs: dict[int, np.random.Generator] = {}

    def _setup(self, seed: int, ids) -> None:
        for cid in ids:
            self._rngs[cid] = _fault_stream(seed, self.name, cid)

    def corrupt_upload(
        self, client_id: int, delta: np.ndarray, frame_bytes: bytes
    ) -> tuple[np.ndarray, bytes | None]:
        """Apply this model to one encoded upload.

        Returns ``(delta, tampered_frame_or_None)``: a ``bitflip``
        flips one bit somewhere in the frame's *payload* region (the
        part the header CRC-32 covers, so detection is guaranteed) and
        leaves the vector alone; ``nan``/``blowup`` damage a copy of
        the decoded vector and leave the frame alone, modelling
        corruption that happened before encoding.  One gate draw per
        upload either way, so disabling the model (or prob=0) keeps
        trajectories bit-identical.
        """
        self._require_bound()
        rng = self._rngs.get(client_id)
        if rng is None or rng.random() >= self.prob:
            return delta, None
        if self.kind == "bitflip":
            buf = bytearray(frame_bytes)
            span = len(buf) - FRAME_OVERHEAD
            if span <= 0:  # header-only frame: nothing the CRC covers
                return delta, None
            pos = FRAME_OVERHEAD + int(rng.integers(0, span))
            bit = int(rng.integers(0, 8))
            buf[pos] ^= 1 << bit
            return delta, bytes(buf)
        out = np.array(delta, dtype=np.float64, copy=True)
        if self.kind == "nan":
            k = max(1, out.size // 1000)
            out[rng.integers(0, out.size, size=k)] = np.nan
        else:  # blowup
            out *= self.magnitude
        return out, None


class StaleUploadModel(_FaultModel):
    """Uploads are delayed in transit and/or duplicated at the server."""

    name = "stale"

    def __init__(
        self,
        delay_prob: float = 0.0,
        mean_delay_s: float = 10.0,
        duplicate_prob: float = 0.0,
        client_ids: Iterable[int] | None = None,
    ):
        super().__init__(client_ids)
        if not 0.0 <= delay_prob <= 1.0 or not 0.0 <= duplicate_prob <= 1.0:
            raise ValueError("probabilities must be in [0, 1]")
        if mean_delay_s <= 0:
            raise ValueError("mean_delay_s must be positive")
        self.delay_prob = delay_prob
        self.mean_delay_s = mean_delay_s
        self.duplicate_prob = duplicate_prob
        self._rngs: dict[int, np.random.Generator] = {}

    def _setup(self, seed: int, ids) -> None:
        for cid in ids:
            self._rngs[cid] = _fault_stream(seed, self.name, cid)

    def upload_effects(self, client_id: int) -> tuple[float, bool]:
        """(extra transit delay in seconds, was the upload duplicated?)."""
        self._require_bound()
        rng = self._rngs.get(client_id)
        if rng is None:
            return 0.0, False
        delay = 0.0
        if self.delay_prob > 0.0 and rng.random() < self.delay_prob:
            delay = float(rng.exponential(self.mean_delay_s))
        duplicate = self.duplicate_prob > 0.0 and rng.random() < self.duplicate_prob
        return delay, duplicate


class ServerOutageModel(_FaultModel):
    """The aggregation server is unreachable during outage windows.

    Either pass explicit ``windows`` (``[(start_s, stop_s), ...]``) or
    means for a stochastic schedule (``mtbf_s`` between outages,
    ``mean_outage_s`` long).
    """

    name = "server_down"

    def __init__(
        self,
        windows: Sequence[tuple[float, float]] | None = None,
        mtbf_s: float | None = None,
        mean_outage_s: float | None = None,
    ):
        super().__init__(client_ids=None)
        if windows is not None:
            if mtbf_s is not None or mean_outage_s is not None:
                raise ValueError("pass either windows or mtbf/mean_outage, not both")
            cleaned = []
            for start, stop in windows:
                if not 0 <= start < stop:
                    raise ValueError(f"bad outage window ({start}, {stop})")
                cleaned.append((float(start), float(stop)))
            self.windows = sorted(cleaned)
        else:
            if mtbf_s is None or mean_outage_s is None:
                raise ValueError("stochastic outages need mtbf_s and mean_outage_s")
            if mtbf_s <= 0 or mean_outage_s <= 0:
                raise ValueError("mtbf_s and mean_outage_s must be positive")
            self.windows = None
        self.mtbf_s = mtbf_s
        self.mean_outage_s = mean_outage_s
        self._schedule: _ToggleSchedule | None = None

    def _setup(self, seed: int, ids) -> None:
        del ids
        if self.windows is None:
            self._schedule = _ToggleSchedule(
                _fault_stream(seed, self.name, 0), self.mtbf_s, self.mean_outage_s
            )

    def is_down(self, t: float) -> bool:
        """Is the server unreachable at ``t``?"""
        self._require_bound()
        if self.windows is not None:
            return any(start <= t < stop for start, stop in self.windows)
        return not self._schedule.is_up(t)

    def next_up(self, t: float) -> float:
        """Earliest time >= ``t`` the server is reachable."""
        self._require_bound()
        if self.windows is not None:
            for start, stop in self.windows:
                if start <= t < stop:
                    return stop
            return t
        return self._schedule.next_up(t)


class FaultPlan:
    """The set of fault models active in one run.

    At most one model of each kind; engines consult the typed
    accessors (``plan.churn``/``crash``/``dropout``/``upload_loss``/
    ``corruption``/``stale``/``outage``) and, for the availability
    gates, :attr:`availability`, so a plan is free to carry any subset.
    :meth:`bind` derives every model's RNG streams from the kernel
    seed; binding is idempotent so a plan restored from a snapshot
    keeps its advanced stream states.
    """

    def __init__(self, *models: _FaultModel):
        self.models = list(models)
        self.churn: ChurnModel | None = self._find(ChurnModel)
        self.crash: ClientCrashModel | None = self._find(ClientCrashModel)
        self.dropout: StragglerDropoutModel | None = self._find(StragglerDropoutModel)
        self.upload_loss: UploadLossModel | None = self._find(UploadLossModel)
        self.corruption: PayloadCorruptionModel | None = self._find(
            PayloadCorruptionModel
        )
        self.stale: StaleUploadModel | None = self._find(StaleUploadModel)
        self.outage: ServerOutageModel | None = self._find(ServerOutageModel)
        known = (AvailabilityModel, UploadLossModel, PayloadCorruptionModel,
                 StaleUploadModel, ServerOutageModel)
        for m in self.models:
            if not isinstance(m, known):
                raise TypeError(f"unknown fault model {type(m).__name__}")
        # Gate order is fixed — churn, crash, dropout, then any other
        # availability model (a test's fake) — so which cause labels a
        # client down for two reasons never depends on how the plan
        # was spelled.
        builtin = (self.churn, self.crash, self.dropout)
        others = [
            m for m in self.models
            if isinstance(m, AvailabilityModel) and m not in builtin
        ]
        self.availability: tuple[AvailabilityModel, ...] = (
            *(m for m in builtin if m is not None), *others
        )
        self._bound = False

    def _find(self, cls):
        matches = [m for m in self.models if isinstance(m, cls)]
        if len(matches) > 1:
            raise ValueError(f"at most one {cls.__name__} per plan")
        return matches[0] if matches else None

    @property
    def bound(self) -> bool:
        return self._bound

    def bind(self, seed: int, num_clients: int) -> "FaultPlan":
        if not self._bound:
            for model in self.models:
                model.bind(seed, num_clients)
            self._bound = True
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        names = ", ".join(type(m).__name__ for m in self.models)
        return f"FaultPlan({names})"
