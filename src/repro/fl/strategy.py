"""Strategy interfaces for synchronous and asynchronous FL.

A *strategy* owns the three decisions that differ between methods:
which clients participate, what travels on the wire, and how the
server folds deliveries into the global model.  The engines in
:mod:`repro.fl.sync_engine` / :mod:`repro.fl.async_engine` own
everything else (timing, transfers, faults, metrics), so a strategy is
small and testable in isolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.blocks import add_scaled
from repro.compression.base import CompressedGradient, SparseDelta
from repro.fl.client import Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.fl.server import Server, ServerOpt
from repro.nn.subspace import ParamSubspace
from repro.wire.codecs import codec_for_id, encode_frame, encode_model_frame
from repro.wire.frame import Frame

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.conditions import NetworkConditions
    from repro.sim.kernel import SimKernel
    from repro.sim.trace import EventTrace

__all__ = [
    "RoundContext",
    "SyncStrategy",
    "AsyncStrategy",
    "UploadPacket",
    "WeightedFold",
    "RunningMean",
]


@dataclass
class UploadPacket:
    """One client upload as the server receives it.

    ``frame`` is the encoded wire frame the payload travels in;
    ``delta`` is what the server folds from it, at the width the wire
    carries it: for a dense or sub-model upload, the view :meth:`of`
    decodes over the frame itself (float32 values, or a
    :class:`~repro.compression.base.SparseDelta` over a masked frame's
    indices and values); for a compressed upload, the codec's
    ``decompress`` of the payload the frame was encoded from (a sparse
    codec's uint32/float32 arrays, a quantiser's reconstruction),
    equal bit for bit to decoding the frame.  The precision policy:
    values are held at wire width, and every reduction over them
    computes in float64.  ``extra_bytes`` covers side-channel payloads that ride the
    same upload outside the frame (SCAFFOLD's control delta, AdaFL's
    score report); :attr:`nbytes` — payload plus side channel — is
    what the link is charged, and :attr:`wire_nbytes` adds the frame
    header for the honest on-the-wire total.

    ``subspace`` records which coordinates the delta actually covers
    (Adaptive Federated Dropout sub-model updates); ``None`` means the
    legacy full-width contract.  Engines copy it into
    ``update.extras["subspace"]`` so masked aggregation can
    renormalise weights per coordinate.
    """

    delta: np.ndarray | SparseDelta
    frame: Frame
    extra_bytes: int = 0
    subspace: ParamSubspace | None = None

    @classmethod
    def of(cls, frame: Frame, **fields) -> "UploadPacket":
        """The packet for a ``none`` or ``masked``-over-``none`` frame,
        its delta a zero-copy view over the frame: the float32 values,
        or a :class:`SparseDelta` over the masked indices and values."""
        payload = CompressedGradient.from_frame(frame)
        data = payload.data
        if payload.method == "none":
            delta = data["values"]
        elif payload.method == "masked" and data["inner_method"] == "none":
            delta = SparseDelta(frame.dim, data["indices"], data["inner_data"]["values"])
        else:
            raise ValueError(f"no view over a {payload.method!r} frame")
        return cls(delta=delta, frame=frame, **fields)

    @property
    def nbytes(self) -> int:
        """Charged upload size: frame payload + side-channel bytes."""
        return self.frame.payload_nbytes + self.extra_bytes

    @property
    def wire_nbytes(self) -> int:
        """Full framed size including the fixed header."""
        return len(self.frame) + self.extra_bytes

    @property
    def frame_codec(self) -> str:
        """Method name of the codec the frame was encoded with."""
        return codec_for_id(self.frame.codec_id).method


def _dense_upload(update: ClientUpdate, model_version: int) -> UploadPacket:
    """The default packet: the dense float32 delta in a ``none`` frame.

    The codec casts the float64 delta to float32 as it writes the wire
    buffer — the one conversion a dense upload costs — and the packet's
    delta is the frame's own values, a read-only float32 view: the
    server folds what the wire carries, at the wire's width, and the
    float64 training delta can go as soon as it is encoded.
    """
    payload = CompressedGradient(
        method="none",
        dim=update.delta.size,
        num_bytes=4 * update.delta.size,
        data={"values": update.delta},
    )
    return UploadPacket.of(payload.to_frame(model_version))


class _ModelFrameCache:
    """Per-strategy memo of current model broadcast frames.

    Encoding the model is O(d); a frame changes only when the server
    version does, so one encode serves every downlink of that version.
    Frames are keyed by ``(subspace token)`` within a version — a
    partial subspace yields a masked frame carrying only the covered
    coordinates (Adaptive Federated Dropout's sub-model downlink),
    while ``None`` or a full subspace yields the legacy dense frame.
    The cache drops everything when the version moves on, so stale
    sub-model frames never accumulate.
    """

    def __init__(self) -> None:
        self._version: int | None = None
        self._frames: dict[tuple[int, int, int] | None, Frame] = {}

    def get(self, server: Server, subspace: ParamSubspace | None = None) -> Frame:
        if self._version != server.version:
            self._version = server.version
            self._frames.clear()
        if subspace is not None and subspace.is_full:
            subspace = None
        key = None if subspace is None else subspace.token
        frame = self._frames.get(key)
        if frame is None:
            if subspace is None:
                frame = encode_model_frame(server.params, server.version)
            else:
                frame = encode_frame(
                    "masked",
                    server.dim,
                    {
                        "indices": subspace.indices.astype(np.uint32),
                        "inner_method": "none",
                        "inner_data": {"values": subspace.gather(server.params)},
                    },
                    model_version=server.version,
                )
            self._frames[key] = frame
        return frame


@dataclass
class RoundContext:
    """Everything a strategy may consult when selecting clients."""

    round_index: int
    sim_time_s: float
    server: Server
    clients: list[Client]
    network: "NetworkConditions | None" = None
    local_config: LocalTrainingConfig | None = None
    trace: "EventTrace | None" = None  # the engine's telemetry bus
    # The engine's simulation kernel: strategies that derive per-round
    # randomness (subspace masks, stochastic bit-widths) draw from its
    # named streams so two identical runs stay bit-identical.
    kernel: "SimKernel | None" = None


class WeightedFold:
    """Eq. 2's sample-weighted mean, folded one delivery at a time.

    :meth:`add` takes ``n_i * x_i`` into one float64 accumulator as an
    upload is delivered (exact for a float32 value and ``n_i < 2**29``),
    so the server holds the accumulator, not the cohort's frames;
    :meth:`result` divides by ``sum(n_i)`` per coordinate.  Dense deltas
    fold through the blocked :func:`~repro.blocks.add_scaled`, a
    :class:`~repro.compression.base.SparseDelta` by index, each
    coordinate in delivery order.  A partial ``extras["subspace"]`` (an
    Adaptive Federated Dropout sub-model) adds, and weighs, only the
    coordinates it covers: the weight turns from a scalar into a vector
    at the first one, so each coordinate is renormalised over its
    coverers and one nobody covers gets a zero delta.  Updates with no
    samples are skipped.
    """

    def __init__(self) -> None:
        self._acc: np.ndarray | None = None
        self._weight: float | np.ndarray = 0.0
        self.count = 0  # updates folded

    def add(self, update: ClientUpdate) -> None:
        n = update.num_samples
        if n <= 0:
            return
        delta = update.delta
        if self._acc is None:
            self._acc = np.zeros(delta.size, dtype=np.float64)
        acc = self._acc
        subspace = update.extras.get("subspace")
        if subspace is not None and subspace.is_full:
            subspace = None
        if isinstance(delta, SparseDelta):
            delta.add_to(acc, n)
        elif subspace is None:
            add_scaled(acc, [(n, delta)])
        else:
            idx = subspace.indices
            acc[idx] += np.multiply(delta[idx], n, dtype=np.float64)
        if subspace is None:
            self._weight += n
        else:
            if np.ndim(self._weight) == 0:
                self._weight = np.full(acc.size, self._weight)
            self._weight[subspace.indices] += n
        self.count += 1

    def result(self) -> np.ndarray:
        """The weighted mean of everything added (a fresh float64 vector).

        A NaN coordinate is the canonical quiet NaN (``np.nan``): the
        sign numpy gives ``inf + -inf`` depends on the length of the
        array it is computed over, so on the block size.
        """
        if self._acc is None:
            raise ValueError("no update with samples was folded")
        weight = self._weight
        if np.ndim(weight) == 0:
            out = self._acc / weight
        else:
            out = np.zeros_like(self._acc)
            np.divide(self._acc, weight, out=out, where=weight > 0)
        # ``min`` is NaN exactly when some coordinate is: one
        # allocation-free pass, the masked rewrite only when needed.
        if np.isnan(out.min()):
            out[np.isnan(out)] = np.nan
        return out

    @classmethod
    def of(cls, updates: list[ClientUpdate]):
        """A fold with ``updates`` added in order."""
        fold = cls()
        for u in updates:
            fold.add(u)
        return fold


class RunningMean:
    """``np.mean(terms, axis=0)`` over float64, one term at a time.

    numpy reduces a stacked first axis by adding the rows in order onto
    ``+0.0``; the running sum does the same, so ``÷ count`` gives its
    result bit for bit (zero signs included) without holding the terms.
    """

    def __init__(self) -> None:
        self._sum: np.ndarray | None = None
        self.count = 0

    def add(self, x: np.ndarray) -> None:
        if self._sum is None:
            self._sum = np.zeros(x.shape, dtype=np.float64)
        self._sum += x
        self.count += 1

    def result(self) -> np.ndarray:
        """The mean of the terms added so far (a fresh vector)."""
        if self._sum is None:
            raise ValueError("cannot average zero terms")
        return self._sum / self.count


class _ModelBroadcast:
    """The model-broadcast half of the wire format, shared by both
    strategy families (subclasses may override either method)."""

    def encode_model(
        self, server: Server, subspace: ParamSubspace | None = None
    ) -> Frame:
        """The model broadcast frame (cached per version and subspace).

        ``subspace=None`` (or a full subspace) is the legacy dense
        broadcast; a partial subspace yields a masked frame carrying
        only the covered coordinates — the sub-model downlink of
        Adaptive Federated Dropout.
        """
        cache = getattr(self, "_model_frames", None)
        if cache is None:
            cache = self._model_frames = _ModelFrameCache()
        return cache.get(server, subspace)

    def downlink_bytes(self, server: Server) -> int:
        """Bytes of the model broadcast each participant downloads."""
        return self.encode_model(server).payload_nbytes


class SyncStrategy(_ModelBroadcast):
    """Base synchronous strategy: random selection, dense uploads, FedAvg-style hooks.

    Aggregation is ``server_opt.step(server, fold.result())``: the
    engine adds each accepted delivery to a ``fold_type()`` as it
    arrives and hands the fold to :meth:`aggregate` at the barrier.  A
    subclass changes the rule by naming another fold type or handing in
    another :class:`~repro.fl.server.ServerOpt`, not by re-deriving the
    step.
    """

    name = "sync-base"
    # Delivered updates -> one direction (Eq. 2's sample weights).
    fold_type = WeightedFold
    # Whether the strategy reads ``client.last_delta``: only then does
    # the engine retain each client's training delta there.
    reads_last_delta = False
    # Whether it reads ``server.global_delta`` (Eq. 6's g_hat): only
    # then does the server keep the last aggregate.
    reads_global_delta = False

    def __init__(
        self, participation_rate: float = 0.5, server_opt: ServerOpt | None = None
    ):
        if not 0.0 < participation_rate <= 1.0:
            raise ValueError("participation_rate must be in (0, 1]")
        self.participation_rate = participation_rate
        self.server_opt = server_opt if server_opt is not None else ServerOpt()

    # -- lifecycle ------------------------------------------------------
    def prepare(self, server: Server, clients: list[Client]) -> None:
        """One-time setup before round 0 (attach state to clients, etc.)."""
        self.server_opt.reset(server.dim)

    # -- participation --------------------------------------------------
    def select(
        self,
        available: list[int],
        rng: np.random.Generator,
        context: RoundContext,
    ) -> list[int]:
        """Pick this round's participants from the available clients.

        Default: uniform random sample of ``ceil(rate * num_clients)``
        clients, capped by availability — the fixed-``r_p`` scheme all
        baselines in the paper use.  The draw picks positions into
        ``available`` (an id ``range`` or list), so a round never
        converts an O(population) id sequence; numpy draws the same
        positions for ``choice(n)`` as for ``choice(np.asarray(...))``.
        """
        if not available:
            return []
        want = math.ceil(self.participation_rate * len(context.clients))
        take = min(want, len(available))
        picked = rng.choice(len(available), size=take, replace=False)
        return sorted(int(available[i]) for i in picked)

    # -- local training config -----------------------------------------
    def local_config(self, base: LocalTrainingConfig) -> LocalTrainingConfig:
        """Per-method tweak of the client optimiser config (e.g. FedProx mu)."""
        return base

    def client_train_kwargs(self, client: Client) -> dict:
        """Extra ``Client.local_train`` kwargs (e.g. SCAFFOLD's control)."""
        del client
        return {}

    # -- wire format ------------------------------------------------------
    def process_upload(
        self, client: Client, update: ClientUpdate, context: RoundContext
    ) -> UploadPacket:
        """Encode one upload into an :class:`UploadPacket`.

        Baselines send the dense delta; AdaFL overrides this with DGC.
        """
        del client
        return _dense_upload(update, context.server.version)

    def on_upload_result(
        self, client: Client, delivered: bool, context: RoundContext
    ) -> None:
        """Delivery feedback for the client's last upload (ACK/NACK).

        Stateful compressors use the NACK to restore state they cleared
        optimistically at compress time; default is a no-op.
        """

    # -- aggregation ------------------------------------------------------
    def aggregate(self, server: Server, fold, context: RoundContext) -> None:
        """Finish the round's fold into the global model (default FedAvg).

        ``fold`` is a ``fold_type()`` holding the round's accepted
        deliveries; an empty one leaves the model as it is.
        """
        del context
        if not fold.count:
            return
        self.server_opt.step(server, fold.result())


class AsyncStrategy(_ModelBroadcast):
    """Base asynchronous strategy: server reacts to one update at a time."""

    name = "async-base"
    reads_last_delta = False  # as on SyncStrategy
    reads_global_delta = False  # as on SyncStrategy
    # Whether ``on_update`` reads ``update.extras["base_params"]``, the
    # server params the update was trained from: only then does the
    # engine copy them into each update.
    reads_base_params = False

    def prepare(self, server: Server, clients: list[Client]) -> None:
        """One-time setup before the first dispatch."""

    def local_config(self, base: LocalTrainingConfig) -> LocalTrainingConfig:
        return base

    def process_upload(
        self, client: Client, update: ClientUpdate, sim_time_s: float
    ) -> UploadPacket:
        """Encode one upload into an :class:`UploadPacket`."""
        del client, sim_time_s
        return _dense_upload(update, update.extras.get("base_version", 0))

    def on_upload_result(self, client: Client, delivered: bool, sim_time_s: float) -> None:
        """Delivery feedback (ACK/NACK) for the client's last upload."""

    def should_train(self, client: Client, server: Server, sim_time_s: float) -> bool:
        """Gate for AdaFL's halting; baselines always train."""
        del client, server, sim_time_s
        return True

    def on_update(
        self,
        server: Server,
        update: ClientUpdate,
        delta: np.ndarray,
        staleness: int,
    ) -> bool:
        """Handle one delivered update; return True if the model changed."""
        raise NotImplementedError
