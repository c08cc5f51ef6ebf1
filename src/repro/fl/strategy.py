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
from repro.compression.base import CompressedGradient, SparseDelta, densify
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
    "weighted_average",
    "masked_weighted_average",
]


@dataclass
class UploadPacket:
    """One client upload as the server receives it.

    ``frame`` is the encoded wire frame the payload travels in;
    ``delta`` is what the server folds from it — the dense vector, or a
    sparse codec's :class:`~repro.compression.base.SparseDelta`
    (strategies hand both over so engines never re-decode on the happy
    path).  ``extra_bytes`` covers side-channel payloads that ride the
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
    buffer — the one conversion a dense upload costs.
    """
    payload = CompressedGradient(
        method="none",
        dim=update.delta.size,
        num_bytes=4 * update.delta.size,
        data={"values": update.delta},
    )
    return UploadPacket(delta=update.delta, frame=payload.to_frame(model_version))


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


def weighted_average(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted average of client deltas (Eq. 2 weights).

    Dense deltas fold through the blocked :func:`~repro.blocks.add_scaled`;
    a :class:`~repro.compression.base.SparseDelta` folds by index, so a
    sparse upload is never widened to a d-vector.  Terms fold in order,
    which gives every coordinate the sum it would get with each sparse
    term scattered first, bit for bit.
    """
    if not updates:
        raise ValueError("cannot average zero updates")
    total = sum(u.num_samples for u in updates)
    if total <= 0:
        raise ValueError("updates carry no samples")
    first = updates[0].delta
    if isinstance(first, SparseDelta):
        acc = np.zeros(first.dim, dtype=np.float64)
    else:
        acc = np.zeros_like(first)
    dense_run: list[tuple[float, np.ndarray]] = []
    for u in updates:
        weight = u.num_samples / total
        if isinstance(u.delta, SparseDelta):
            if dense_run:
                add_scaled(acc, dense_run)
                dense_run = []
            u.delta.add_to(acc, weight)
        else:
            dense_run.append((weight, u.delta))
    if dense_run:
        add_scaled(acc, dense_run)
    return acc


def masked_weighted_average(updates: list[ClientUpdate]) -> np.ndarray:
    """Sample-count-weighted average honouring per-update subspaces.

    Each update contributes only on the coordinates its
    ``extras["subspace"]`` covers (``None`` or a full subspace means
    the whole vector), and weights are renormalised *per coordinate*
    over the covering clients — the standard Federated Dropout rule.
    Coordinates no delivered update covers get a zero delta, i.e. the
    server keeps its current value there.  When every update covers
    the whole vector there is nothing to renormalise per coordinate and
    the result is :func:`weighted_average`'s, bit for bit (Federated
    Dropout at keep fraction 1 *is* FedAvg).
    """
    if not updates:
        raise ValueError("cannot average zero updates")
    if all(u.num_samples <= 0 for u in updates):
        raise ValueError("updates carry no samples")
    if all((s := u.extras.get("subspace")) is None or s.is_full for u in updates):
        return weighted_average(updates)
    dim = updates[0].delta.size
    acc = np.zeros(dim, dtype=np.float64)
    weight = np.zeros(dim, dtype=np.float64)
    for u in updates:
        w = float(u.num_samples)
        if w <= 0:
            continue
        subspace = u.extras.get("subspace")
        delta = densify(u.delta)
        if subspace is None or subspace.is_full:
            add_scaled(acc, [(w, delta)])
            weight += w
        else:
            idx = subspace.indices
            acc[idx] += w * delta[idx]
            weight[idx] += w
    covered = weight > 0
    out = np.zeros(dim, dtype=np.float64)
    np.divide(acc, weight, out=out, where=covered)
    return out


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

    Aggregation is ``server_opt.step(server, reducer(updates))``: a
    subclass changes the rule by naming another reducer or handing in
    another :class:`~repro.fl.server.ServerOpt`, not by re-deriving the
    step.
    """

    name = "sync-base"
    # Delivered updates -> one direction (Eq. 2's sample weights).
    reducer = staticmethod(weighted_average)
    # Whether the strategy reads ``client.last_delta``: only then does
    # the engine retain each client's training delta there.
    reads_last_delta = False

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
        baselines in the paper use.  When every client is available
        (``available`` is then ``0..n-1`` in order, by construction of
        the registry) the draw reads the registry's cached id array, so
        a round never converts an O(population) Python list.
        """
        if not available:
            return []
        want = math.ceil(self.participation_rate * len(context.clients))
        take = min(want, len(available))
        ids_array = getattr(context.clients, "all_ids_array", None)
        if ids_array is not None and len(available) == len(context.clients):
            candidates = ids_array()
        else:
            candidates = np.asarray(available)
        picked = rng.choice(candidates, size=take, replace=False)
        return sorted(int(i) for i in picked)

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
    def aggregate(
        self, server: Server, updates: list[ClientUpdate], context: RoundContext
    ) -> None:
        """Fold delivered updates into the global model (default FedAvg)."""
        del context
        if not updates:
            return
        self.server_opt.step(server, self.reducer(updates))


class AsyncStrategy(_ModelBroadcast):
    """Base asynchronous strategy: server reacts to one update at a time."""

    name = "async-base"
    reads_last_delta = False  # as on SyncStrategy
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
