"""Strategy zoo: link-adaptive sub-models and bit-widths.

Two strategies from the related work slot into the engines beside
AdaFL, both exercising the parameter-subspace machinery end to end:

* :class:`AdaptiveFederatedDropout` (Bouacida et al., arXiv:2011.04050)
  — each selected client trains a per-round *sub-model*: a
  layer-stratified :class:`~repro.nn.subspace.ParamSubspace` whose
  keep fraction adapts to the client's observed uplink bandwidth.
  Uploads travel as masked frames (index block + covered values) and
  :class:`~repro.fl.strategy.WeightedFold` renormalises each coordinate
  over the clients that cover it, so a constrained client ships — and
  the server trusts — only the coordinates it actually trained.
* :class:`AdaGQQuantization` (Liu et al., arXiv:2212.08272) — every
  client quantises with QSGD, but the *level count* (hence bits per
  element) is chosen per client per round from link quality: a starved
  uplink gets 4-bit gradients, a healthy one up to 8-bit.  The level
  count travels in the frame flags byte, so the server decodes without
  shared state.

Determinism: all per-round randomness (masks, stochastic rounding)
derives from the engine kernel's named streams via
``RoundContext.kernel`` — two identical runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.compression.base import CompressedGradient
from repro.compression.qsgd import QSGDCompressor
from repro.fl.client import Client, ClientUpdate
from repro.fl.server import Server
from repro.fl.strategy import RoundContext, SyncStrategy, UploadPacket
from repro.nn.subspace import ParamSubspace
from repro.wire.codecs import encode_frame

__all__ = [
    "AdaptiveFederatedDropout",
    "AFDConfig",
    "AdaGQQuantization",
    "AdaGQConfig",
]

# Fallback symmetric bandwidth when the run has no network model —
# saturates every adaptive policy at its lightest setting.
_DEFAULT_BW_MBPS = 100.0


def _uplink_mbps(context: RoundContext, cid: int) -> float:
    """The client's current uplink bandwidth (fallback: healthy link)."""
    if context.network is None:
        return _DEFAULT_BW_MBPS
    return context.network[cid].uplink_bandwidth(context.sim_time_s)


@dataclass(frozen=True)
class AFDConfig:
    """Knobs for :class:`AdaptiveFederatedDropout`.

    ``min_keep``/``max_keep`` bound the per-client sub-model fraction;
    a client's keep ratio interpolates linearly between them as its
    uplink bandwidth goes from zero to ``bw_reference_mbps`` (and
    saturates above).  The defaults ship at most 60% of coordinates
    even on a perfect link, which—after the masked frame's index
    block—still undercuts a dense upload by >30%.
    """

    participation_rate: float = 0.5
    min_keep: float = 0.3
    max_keep: float = 0.6
    bw_reference_mbps: float = 20.0

    def __post_init__(self) -> None:
        if not 0.0 < self.min_keep <= self.max_keep <= 1.0:
            raise ValueError("need 0 < min_keep <= max_keep <= 1")
        if self.bw_reference_mbps <= 0:
            raise ValueError("bw_reference_mbps must be positive")


class AdaptiveFederatedDropout(SyncStrategy):
    """Per-client sub-model training with link-adaptive keep ratios."""

    name = "afd"

    def __init__(self, config: AFDConfig | None = None):
        config = config or AFDConfig()
        super().__init__(participation_rate=config.participation_rate)
        self.config = config
        self._layout: list | None = None
        # Masks staged at selection time, consumed by
        # ``client_train_kwargs`` / ``process_upload`` within the round.
        self._round_masks: dict[int, ParamSubspace] = {}

    def prepare(self, server: Server, clients: list[Client]) -> None:
        self._layout = server.param_layout()

    def keep_fraction(self, uplink_mbps: float) -> float:
        """Sub-model fraction for a client with the given uplink rate."""
        cfg = self.config
        t = min(1.0, max(0.0, uplink_mbps / cfg.bw_reference_mbps))
        return cfg.min_keep + t * (cfg.max_keep - cfg.min_keep)

    def select(
        self,
        available: list[int],
        rng: np.random.Generator,
        context: RoundContext,
    ) -> list[int]:
        selected = super().select(available, rng, context)
        if self._layout is None:
            self._layout = context.server.param_layout()
        if context.kernel is None:
            raise RuntimeError(
                "AdaptiveFederatedDropout needs RoundContext.kernel for "
                "deterministic mask generation"
            )
        self._round_masks.clear()
        for cid in selected:
            keep = self.keep_fraction(_uplink_mbps(context, cid))
            stream = context.kernel.stream("afd_mask", context.round_index, cid)
            self._round_masks[cid] = ParamSubspace.sample(self._layout, keep, stream)
        return selected

    def client_train_kwargs(self, client: Client) -> dict:
        mask = self._round_masks.get(client.client_id)
        if mask is None:
            return {}
        return {"subspace": mask}

    def process_upload(
        self, client: Client, update: ClientUpdate, context: RoundContext
    ) -> UploadPacket:
        mask = self._round_masks.get(client.client_id)
        if mask is None or mask.is_full:
            return super().process_upload(client, update, context)
        # The client's delta is guaranteed zero off the mask, so the
        # masked frame carries everything the server needs, and the
        # server folds the frame's own indices and float32 values.
        values = mask.gather(update.delta).astype(np.float32)
        frame = encode_frame(
            "masked",
            update.delta.size,
            {
                "indices": mask.indices.astype(np.uint32),
                "inner_method": "none",
                "inner_data": {"values": values},
            },
            model_version=context.server.version,
        )
        return UploadPacket.of(frame, subspace=mask)


@dataclass(frozen=True)
class AdaGQConfig:
    """Knobs for :class:`AdaGQQuantization`.

    Level counts interpolate *geometrically* between ``min_levels``
    (worst link) and ``max_levels`` (at or above ``bw_reference_mbps``)
    because the resulting bits-per-element is logarithmic in the level
    count.  The defaults span 4-bit to 8-bit gradients — a 4x-8x
    uplink reduction over dense float32 before framing.
    """

    participation_rate: float = 0.5
    min_levels: int = 4
    max_levels: int = 64
    bw_reference_mbps: float = 20.0

    def __post_init__(self) -> None:
        if not 1 <= self.min_levels <= self.max_levels <= 255:
            raise ValueError("need 1 <= min_levels <= max_levels <= 255")
        if self.bw_reference_mbps <= 0:
            raise ValueError("bw_reference_mbps must be positive")


class AdaGQQuantization(SyncStrategy):
    """Per-client adaptive QSGD bit-width driven by link quality."""

    name = "adagq"

    def __init__(self, config: AdaGQConfig | None = None):
        config = config or AdaGQConfig()
        super().__init__(participation_rate=config.participation_rate)
        self.config = config
        self._compressors: dict[int, QSGDCompressor] = {}
        self.last_levels: dict[int, int] = {}  # diagnostics

    def levels_for(self, uplink_mbps: float) -> int:
        """QSGD level count for a client with the given uplink rate."""
        cfg = self.config
        t = min(1.0, max(0.0, uplink_mbps / cfg.bw_reference_mbps))
        log_levels = (1.0 - t) * math.log(cfg.min_levels) + t * math.log(
            cfg.max_levels
        )
        return max(cfg.min_levels, min(cfg.max_levels, round(math.exp(log_levels))))

    def _compressor(self, cid: int, dim: int, context: RoundContext) -> QSGDCompressor:
        compressor = self._compressors.get(cid)
        if compressor is None:
            if context.kernel is None:
                raise RuntimeError(
                    "AdaGQQuantization needs RoundContext.kernel so stochastic "
                    "rounding derives from a named kernel stream"
                )
            compressor = QSGDCompressor(
                dim,
                num_levels=self.config.max_levels,
                rng=context.kernel.stream("adagq_rounding", cid),
            )
            self._compressors[cid] = compressor
        return compressor

    def process_upload(
        self, client: Client, update: ClientUpdate, context: RoundContext
    ) -> UploadPacket:
        cid = client.client_id
        num_levels = self.levels_for(_uplink_mbps(context, cid))
        self.last_levels[cid] = num_levels
        compressor = self._compressor(cid, update.delta.size, context)
        payload: CompressedGradient = compressor.compress(
            update.delta, num_levels=num_levels
        )
        # The server folds what the wire delivered, not the raw delta —
        # QSGD is unbiased, so the aggregate stays unbiased too.
        delta = compressor.decompress(payload)
        return UploadPacket(
            delta=delta, frame=payload.to_frame(context.server.version)
        )
