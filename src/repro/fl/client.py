"""The FL client: local training, deltas, and cached gradients.

A client owns a private model replica (rebuilt from the shared
architecture), its local dataset shard, and any stateful machinery a
strategy attaches (SCAFFOLD control variates, a DGC compressor for
AdaFL).  ``local_train`` returns a :class:`ClientUpdate` whose
``delta = w_local - w_global`` is the pseudo-gradient every
aggregation rule in this package consumes.

After each round the client caches its (uncompressed) delta.  AdaFL's
utility score compares this cached local direction against the global
direction — an O(d) dot product, which is why the paper measures only
~0.05% CPU overhead for scoring (§V, Q3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.config import LocalTrainingConfig
from repro.nn.losses import SoftmaxCrossEntropy
from repro.nn.optim import SGD
from repro.nn.sequential import Sequential
from repro.nn.subspace import ParamSubspace

__all__ = ["ClientUpdate", "Client"]

# Backward pass costs roughly 2x the forward pass; the standard
# rule-of-thumb factor of 3 covers forward + backward together.
_TRAIN_FLOP_FACTOR = 3


@dataclass
class ClientUpdate:
    """What a client hands to the server after local work."""

    client_id: int
    round_index: int
    num_samples: int
    delta: np.ndarray  # w_local - w_global (dense, float64)
    train_loss: float
    flops: int  # arithmetic performed during this local round
    extras: dict[str, Any] = field(default_factory=dict)


class Client:
    """One federated participant."""

    def __init__(
        self,
        client_id: int,
        dataset: Dataset,
        model_fn: Callable[[], Sequential],
        seed: int = 0,
    ):
        if len(dataset) == 0:
            raise ValueError(f"client {client_id} has an empty dataset")
        self.client_id = client_id
        self.dataset = dataset
        self._model = model_fn()
        self._rng = np.random.default_rng(seed)
        self._loss_fn = SoftmaxCrossEntropy()
        # Strategy-attached state ----------------------------------------
        self.control_variate: np.ndarray | None = None  # SCAFFOLD c_i
        self.compressor = None  # AdaFL attaches a DGCCompressor
        self.last_delta: np.ndarray | None = None  # cached local direction
        self.halted = False  # AdaFL async: paused until next global model
        # Hoisted local optimiser: built once over the model's flat
        # parameter and reconfigured per round, so repeated rounds
        # reuse the momentum buffers instead of reallocating them.
        self._optimizer: SGD | None = None

    def __getstate__(self) -> dict:
        # The hoisted optimiser wraps live views into the model's
        # backing buffers; pickling it would materialise detached copies and
        # break the aliasing, so it is dropped and lazily rebuilt.
        state = self.__dict__.copy()
        state["_optimizer"] = None
        return state

    # ------------------------------------------------------------------
    # Eviction support (repro.fl.population)
    # ------------------------------------------------------------------
    def extract_state(self) -> dict:
        """Cross-round state that must survive eviction.

        Everything *not* regenerable from ``(client_id, dataset,
        model_fn, seed)`` alone: the shuffling RNG position, layer
        runtime state (dropout RNGs, batch-norm running stats),
        strategy attachments (SCAFFOLD variate, cached delta, halt
        flag), and compressor residual/momentum buffers.  Model
        parameters and optimiser momentum are deliberately excluded:
        ``local_train`` overwrites the parameters from the broadcast at
        entry and resets the optimiser state every round, so neither
        carries information across rounds.
        """
        compressor = self.compressor
        return {
            "rng": self._rng.bit_generator.state,
            "halted": self.halted,
            "control_variate": self.control_variate,
            "last_delta": self.last_delta,
            "compressor": None if compressor is None else compressor.export_state(),
            "layers": _layer_runtime_state(self._model),
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`extract_state` output onto a fresh replica.

        A compressor already attached by a materialization hook is
        refilled in place; otherwise one is rebuilt from the exported
        state (currently DGC, the only compressor strategies attach).
        """
        self._rng.bit_generator.state = state["rng"]
        self.halted = bool(state["halted"])
        self.control_variate = state["control_variate"]
        self.last_delta = state["last_delta"]
        comp_state = state["compressor"]
        if comp_state is not None:
            if self.compressor is not None:
                self.compressor.import_state(comp_state)
            elif comp_state.get("kind") == "dgc":
                from repro.compression.dgc import DGCCompressor

                self.compressor = DGCCompressor.from_state(comp_state)
            else:
                raise ValueError(
                    f"cannot rebuild compressor kind {comp_state.get('kind')!r}; "
                    "attach one via a population materialization hook"
                )
        _restore_layer_runtime_state(self._model, state["layers"])

    def state_nbytes(self) -> int:
        """Approximate heavy bytes this materialised client holds.

        Counts the dominant O(d)/O(data) arrays — flat parameter and
        gradient buffers, optimiser momentum, the dataset shard, and
        strategy attachments — which is what the population registry's
        peak-RSS proxy accounts.
        """
        d = self._model.num_params
        total = 2 * 8 * d  # flat parameter + gradient buffers
        total += self.dataset.x.nbytes + self.dataset.y.nbytes
        if self._optimizer is not None:
            total += 8 * d  # hoisted momentum buffer
        for arr in (self.control_variate, self.last_delta):
            if arr is not None:
                total += arr.nbytes
        if self.compressor is not None:
            total += self.compressor.state_nbytes()
        return total

    @property
    def num_samples(self) -> int:
        return len(self.dataset)

    @property
    def model_dim(self) -> int:
        return self._model.num_params

    # ------------------------------------------------------------------
    def local_train(
        self,
        global_params: np.ndarray,
        config: LocalTrainingConfig,
        round_index: int = 0,
        server_control: np.ndarray | None = None,
        subspace: ParamSubspace | None = None,
    ) -> ClientUpdate:
        """Run local SGD from ``global_params`` and return the delta.

        ``server_control`` activates the SCAFFOLD correction
        ``g - c_i + c``; the updated client control variate and its
        change are returned in ``extras`` ("control_delta").
        ``config.prox_mu > 0`` activates the FedProx proximal term.

        ``subspace`` restricts training to a sub-model (Adaptive
        Federated Dropout): gradients outside the covered coordinates
        are zeroed before every optimiser step, and the returned delta
        is guaranteed zero off the subspace — even against indirect
        movement like weight decay — so the server can trust the
        packet's mask.
        """
        model = self._model
        model.set_flat_params(global_params)
        # The whole model is optimised as one flat parameter over the
        # backing buffers — bit-identical to per-layer updates, minus
        # the Python loop over layers.  The optimiser object (and its
        # momentum buffer) is reused across rounds; reconfiguring and
        # zeroing its state in place matches a fresh build bit for bit.
        optimizer = self._optimizer
        if optimizer is None:
            optimizer = SGD(
                [model.flat_parameter()],
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
            self._optimizer = optimizer
        else:
            optimizer.configure(
                config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
            )
            optimizer.reset_state()

        use_scaffold = server_control is not None
        if use_scaffold and self.control_variate is None:
            self.control_variate = np.zeros_like(global_params)
        if use_scaffold:
            scaffold_correction = server_control - self.control_variate

        # Live views into the model's backing buffers: per-batch flat
        # corrections below mutate them in place, with no
        # concatenate/scatter round-trips.
        flat_params = model.get_flat_params()
        flat_grads = model.get_flat_grads()

        # Sub-model training: coordinates off the subspace are frozen
        # by zeroing their gradient each step (scalar fill, no
        # allocation).  A full subspace is the legacy path, bit for bit.
        frozen: np.ndarray | None = None
        if subspace is not None and not subspace.is_full:
            if subspace.dim != flat_params.size:
                raise ValueError(
                    f"subspace dim {subspace.dim} != model dim {flat_params.size}"
                )
            frozen = subspace.complement().indices

        losses: list[float] = []
        steps = 0
        samples_seen = 0
        for _ in range(config.local_epochs):
            for batch_index, (xb, yb) in enumerate(
                self.dataset.batches(config.batch_size, self._rng)
            ):
                if config.max_batches is not None and batch_index >= config.max_batches:
                    break
                model.zero_grad()
                logits = model.forward(xb, training=True)
                loss = self._loss_fn.forward(logits, yb)
                model.backward(self._loss_fn.backward(), need_input=False)

                if config.prox_mu > 0.0:
                    # FedProx: grad += mu * (w - w_global), applied flat.
                    flat_grads += config.prox_mu * (flat_params - global_params)
                if use_scaffold:
                    flat_grads += scaffold_correction
                if frozen is not None:
                    flat_grads[frozen] = 0.0

                optimizer.step()
                losses.append(loss)
                steps += 1
                samples_seen += xb.shape[0]

        local_params = flat_params
        delta = local_params - global_params
        if frozen is not None:
            # Hard guarantee: zero off-subspace, whatever the optimiser
            # did there indirectly (weight decay moves frozen params).
            delta[frozen] = 0.0
        self.last_delta = delta

        extras: dict[str, Any] = {}
        if use_scaffold and steps > 0:
            # SCAFFOLD option II: c_i+ = c_i - c + (w_g - w_l) / (K * lr).
            new_control = (
                self.control_variate
                - server_control
                + (global_params - local_params) / (steps * config.lr)
            )
            extras["control_delta"] = new_control - self.control_variate
            self.control_variate = new_control

        flops = _TRAIN_FLOP_FACTOR * model.flops_per_sample() * samples_seen
        return ClientUpdate(
            client_id=self.client_id,
            round_index=round_index,
            num_samples=self.num_samples,
            delta=delta,
            train_loss=float(np.mean(losses)) if losses else 0.0,
            flops=flops,
            extras=extras,
        )

    # ------------------------------------------------------------------
    def probe_delta(
        self, global_params: np.ndarray, config: LocalTrainingConfig
    ) -> np.ndarray:
        """Refresh the cached local direction with a one-minibatch probe.

        The paper's clients interrupt their ongoing local training to
        score the freshly received global model (§IV); a client that
        was not selected recently therefore still holds a *current*
        local gradient.  The selected-clients-only engine emulates that
        with a single minibatch gradient at ``global_params``, scaled
        to a pseudo-delta (``-lr * g``) so it is directly comparable to
        cached training deltas.  Updates ``last_delta`` and returns it.
        """
        model = self._model
        model.set_flat_params(global_params)
        xb, yb = next(self.dataset.batches(config.batch_size, self._rng))
        model.zero_grad()
        logits = model.forward(xb, training=True)
        self._loss_fn.forward(logits, yb)
        model.backward(self._loss_fn.backward(), need_input=False)
        probe = -config.lr * model.get_flat_grads()
        self.last_delta = probe
        return probe

    def training_flops(self, config: LocalTrainingConfig) -> int:
        """Arithmetic one local round costs, without running it."""
        per_epoch = len(self.dataset)
        if config.max_batches is not None:
            per_epoch = min(per_epoch, config.max_batches * config.batch_size)
        samples = per_epoch * config.local_epochs
        return _TRAIN_FLOP_FACTOR * self._model.flops_per_sample() * samples

    def evaluate(
        self, global_params: np.ndarray, dataset: Dataset, batch_size: int = 256
    ) -> float:
        """Accuracy of ``global_params`` on an arbitrary dataset.

        Evaluation is chunked (``batch_size``) so conv models never
        materialise a whole-dataset im2col expansion; per-sample
        predictions are independent, so results are identical to a
        single full-dataset forward.
        """
        self._model.set_flat_params(global_params)
        preds = self._model.predict(dataset.x, batch_size=batch_size)
        return float((preds == dataset.y).mean())


def _layer_runtime_state(model: Sequential) -> list[dict | None]:
    """Per-layer non-parameter state: dropout RNGs, batch-norm stats.

    Parameters live in the flat buffers and are overwritten from the
    broadcast, but a Dropout layer owns a persistent RNG and BatchNorm
    accumulates running statistics — both must survive eviction for
    re-materialised replicas to be bit-identical.
    """
    entries: list[dict | None] = []
    for layer in model.layers:
        entry: dict = {}
        rng = getattr(layer, "_rng", None)
        if isinstance(rng, np.random.Generator):
            entry["rng"] = rng.bit_generator.state
        mean = getattr(layer, "running_mean", None)
        if isinstance(mean, np.ndarray):
            # Eviction-time capture, not per-step work: the snapshot
            # must own its arrays so later training can't mutate it.
            entry["running_mean"] = mean.copy()  # reprolint: allow[R402]
            entry["running_var"] = layer.running_var.copy()  # reprolint: allow[R402]
        entries.append(entry or None)
    return entries


def _restore_layer_runtime_state(
    model: Sequential, entries: list[dict | None]
) -> None:
    if len(entries) != len(model.layers):
        raise ValueError("layer state does not match the model architecture")
    for layer, entry in zip(model.layers, entries):
        if not entry:
            continue
        if "rng" in entry:
            layer._rng.bit_generator.state = entry["rng"]
        if "running_mean" in entry:
            layer.running_mean[...] = entry["running_mean"]
            layer.running_var[...] = entry["running_var"]
