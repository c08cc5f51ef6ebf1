"""The FL client: local training, deltas, and cached gradients.

A client owns its local dataset shard, its shuffling RNG and any
machinery a strategy attaches (SCAFFOLD control variates, a DGC
compressor for AdaFL).  The model itself — parameters,
gradients, optimiser momentum, conv workspaces — is scratch it *borrows*
from a :class:`~repro.fl.replica.ModelReplica` shared by every client of
the architecture (see that module for the borrow contract).
``local_train`` returns a :class:`ClientUpdate` whose
``delta = w_local - w_global`` is the pseudo-gradient every
aggregation rule in this package consumes.

A client keeps no copy of what it returns.  ``last_delta`` is retained
only for a strategy that declares it reads it (``reads_last_delta``:
async AdaFL, whose utility score compares that local direction against
the global one — an O(d) dot product, which is why the paper measures
only ~0.05% CPU overhead for scoring, §V Q3); the engine stores the
delta there as the training leg ends.  Sync AdaFL scores each fresh
:meth:`Client.probe_delta` straight away and keeps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro.data.dataset import Dataset
from repro.fl.config import LocalTrainingConfig
from repro.fl.replica import ModelReplica
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
    # w_local - w_global (dense float64); once the upload is encoded,
    # the packet's delta at wire width (see UploadPacket).
    delta: np.ndarray
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
        self._model_fn = model_fn
        # The scratch model this client borrows: adopted from the pool
        # of whoever runs it, or a private one built on first use.
        self._replica: ModelReplica | None = None
        self._rng = np.random.default_rng(seed)
        # Strategy-attached state ----------------------------------------
        self.control_variate: np.ndarray | None = None  # SCAFFOLD c_i
        self.compressor = None  # AdaFL attaches a DGCCompressor
        # Last training delta, set by the engine only when the strategy
        # reads it (``reads_last_delta``); None otherwise.
        self.last_delta: np.ndarray | None = None
        self.halted = False  # AdaFL async: paused until next global model

    def __getstate__(self) -> dict:
        # ``model_fn`` is often a lambda, so the pickle carries the
        # built replica instead — once per pickle, however many clients
        # share it.
        state = self.__dict__.copy()
        state["_replica"] = self.replica
        state["_model_fn"] = None
        return state

    # ------------------------------------------------------------------
    # The borrowed model
    # ------------------------------------------------------------------
    @property
    def replica(self) -> ModelReplica:
        """The scratch replica this client borrows."""
        replica = self._replica
        if replica is None:
            replica = self._replica = ModelReplica(self._model_fn)
        return replica

    def adopt_replica(self, pool: list[ModelReplica]) -> None:
        """Borrow from ``pool``'s replica of this client's architecture.

        The pool is whoever-runs-the-clients' list of scratch replicas,
        one per architecture (``model_fn`` equality); the client's own
        replica joins it when none matches.
        """
        own, model_fn = self._replica, self._model_fn
        for replica in pool:
            if replica is own or (model_fn is not None and replica.model_fn == model_fn):
                self._replica = replica
                return
        pool.append(self.replica)

    # ------------------------------------------------------------------
    # Eviction support (repro.fl.population)
    # ------------------------------------------------------------------
    def extract_state(self) -> dict:
        """Cross-round state that must survive eviction.

        Everything *not* regenerable from ``(client_id, dataset,
        model_fn, seed)`` alone: the shuffling RNG position,
        strategy attachments (SCAFFOLD variate, retained delta, halt
        flag), and compressor residual/momentum buffers.  Model
        parameters and optimiser momentum are not the client's to
        keep: they live in the borrowed replica, and ``local_train``
        overwrites the parameters from the broadcast at entry and
        resets the optimiser state every round, so neither carries
        information across rounds.
        """
        compressor = self.compressor
        return {
            "rng": self._rng.bit_generator.state,
            "halted": self.halted,
            "control_variate": self.control_variate,
            "last_delta": self.last_delta,
            "compressor": None if compressor is None else compressor.export_state(),
        }

    def restore_state(self, state: dict) -> None:
        """Restore :meth:`extract_state` output onto a fresh client.

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

    def state_nbytes(self) -> int:
        """Approximate heavy bytes this materialised client owns.

        Counts the dominant O(d)/O(data) arrays — the dataset shard and
        strategy attachments — which is what the population registry's
        peak-RSS proxy accounts.  The borrowed replica is not the
        client's: the registry counts it once (``ModelReplica.nbytes``).
        """
        total = self.dataset.x.nbytes + self.dataset.y.nbytes
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
        return self.replica.model.num_params

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
        replica = self.replica
        model, loss_fn = replica.model, replica.loss_fn
        model.set_flat_params(global_params)
        optimizer = replica.optimizer(config)

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
                loss = loss_fn.forward(logits, yb)
                model.backward(loss_fn.backward(), need_input=False)

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
        """The client's current local direction, from a one-minibatch probe.

        The paper's clients interrupt their ongoing local training to
        score the freshly received global model (§IV); a client that
        was not selected recently therefore still holds a *current*
        local gradient.  The selected-clients-only engine emulates that
        with a single minibatch gradient at ``global_params``, scaled
        to a pseudo-delta (``-lr * g``) so it is directly comparable to
        training deltas.  The probe is returned, not kept.
        """
        replica = self.replica
        model, loss_fn = replica.model, replica.loss_fn
        model.set_flat_params(global_params)
        xb, yb = next(self.dataset.batches(config.batch_size, self._rng))
        model.zero_grad()
        logits = model.forward(xb, training=True)
        loss_fn.forward(logits, yb)
        model.backward(loss_fn.backward(), need_input=False)
        return -config.lr * model.get_flat_grads()

    def training_flops(self, config: LocalTrainingConfig) -> int:
        """Arithmetic one local round costs, without running it."""
        per_epoch = len(self.dataset)
        if config.max_batches is not None:
            per_epoch = min(per_epoch, config.max_batches * config.batch_size)
        samples = per_epoch * config.local_epochs
        return _TRAIN_FLOP_FACTOR * self.replica.model.flops_per_sample() * samples

    def evaluate(
        self, global_params: np.ndarray, dataset: Dataset, batch_size: int = 256
    ) -> float:
        """Accuracy of ``global_params`` on an arbitrary dataset.

        Evaluation is chunked (``batch_size``) so conv models never
        materialise a whole-dataset im2col expansion.  Chunking moves
        the logits by up to ~1e-14 (BLAS blocks the row dimension), so
        only the argmax, and with it the accuracy, matches a single
        full-dataset forward, barring near-ties closer than that.  The
        server's loss is computed from such logits, which makes
        ``Server.eval_batch`` part of a run's trajectory.
        """
        model = self.replica.model
        model.set_flat_params(global_params)
        preds = model.predict(dataset.x, batch_size=batch_size)
        return float((preds == dataset.y).mean())
