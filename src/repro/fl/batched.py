"""Engine glue for the batched multi-client compute kernel.

:func:`train_clients_batched` runs a cohort of clients through
:class:`repro.nn.batched.MultiClientTrainer` and rebuilds the exact
per-client :class:`~repro.fl.client.ClientUpdate` objects the serial
``Client.local_train`` loop would have produced — same deltas, same
losses, same SCAFFOLD control-variate evolution, bit for bit.

The function returns ``None`` whenever the cohort cannot be fused
(fewer than two clients, strategy kwargs beyond SCAFFOLD's
``server_control``, mixed scaffold/non-scaffold cohorts, clients of
different architectures, shards or a model outside the kernel's
support); the engines then fall back to the serial oracle path.  An
unsupported model is negatively cached so the construction cost is
paid once, not per round.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.fl.client import _TRAIN_FLOP_FACTOR, Client, ClientUpdate
from repro.fl.config import LocalTrainingConfig
from repro.nn.batched import MultiClientTrainer, UnsupportedModelError, architecture

__all__ = ["train_clients_batched"]

# Negative-cache sentinel: this model cannot batch.
_UNSUPPORTED = object()


def train_clients_batched(
    cohort: list[Client],
    global_params: np.ndarray,
    config: LocalTrainingConfig,
    round_index: int = 0,
    kwargs_by_cid: dict[int, dict[str, Any]] | None = None,
    cache: dict | None = None,
) -> dict[int, ClientUpdate] | None:
    """Fused local training for a cohort; ``None`` means fall back.

    ``kwargs_by_cid`` carries each client's ``client_train_kwargs`` from
    the strategy; only SCAFFOLD's ``server_control`` is batchable.  When
    a ``cache`` dict is supplied, the trainer (parameter stacks, scratch
    buffers, conv workspaces) is reused across rounds by every cohort
    of the same architecture, size and config — it is keyed by what it
    is built from, never by who trains, and keeps nothing of a cohort
    after the call.
    """
    if len(cohort) < 2:
        return None
    kwargs_by_cid = kwargs_by_cid or {}
    controls: list[np.ndarray | None] = []
    for c in cohort:
        kw = kwargs_by_cid.get(c.client_id, {})
        if any(k != "server_control" for k in kw):
            return None
        controls.append(kw.get("server_control"))
    use_scaffold = controls[0] is not None
    if any((sc is not None) != use_scaffold for sc in controls):
        return None

    # Clients of one population borrow one replica; standalone clients
    # each hold a private one, which must be of the same architecture.
    replica = cohort[0].replica
    replicas = {id(c.replica): c.replica for c in cohort}
    archs = {architecture(r.model) for r in replicas.values()}
    if len(archs) != 1:
        return None
    (arch,) = archs

    key = (arch, len(cohort), config, use_scaffold)
    trainer = cache.get(key) if cache is not None else None
    if trainer is _UNSUPPORTED:
        return None
    if trainer is None:
        try:
            trainer = MultiClientTrainer(
                replica.model,
                len(cohort),
                local_epochs=config.local_epochs,
                batch_size=config.batch_size,
                lr=config.lr,
                momentum=config.momentum,
                weight_decay=config.weight_decay,
                prox_mu=config.prox_mu,
                max_batches=config.max_batches,
                use_corrections=use_scaffold,
            )
        except UnsupportedModelError:
            if cache is not None:
                cache[key] = _UNSUPPORTED
            return None
        if cache is not None:
            cache[key] = trainer

    corrections = None
    if use_scaffold:
        for c in cohort:
            if c.control_variate is None:
                c.control_variate = np.zeros_like(global_params)
        corrections = [
            sc - c.control_variate for c, sc in zip(cohort, controls)
        ]

    try:
        results = trainer.run(
            global_params,
            [c.dataset.x for c in cohort],
            [c.dataset.y for c in cohort],
            [c._rng for c in cohort],
            corrections=corrections,
        )
    except UnsupportedModelError:  # a shard the kernel cannot take
        return None

    flops_per_sample = replica.model.flops_per_sample()
    updates: dict[int, ClientUpdate] = {}
    for c, sc, res in zip(cohort, controls, results):
        local_params = res.params
        delta = local_params - global_params
        extras: dict[str, Any] = {}
        if use_scaffold and res.steps > 0:
            # SCAFFOLD option II, exactly as in Client.local_train.
            new_control = (
                c.control_variate
                - sc
                + (global_params - local_params) / (res.steps * config.lr)
            )
            extras["control_delta"] = new_control - c.control_variate
            c.control_variate = new_control
        flops = _TRAIN_FLOP_FACTOR * flops_per_sample * res.samples_seen
        updates[c.client_id] = ClientUpdate(
            client_id=c.client_id,
            round_index=round_index,
            num_samples=c.num_samples,
            delta=delta,
            train_loss=float(np.mean(res.losses)) if res.losses else 0.0,
            flops=flops,
            extras=extras,
        )
    return updates
