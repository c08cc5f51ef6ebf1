"""``RunSpec``: one serialisable description of a run, and ``run(spec)``.

The paper's evaluation is one protocol varied along a handful of axes —
method × sync/async × data distribution × dataset × link mix × device
cluster × failure mode.  A :class:`RunSpec` names one point in that
space: a :class:`~repro.experiments.runner.FederationSpec` plus, per
axis, a :class:`Named` ``{name, params}`` pair looked up in **one table
per axis** (:data:`STRATEGIES`, :data:`NETWORKS`, :data:`DEVICES`,
:data:`FAULTS`).  A table row is ``factory(ctx, **params)``; ``ctx``
(:class:`Context`) carries what a row may depend on besides its params
— scale, seed, client count, engine and the already-resolved network —
so ``adafl`` means :func:`default_adafl_config` of the spec's scale
everywhere, and adding an axis value is one row here.

Specs are frozen, hashable and JSON-round-tripping (``to_json`` /
``from_json`` / ``digest``).  Constructing one resolves it once, so a
bad name, key or value is a ``ValueError`` naming the known ones before
any data is synthesised or worker spawned.  :func:`open_run` yields the
live session (engine + federation) and :func:`run` drives it;
``repro quickrun`` / ``serve`` / ``run`` compile to these two.  A paper
study is a *grid* — ``dict[key, RunSpec]`` — and :func:`run_grid` is
the one loop that runs one.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Iterator, Mapping

import numpy as np

from repro.core.adafl import AdaFLAsync, AdaFLConfig, AdaFLSync
from repro.core.compression_policy import AdaptiveCompressionPolicy
from repro.core.zoo import AdaGQConfig, AdaGQQuantization, AdaptiveFederatedDropout, AFDConfig
from repro.embedded.cluster import compute_rates, make_pi_cluster
from repro.experiments.presets import ExperimentScale
from repro.experiments.runner import (
    FederationSpec, Session, _federation_config, check_known, open_engine, slow_pi_rates,
    straggler_network,
)
from repro.fl.baselines import ASYNC_BASELINES, SYNC_BASELINES
from repro.fl.metrics import RunResult
from repro.fl.strategy import AsyncStrategy, SyncStrategy
from repro.fl.validation import ValidationConfig
from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LinkModel, link_preset
from repro.network.traces import gauss_markov_trace
from repro.sim import EventTrace, RetryPolicy
from repro.sim.faults import (
    ClientCrashModel, FaultPlan, PayloadCorruptionModel, ServerOutageModel, StaleUploadModel,
    StragglerDropoutModel, UploadLossModel, straggler_ids,
)

__all__ = [
    "Named", "Context", "RunSpec", "open_run", "run", "default_adafl_config",
    "STRATEGIES", "NETWORKS", "DEVICES", "FAULTS",
    "SYNC_LINEUP", "ASYNC_LINEUP", "run_grid",
]

# The evaluation's method line-ups (Fig. 3 / Tables I-II), each written once.
SYNC_LINEUP = ("fedavg", "fedadam", "fedprox", "scaffold", "adafl")
ASYNC_LINEUP = ("fedasync", "fedbuff", "adafl")


def _freeze(value: Any) -> Any:
    """JSON value -> hashable value (lists become tuples, mappings sorted pairs)."""
    if isinstance(value, Mapping):
        return tuple(sorted((str(k), _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class Named:
    """One axis value: a table row's name plus keyword params for it.

    ``params`` is given as a mapping and kept as sorted pairs, so a
    ``Named`` hashes; values are JSON scalars or (nested) lists.
    """

    name: str
    params: Any = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _freeze(dict(self.params)))

    @classmethod
    def of(cls, value: "Named | str | Mapping") -> "Named":
        """Coerce a bare name or a ``{"name", "params"}`` mapping."""
        if isinstance(value, cls):
            return value
        if isinstance(value, str):
            return cls(value)
        _known_keys("axis value", value, ("name", "params"))
        return cls(value.get("name", ""), value.get("params", {}))

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}


@dataclass(frozen=True)
class Context:
    """What a table row may depend on besides its own params."""

    scale: ExperimentScale
    seed: int
    num_clients: int
    engine: str
    network: NetworkConditions | None = None


# -- strategies ----------------------------------------------------------
def default_adafl_config(scale: ExperimentScale, async_mode: bool = False) -> AdaFLConfig:
    """AdaFL settings matched to the paper's evaluation (k<=5, warm-up).

    Synchronous runs use the relative threshold (filter the lowest 60%
    of utility scores each round), which keeps the adaptive
    participation rate below the baselines' fixed 0.5 while preserving
    accuracy parity at bench scale.  Asynchronous runs use an absolute
    threshold — halting is a local per-client decision with no round
    population to take a quantile over.
    """
    policy = AdaptiveCompressionPolicy(
        min_ratio=4.0,
        max_ratio=105.0 if async_mode else 210.0,
        warmup_rounds=max(2, scale.num_rounds // 10),
        warmup_ratio=4.0,
    )
    shared = dict(k_max=max(1, scale.num_clients // 2), score_smoothing=0.5, policy=policy)
    if async_mode:
        return AdaFLConfig(tau=0.62, tau_mode="absolute", **shared)
    return AdaFLConfig(tau=0.6, tau_mode="relative", rotation_bonus=0.15, **shared)


def _override(config: Any, overrides: Mapping[str, Any]) -> Any:
    """Apply ``{"policy.warmup_rounds": 0}``-style dotted overrides to a
    (nested) frozen dataclass."""
    changes: dict[str, Any] = {}
    nested: dict[str, dict[str, Any]] = {}
    for path, value in overrides.items():
        head, _, rest = path.partition(".")
        if rest:
            nested.setdefault(head, {})[rest] = value
        else:
            changes[head] = value
    for head, inner in nested.items():
        changes[head] = _override(getattr(config, head), inner)
    return replace(config, **changes)  # one replace per level: validated whole


def _adafl(ctx: Context, **overrides) -> SyncStrategy | AsyncStrategy:
    """The evaluation's AdaFL for ``ctx``'s engine; params are dotted
    overrides of :func:`default_adafl_config` (the ablation's variants)."""
    is_async = ctx.engine == "async"
    config = _override(default_adafl_config(ctx.scale, async_mode=is_async), overrides)
    return AdaFLAsync(config, network=ctx.network) if is_async else AdaFLSync(config)


STRATEGIES: dict[str, Callable[..., SyncStrategy | AsyncStrategy]] = {
    "adafl": _adafl,
    # Baselines at their constructor defaults (r_p = 0.5, FedProx mu =
    # 0.01, FedBuff buffer 3 — the paper's settings); params override.
    **{
        name: (lambda ctx, _cls=cls, **params: _cls(**params))
        for name, cls in {**SYNC_BASELINES, **ASYNC_BASELINES}.items()
    },
    "afd": lambda ctx, **params: AdaptiveFederatedDropout(AFDConfig(**params)),
    "adagq": lambda ctx, **params: AdaGQQuantization(AdaGQConfig(**params)),
}


# -- networks, device clusters, fault models -----------------------------
def _uniform(ctx: Context, preset: str = "wifi") -> NetworkConditions:
    return NetworkConditions.uniform(ctx.num_clients, preset)


def _lossy(ctx: Context) -> NetworkConditions:
    """A mildly lossy fleet network so transport drops appear (chaos study)."""
    link = LinkModel(bandwidth_mbps=8.0, latency_ms=20.0, loss_rate=0.05)
    return NetworkConditions(
        clients=[ClientNetwork(uplink=link, downlink=link) for _ in range(ctx.num_clients)]
    )


def _dynamic(ctx: Context, seed_offset: int = 41) -> NetworkConditions:
    """Every wifi link follows its own Gauss-Markov fading trace."""
    rng = np.random.default_rng(ctx.seed + seed_offset)
    base = link_preset("wifi")
    clients = []
    for _ in range(ctx.num_clients):
        trace = gauss_markov_trace(base.bandwidth_mbps, rng, volatility=0.5, step_s=5.0)
        clients.append(ClientNetwork(
            uplink=base, downlink=base, uplink_trace=trace, downlink_trace=trace,
            label="dynamic",
        ))
    return NetworkConditions(clients=clients)


# "constrained" is the Tables I/II straggler mix (80% wifi, 20%
# constrained edge links) — the paper's problem regime.
NETWORKS: dict[str, Callable[..., NetworkConditions | None]] = {
    "none": lambda ctx: None,
    "wifi": _uniform,
    "uniform": _uniform,
    "constrained": lambda ctx, **params: straggler_network(ctx.num_clients, ctx.seed, **params),
    "lossy": _lossy,
    "dynamic": _dynamic,
}

DEVICES: dict[str, Callable[..., np.ndarray | None]] = {
    "none": lambda ctx: None,
    "pi": lambda ctx, model="pi4": compute_rates(make_pi_cluster(ctx.num_clients, model=model)),
    "slow_pi": lambda ctx, **params: slow_pi_rates(ctx.num_clients, ctx.seed, **params),
}


def _on_stragglers(model) -> Callable:
    """Fig. 1's failure modes: ``model`` on a random ``fraction`` of the
    fleet (at fraction 0 it covers nobody and never fires)."""

    def build(ctx: Context, fraction: float = 0.2):
        rng = np.random.default_rng(ctx.seed + int(fraction * 100))
        return model(client_ids=straggler_ids(ctx.num_clients, fraction, rng))

    return build


# One fault *model* per row; a spec's ``faults`` tuple makes the plan.
# "crashy" models flaky embedded devices: frequent crashes with quick
# restarts (the chaos study rescales both times to its probe run).
FAULTS: dict[str, Callable] = {
    "none": lambda ctx: None,
    "crashy": lambda ctx, mtbf_s=400.0, mean_downtime_s=30.0: ClientCrashModel(
        mtbf_s=mtbf_s, mean_downtime_s=mean_downtime_s
    ),
    "dropout": _on_stragglers(StragglerDropoutModel),
    "dataloss": _on_stragglers(UploadLossModel),
    "corrupt": lambda ctx, prob=0.2, kind="nan": PayloadCorruptionModel(prob=prob, kind=kind),
    "stale": lambda ctx, **params: StaleUploadModel(**params),
    "outage": lambda ctx, **params: ServerOutageModel(**params),
}

_AXES = {"strategy": STRATEGIES, "network": NETWORKS, "devices": DEVICES, "fault": FAULTS}


def _known_keys(what: str, raw: Any, known) -> None:
    if not isinstance(raw, Mapping):
        raise ValueError(f"{what} must be a JSON object, not {type(raw).__name__}")
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ValueError(f"unknown {what} keys {unknown}; known: {', '.join(known)}")


def _build(axis: str, named: Named, ctx: Context) -> Any:
    check_known(axis, named.name, _AXES[axis])
    try:
        return _AXES[axis][named.name](ctx, **dict(named.params))
    except (TypeError, AttributeError, KeyError) as exc:  # unknown param / preset name
        detail = f"unknown preset {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{axis} {named.name!r}: {detail}") from None


_AXIS_FIELDS = ("strategy", "network", "devices")
_BAG_FIELDS = ("validation", "downlink_retry", "uplink_retry")


@dataclass(frozen=True)
class RunSpec:
    """One run, fully described (see the module docstring).

    Every field is an argument ``run_sync`` / ``run_async`` /
    ``socket_session`` already took; the axis fields also accept a bare
    row name.  ``transport="tcp"`` runs the clients in ``num_workers``
    worker processes, which takes no network / device / fault model,
    retry policy or time budget.
    """

    federation: FederationSpec = field(default_factory=FederationSpec)
    engine: str = "sync"
    strategy: Named = Named("adafl")
    network: Named = Named("none")
    devices: Named = Named("none")
    faults: tuple[Named, ...] = ()
    validation: Any = None  # ValidationConfig fields, or None
    downlink_retry: Any = None  # RetryPolicy fields, or None
    uplink_retry: Any = None
    max_updates: int | None = None
    max_sim_time_s: float | None = None
    quorum_frac: float | None = None
    transport: str = "memory"
    num_workers: int = 4

    def __post_init__(self) -> None:
        for axis in _AXIS_FIELDS:
            object.__setattr__(self, axis, Named.of(getattr(self, axis)))
        object.__setattr__(self, "faults", tuple(Named.of(f) for f in self.faults))
        for bag in _BAG_FIELDS:
            if getattr(self, bag) is not None:
                object.__setattr__(self, bag, _freeze(dict(getattr(self, bag))))
        check_known("engine", self.engine, ("sync", "async"))
        check_known("transport", self.transport, ("memory", "tcp"))
        if self.num_workers < 1:
            raise ValueError("num_workers must be positive")
        in_memory_only = (self.network.name, self.devices.name, self.faults,
                          self.downlink_retry, self.uplink_retry, self.max_sim_time_s)
        if self.transport == "tcp" and in_memory_only != ("none", "none", (), None, None, None):
            raise ValueError(
                "transport 'tcp' takes no network, devices, faults, retry policy "
                "or max_sim_time_s"
            )
        self.digest()  # serialisable: plain JSON values, finite numbers
        self.resolve()

    @classmethod
    def of(cls, scale: ExperimentScale, seed: int = 0, **changes) -> "RunSpec":
        """The evaluation's base run (AdaFL, MNIST CNN, IID, no network)
        at ``scale`` / ``seed``, then :meth:`vary`'d by ``changes``."""
        return cls(FederationSpec(scale=scale, seed=seed)).vary(**changes)

    def vary(self, **changes) -> "RunSpec":
        """A copy with fields replaced; :class:`FederationSpec` field
        names reach through to the federation."""
        inner = {f.name for f in dataclasses.fields(FederationSpec)}
        fed = {k: changes.pop(k) for k in list(changes) if k in inner}
        return replace(self, federation=replace(self.federation, **fed), **changes)

    def resolve(self) -> tuple[SyncStrategy | AsyncStrategy, Any, dict[str, Any]]:
        """Look every name up in its table: ``(strategy, FederationConfig,
        engine wiring)`` — cheap to build, no data and no model."""
        fed = self.federation
        ctx = Context(fed.scale, fed.seed, fed.scale.num_clients, self.engine)
        ctx = replace(ctx, network=_build("network", self.network, ctx))
        strategy = _build("strategy", self.strategy, ctx)
        if not isinstance(strategy, AsyncStrategy if self.engine == "async" else SyncStrategy):
            other = "sync" if self.engine == "async" else "async"
            raise ValueError(
                f"method {self.strategy.name!r} is {other}hronous; use engine {other!r}"
            )
        models = [m for m in (_build("fault", f, ctx) for f in self.faults) if m is not None]
        try:
            config = _federation_config(
                fed, self.max_updates, self.max_sim_time_s, quorum_frac=self.quorum_frac,
                **{
                    bag: None if getattr(self, bag) is None else cls(**dict(getattr(self, bag)))
                    for cls, bag in zip((ValidationConfig, RetryPolicy, RetryPolicy), _BAG_FIELDS)
                },
            )
        except TypeError as exc:  # unknown validation / retry field
            raise ValueError(str(exc)) from None
        return strategy, config, {
            "network": ctx.network,
            "device_flops": _build("devices", self.devices, ctx),
            "chaos": FaultPlan(*models) if models else None,
        }

    def to_dict(self) -> dict:
        """Plain JSON-ready form (the scale field by field)."""
        out = dataclasses.asdict(self)
        out.update({axis: getattr(self, axis).to_dict() for axis in _AXIS_FIELDS})
        out["faults"] = [f.to_dict() for f in self.faults]
        out.update({b: dict(getattr(self, b)) for b in _BAG_FIELDS if out[b] is not None})
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, allow_nan=False) + "\n"

    def digest(self) -> str:
        """sha-256 of the canonical (sorted-key, compact) JSON form."""
        text = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"), allow_nan=False)
        return hashlib.sha256(text.encode()).hexdigest()

    @classmethod
    def from_dict(cls, raw: Mapping) -> "RunSpec":
        """Inverse of :meth:`to_dict`; absent keys keep their defaults."""

        def load(kind, raw, what, **nested):
            _known_keys(what, raw, [f.name for f in dataclasses.fields(kind)])
            return kind(**{**raw, **{k: fn(raw[k]) for k, fn in nested.items() if k in raw}})

        def scale(raw):
            return load(ExperimentScale, raw, "scale", cnn_channels=tuple)

        try:
            return load(
                cls, raw, "run spec",
                federation=lambda fed: load(FederationSpec, fed, "federation", scale=scale),
            )
        except TypeError as exc:  # a missing scale field, a value of the wrong shape
            raise ValueError(f"malformed run spec: {exc}") from None

    @classmethod
    def from_json(cls, text: str) -> "RunSpec":
        return cls.from_dict(json.loads(text))  # JSONDecodeError is a ValueError


@contextmanager
def open_run(
    spec: RunSpec,
    trace: EventTrace | None = None,
    snapshot_path=None,
    snapshot_every: int | None = None,
    **socket_kwargs,
) -> Iterator[Session]:
    """Resolve ``spec`` and yield its live
    :class:`~repro.experiments.runner.Session` (callers that account
    cycles or joules read the federation after ``session.run()``).

    Over ``tcp`` it *is* :func:`~repro.experiments.socket_run.socket_session`
    — ``socket_kwargs`` (``address``, ``ready_timeout_s``, ``external``,
    ``chaos``, ``transport_config``) go to it.
    """
    strategy, config, wiring = spec.resolve()
    if spec.transport == "tcp":
        from repro.experiments.socket_run import socket_session

        if snapshot_path is not None:
            raise ValueError("transport 'tcp' does not support snapshots")
        opened = socket_session(
            spec.federation, strategy, mode=spec.engine, num_workers=spec.num_workers,
            quorum_frac=spec.quorum_frac, validation=config.validation,
            max_updates=spec.max_updates, trace=trace, **socket_kwargs,
        )
    else:
        opened = nullcontext(open_engine(
            spec.federation, strategy, spec.engine, config, trace=trace,
            snapshot_path=snapshot_path, snapshot_every=snapshot_every, **wiring,
        ))
    with opened as session:
        yield session


def run(spec: RunSpec, trace: EventTrace | None = None, **kwargs) -> RunResult:
    """Run ``spec`` start to finish (``kwargs`` as :func:`open_run`)."""
    with open_run(spec, trace=trace, **kwargs) as session:
        return session.run()


def run_grid(grid: Mapping[Any, RunSpec]) -> Iterator[tuple[Any, RunResult]]:
    """Run a study's grid cell by cell, in order, yielding each
    ``(key, RunResult)`` as it finishes (``dict(run_grid(g))`` for all)."""
    for key, spec in grid.items():
        yield key, run(spec)
