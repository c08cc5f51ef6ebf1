"""``RunSpec``: round trip, digest, fail-early validation, and equality
with the hand-assembled ``run_sync`` / ``run_async`` / ``socket_session``
calls it replaced."""

from __future__ import annotations

import copy
import json
import random
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro
from repro.cli import main
from repro.core.adafl import AdaFLSync
from repro.experiments.empirical import run_fig1_sync_panel
from repro.experiments.presets import FAST
from repro.experiments.runner import (
    FederationSpec,
    run_async,
    run_sync,
    slow_pi_rates,
    straggler_network,
)
from repro.experiments.socket_run import socket_session
from repro.experiments.spec import (
    FAULTS,
    NETWORKS,
    STRATEGIES,
    Named,
    RunSpec,
    default_adafl_config,
    open_run,
    run,
)
from repro.fl.baselines import FedAvg, FedBuff
from repro.fl.validation import ValidationConfig
from repro.sim import ClientCrashModel, EventTrace, FaultPlan, JsonlSink, RetryPolicy

SPEC_DIR = Path(__file__).resolve().parents[2] / "examples" / "specs"
TINY = replace(FAST, name="tiny", num_clients=4, num_rounds=2, train_samples=80,
               test_samples=40, eval_every=1)


# ----------------------------------------------------------------------
# Generated specs
# ----------------------------------------------------------------------
_fractions = st.floats(0.0, 1.0, allow_nan=False).map(lambda x: round(x, 3))
_SYNC = {
    "adafl": st.fixed_dictionaries({}, optional={
        "tau": _fractions, "policy.warmup_rounds": st.integers(0, 5),
        "scorer.metric": st.sampled_from(["cosine", "l2"])}),
    "fedavg": st.fixed_dictionaries({}, optional={"participation_rate": st.sampled_from([0.5, 1.0])}),
    "fedprox": st.fixed_dictionaries({}, optional={"mu": st.sampled_from([0.01, 0.1])}),
    "afd": st.fixed_dictionaries({}, optional={"min_keep": st.sampled_from([0.1, 0.3])}),
}
_ASYNC = {
    "adafl": st.fixed_dictionaries({}, optional={"tau": _fractions}),
    "fedasync": st.fixed_dictionaries({}, optional={"alpha": st.sampled_from([0.4, 0.6])}),
    "fedbuff": st.fixed_dictionaries({}, optional={"buffer_size": st.integers(1, 4)}),
}
_NETWORKS = {
    "none": st.just({}),
    "uniform": st.fixed_dictionaries({}, optional={"preset": st.sampled_from(["wifi", "lte"])}),
    "constrained": st.fixed_dictionaries({}, optional={"seed_offset": st.integers(0, 99)}),
    "lossy": st.just({}),
    "dynamic": st.just({}),
}
_DEVICES = {
    "none": st.just({}),
    "pi": st.just({}),
    "slow_pi": st.fixed_dictionaries({}, optional={"slow_fraction": _fractions}),
}
_FAULTS = {
    "none": st.just({}),
    "crashy": st.fixed_dictionaries({}, optional={"mtbf_s": st.sampled_from([0.5, 400.0])}),
    "dropout": st.fixed_dictionaries({}, optional={"fraction": _fractions}),
    "dataloss": st.fixed_dictionaries({}, optional={"fraction": _fractions}),
    "corrupt": st.fixed_dictionaries({}, optional={"prob": _fractions}),
    "stale": st.fixed_dictionaries({"delay_prob": _fractions, "mean_delay_s": st.just(0.5)}),
    "outage": st.just({"windows": [[0.1, 0.2], [0.5, 0.75]]}),
}


def _named(table: dict) -> st.SearchStrategy[Named]:
    return st.sampled_from(sorted(table)).flatmap(
        lambda name: table[name].map(lambda params: Named(name, params))
    )


@st.composite
def run_specs(draw) -> RunSpec:
    scale = replace(
        FAST, num_clients=draw(st.integers(2, 12)), num_rounds=draw(st.integers(1, 30)),
        train_samples=draw(st.integers(12, 400)), cnn_channels=draw(st.sampled_from([(2, 4), (4, 8)])),
    )
    engine = draw(st.sampled_from(["sync", "async"]))
    retry = st.none() | st.fixed_dictionaries(
        {"max_attempts": st.integers(1, 4)}, optional={"jitter_frac": st.sampled_from([0.0, 0.3])}
    )
    return RunSpec(
        federation=FederationSpec(
            dataset=draw(st.sampled_from(["mnist", "cifar10", "cifar100"])),
            model=draw(st.sampled_from(["mnist_cnn", "mlp", "resnet_mini", "vgg_mini"])),
            distribution=draw(st.sampled_from(["iid", "shard", "dirichlet"])),
            scale=scale, seed=draw(st.integers(0, 2**31)),
        ),
        engine=engine,
        strategy=draw(_named(_SYNC if engine == "sync" else _ASYNC)),
        network=draw(_named(_NETWORKS)),
        devices=draw(_named(_DEVICES)),
        faults=tuple(draw(st.lists(_named(_FAULTS), max_size=3, unique_by=lambda f: f.name))),
        validation=draw(st.none() | st.fixed_dictionaries(
            {}, optional={"max_norm": st.sampled_from([1.0, 50.0]),
                          "trimmed_mean_fallback": st.booleans()})),
        downlink_retry=draw(retry),
        uplink_retry=draw(retry),
        max_updates=draw(st.none() | st.integers(1, 500)),
        max_sim_time_s=draw(st.none() | st.sampled_from([1.0, 250.0])),
        quorum_frac=draw(st.none() | st.sampled_from([0.5, 1.0])),
    )


def _shuffled(value, rng: random.Random):
    """The same JSON value with every object's keys in a random order."""
    if isinstance(value, dict):
        items = list(value.items())
        rng.shuffle(items)
        return {k: _shuffled(v, rng) for k, v in items}
    if isinstance(value, list):
        return [_shuffled(v, rng) for v in value]
    return value


_no_run = mock.patch(
    "repro.experiments.runner.build_federation",
    side_effect=AssertionError("a rejected spec must not reach the federation builder"),
)
_quick = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestRoundTrip:
    @_quick
    @given(run_specs())
    def test_json_round_trip_is_identity(self, spec):
        revived = RunSpec.from_json(spec.to_json())
        assert revived == spec
        assert hash(revived) == hash(spec)
        assert revived.digest() == spec.digest()
        assert json.loads(spec.to_json()) == json.loads(revived.to_json())

    @_quick
    @given(run_specs(), st.randoms(use_true_random=False))
    def test_digest_ignores_key_order(self, spec, rng):
        text = json.dumps(_shuffled(spec.to_dict(), rng))
        assert RunSpec.from_json(text).digest() == spec.digest()

    def test_digest_is_stable_across_interpreters(self):
        """Nothing in the canonical form depends on the hash seed."""
        probe = (
            "import sys; from pathlib import Path; from repro.experiments.spec import RunSpec;"
            "print(*[RunSpec.from_json(Path(p).read_text()).digest() for p in sys.argv[1:]])"
        )
        files = sorted(str(p) for p in SPEC_DIR.glob("*.json"))
        src = str(Path(repro.__file__).resolve().parent.parent)
        outs = [
            subprocess.run(
                [sys.executable, "-c", probe, *files], capture_output=True, text=True,
                timeout=120, check=True, env={"PYTHONPATH": src, "PYTHONHASHSEED": seed, "PATH": ""},
            ).stdout.split()
            for seed in ("1", "4242")
        ]
        here = [RunSpec.from_json(Path(p).read_text()).digest() for p in files]
        assert outs[0] == outs[1] == here and len(set(here)) == 3

    def test_absent_keys_keep_defaults_and_names_coerce(self):
        assert RunSpec.from_json("{}") == RunSpec()
        spec = RunSpec(strategy="fedavg", network={"name": "constrained"}, faults=("crashy",))
        assert spec.strategy == Named("fedavg") and spec.faults == (Named("crashy"),)
        assert spec.network == Named("constrained", {})

    def test_vary_reaches_through_to_the_federation(self):
        spec = RunSpec.of(TINY, 3, distribution="shard", strategy="fedavg")
        assert spec.federation == FederationSpec(distribution="shard", scale=TINY, seed=3)
        assert spec.vary(seed=4, engine="async", strategy="fedbuff").federation.seed == 4


# Where a single stray key can sit, as a path into ``to_dict()``.
_KEY_SITES = ([], ["federation"], ["federation", "scale"], ["strategy"], ["network"],
              ["devices"], ["validation"], ["uplink_retry"])
# One bad value each: (path into ``to_dict()``, value).
_BAD_VALUES = [
    (["engine"], "bogus"), (["transport"], "udp"), (["num_workers"], 0),
    (["max_updates"], 0), (["max_sim_time_s"], -1.0), (["quorum_frac"], 1.5),
    (["federation", "lr"], -0.1), (["federation", "momentum"], 1.0),
    (["federation", "participation_rate"], 0.0), (["federation", "dataset"], "imagenet"),
    (["federation", "model"], "nope"), (["federation", "distribution"], "bogus"),
    (["federation", "scale", "num_clients"], 0), (["federation", "scale", "batch_size"], 0),
    (["federation", "scale", "train_samples"], 1), (["federation", "scale", "eval_every"], 0),
    (["validation"], {"trim_ratio": 0.7}), (["uplink_retry"], {"max_attempts": 0}),
    (["downlink_retry"], {"jitter_frac": 1.0}), (["faults"], [{"name": "dropout", "params": {"fraction": 2.0}}]),
    (["faults"], [{"name": "crashy", "params": {"mtbf_s": -1.0}}]),
    (["strategy"], {"name": "adafl", "params": {"scorer.metric": "manhattan"}}),
    (["strategy"], {"name": "adafl", "params": {"policy.nope": 1}}),
    (["strategy"], {"name": "fedavg", "params": {"participation_rate": 2.0}}),
    (["network"], {"name": "uniform", "params": {"preset": "5g"}}),
    (["devices"], {"name": "pi", "params": {"model": "cray"}}),
    (["max_updates"], float("nan")),
]


def _at(raw: dict, path: list[str]):
    for key in path:
        raw = raw[key]
    return raw


class TestFailsEarly:
    """Unknown keys, unknown names and out-of-range values are a
    ``ValueError`` at construction — never a partially built run."""

    @_quick
    @given(run_specs(), st.sampled_from(_KEY_SITES))
    def test_any_single_unknown_key(self, spec, site):
        raw = spec.vary(validation={"max_norm": 5.0}, uplink_retry={"max_attempts": 2}).to_dict()
        _at(raw, site)["bogus"] = 1
        with _no_run, pytest.raises(ValueError, match="bogus"):
            RunSpec.from_dict(raw)

    @_quick
    @given(run_specs(), st.sampled_from(["strategy", "network", "devices", "fault"]))
    def test_any_single_unknown_name(self, spec, axis):
        raw = spec.to_dict()
        if axis == "fault":
            raw["faults"] = [*raw["faults"], {"name": "gremlins", "params": {}}]
        else:
            raw[axis]["name"] = "gremlins"
        with _no_run, pytest.raises(ValueError, match=f"unknown {axis} 'gremlins'; known: "):
            RunSpec.from_dict(raw)

    @_quick
    @given(run_specs(), st.sampled_from(_BAD_VALUES))
    def test_any_single_bad_value(self, spec, bad):
        path, value = bad
        raw = spec.to_dict()
        _at(raw, path[:-1])[path[-1]] = copy.deepcopy(value)
        with _no_run, pytest.raises(ValueError):
            RunSpec.from_json(json.dumps(raw))

    def test_messages_name_the_known_ones(self):
        with pytest.raises(ValueError, match="known: adafl, fedavg.*adagq"):
            RunSpec(strategy="nope")
        with pytest.raises(ValueError, match="known: none, crashy, dropout, dataloss"):
            RunSpec(faults=("gremlins",))
        with pytest.raises(ValueError, match="method 'fedbuff' is asynchronous"):
            RunSpec(strategy="fedbuff")
        with pytest.raises(ValueError, match="method 'scaffold' is synchronous"):
            RunSpec(engine="async", strategy="scaffold")
        with pytest.raises(ValueError, match="unknown run spec keys .'rounds'.; known: federation"):
            RunSpec.from_json('{"rounds": 3}')
        with pytest.raises(ValueError):
            RunSpec.from_json("{not json")

    def test_tcp_takes_what_socket_session_takes(self):
        RunSpec(transport="tcp", strategy="fedavg", validation={}, quorum_frac=0.5, max_updates=9)
        for extra in ({"network": "wifi"}, {"devices": "pi"}, {"faults": ("crashy",)},
                      {"uplink_retry": {"max_attempts": 2}}, {"max_sim_time_s": 5.0}):
            with _no_run, pytest.raises(ValueError, match="transport 'tcp' takes no"):
                RunSpec(transport="tcp", **extra)
        with _no_run, pytest.raises(ValueError, match="snapshot"):
            with open_run(RunSpec(transport="tcp"), snapshot_path="x.snap"):
                pass  # pragma: no cover


class TestOneTable:
    def test_adafl_is_the_evaluation_config_and_overrides_are_dotted(self):
        base = default_adafl_config(TINY)
        strategy = RunSpec.of(TINY).resolve()[0]
        assert isinstance(strategy, AdaFLSync) and strategy.config == base
        varied = RunSpec.of(
            TINY, strategy=Named("adafl", {"tau": 0.0, "policy.warmup_rounds": 0,
                                           "policy.max_ratio": 50.0, "scorer.metric": "l2"})
        ).resolve()[0]
        assert varied.config == replace(
            base, tau=0.0, scorer=replace(base.scorer, metric="l2"),
            policy=replace(base.policy, warmup_rounds=0, max_ratio=50.0),
        )

    def test_async_adafl_sees_the_resolved_network(self):
        strategy, _, wiring = RunSpec.of(TINY, engine="async", network="constrained").resolve()
        assert strategy.name == "adafl-async"
        assert strategy.config == default_adafl_config(TINY, async_mode=True)
        assert strategy._network is wiring["network"] is not None

    def test_every_row_builds_at_its_defaults(self):
        for name in STRATEGIES:
            engine = "async" if name in ("fedasync", "fedbuff") else "sync"
            RunSpec.of(TINY, engine=engine, strategy=name)
        for name in NETWORKS:
            RunSpec.of(TINY, network=name)
        for name in set(FAULTS) - {"stale", "outage"}:  # these two have required params
            RunSpec.of(TINY, faults=(name,))

    @pytest.mark.parametrize("mode", ["dropout", "dataloss"])
    def test_fig1_failure_modes_by_name(self, mode):
        """``dropout`` / ``dataloss`` at their default are Fig. 1's 20% cell."""
        spec = RunSpec.of(
            TINY, 5, participation_rate=1.0,
            strategy=Named("fedavg", {"participation_rate": 1.0}), faults=(mode,),
        )
        panel = run_fig1_sync_panel("mnist", "iid", mode, fractions=(0.2,), scale=TINY, seed=5)
        assert run(spec) == panel.runs["20%"]
        model = spec.resolve()[2]["chaos"].models[0]
        assert len(model.client_ids) == 1  # 20% of 4 clients, drawn at seed + 20

    def test_session_keeps_the_federation(self):
        with open_run(RunSpec.of(TINY, strategy="fedavg")) as session:
            result = session.run()
        assert len(session.federation.clients) == TINY.num_clients
        assert session.engine.strategy.name == result.method == "fedavg"


def _trace_bytes(path: Path, fn) -> bytes:
    with EventTrace([JsonlSink(path)]) as trace:
        fn(trace)
    return path.read_bytes()


class TestSpecFiles:
    """``run(RunSpec.from_json(file))`` is the hand-assembled call, event for event."""

    def _from_file(self, name: str, tmp_path: Path) -> bytes:
        spec = RunSpec.from_json((SPEC_DIR / name).read_text())
        return _trace_bytes(tmp_path / "spec.jsonl", lambda trace: run(spec, trace=trace))

    def test_sync_adafl_on_the_straggler_network(self, tmp_path):
        fed = FederationSpec("mnist", "mnist_cnn", "shard", FAST, seed=0)
        by_hand = _trace_bytes(tmp_path / "hand.jsonl", lambda trace: run_sync(
            fed, AdaFLSync(default_adafl_config(FAST)),
            network=straggler_network(FAST.num_clients, 0), trace=trace,
        ))
        assert self._from_file("adafl_sync_stragglers.json", tmp_path) == by_hand
        assert by_hand.count(b"\n") > 100

    def test_async_fedbuff_slow_pis_crash_plan_retry_policy(self, tmp_path):
        fed = FederationSpec("mnist", "mlp", "iid", FAST, seed=1)
        by_hand = _trace_bytes(tmp_path / "hand.jsonl", lambda trace: run_async(
            fed, FedBuff(buffer_size=3),
            network=straggler_network(FAST.num_clients, 1),
            device_flops=slow_pi_rates(FAST.num_clients, 1),
            max_updates=60,
            chaos=FaultPlan(ClientCrashModel(mtbf_s=0.05, mean_downtime_s=0.02)),
            uplink_retry=RetryPolicy(max_attempts=3, backoff_frac=0.5),
            trace=trace,
        ))
        assert self._from_file("fedbuff_async_slow_pi_crashy.json", tmp_path) == by_hand
        assert b'"halted"' in by_hand  # the crash plan fired

    @pytest.mark.transport
    def test_sync_fedavg_with_validation_over_tcp(self, tmp_path):
        scale = replace(FAST, num_rounds=3, eval_every=1)
        fed = FederationSpec("mnist", "mlp", "iid", scale, seed=2, participation_rate=1.0)

        def by_hand(trace):
            with socket_session(
                fed, FedAvg(participation_rate=1.0), mode="sync", num_workers=2,
                validation=ValidationConfig(max_norm=50.0), trace=trace,
            ) as session:
                session.run()

        expected = _trace_bytes(tmp_path / "hand.jsonl", by_hand)
        assert self._from_file("fedavg_tcp_validation.json", tmp_path) == expected


class TestCommandLine:
    def test_run_prints_what_quickrun_prints(self, tmp_path, capsys):
        assert main(["--scale", "fast", "--seed", "0", "quickrun"]) == 0
        quickrun = capsys.readouterr().out
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(RunSpec.of(FAST, 0).to_json())
        assert main(["run", str(spec_file)]) == 0
        assert capsys.readouterr().out == quickrun

    def test_run_writes_out_and_trace(self, tmp_path, capsys):
        out, trace = tmp_path / "run.json", tmp_path / "run.jsonl"
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(RunSpec.of(TINY, strategy="fedavg").to_json())
        assert main(["run", str(spec_file), "--out", str(out), "--trace", str(trace)]) == 0
        assert f"trace written : {trace}" in capsys.readouterr().out
        assert json.loads(out.read_text())["method"] == "fedavg"
        assert trace.read_text().count("\n") > 10

    @pytest.mark.parametrize("argv, message", [
        (["quickrun", "--method", "fedbuff"], "method 'fedbuff' is asynchronous"),
        (["quickrun", "--transport", "tcp", "--snapshot", "x"], "does not support --snapshot"),
        (["sweep", "--strategies", "fedavg", "--reference", "adafl"], "must be one of the swept"),
        (["sweep", "--networks", "dialup"], "unknown network 'dialup'; known: none, wifi"),
        (["run", "/no/such/spec.json"], "No such file"),
    ])
    def test_usage_errors_exit_2_without_a_traceback(self, argv, message, capsys):
        with _no_run, pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"repro: error: " in err and message in err and "Traceback" not in err

    def test_bad_spec_file_is_a_usage_error(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text('{"strategy": {"name": "nope"}}')
        with pytest.raises(SystemExit) as exit_info:
            main(["run", str(spec_file)])
        assert exit_info.value.code == 2
        assert "repro: error: unknown strategy 'nope'; known: adafl" in capsys.readouterr().err

    def test_model_flag_has_choices(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["quickrun", "--model", "nope"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
