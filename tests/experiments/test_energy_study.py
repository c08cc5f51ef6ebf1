"""Tests for the energy study runner."""

from dataclasses import replace

from repro.embedded.device import DEVICE_PRESETS
from repro.embedded.energy import RADIO_PRESETS, EnergyModel
from repro.experiments.energy_study import _replay_energy, run_energy_study
from repro.experiments.overhead import client_training_flops
from repro.experiments.presets import FAST
from repro.experiments.spec import RunSpec, open_run

TINY = replace(
    FAST,
    num_rounds=4,
    train_samples=120,
    test_samples=40,
    image_size=8,
    cnn_channels=(2, 4),
    cnn_hidden=8,
    eval_every=4,
)


class TestEnergyStudy:
    def test_produces_positive_energies(self):
        result = run_energy_study(scale=TINY, seed=0)
        assert result.fedavg_compute_j > 0
        assert result.fedavg_comm_j > 0
        assert result.adafl_total_j > 0

    def test_adafl_radio_energy_lower(self):
        result = run_energy_study(scale=TINY, seed=0)
        assert result.adafl_comm_j < result.fedavg_comm_j

    def test_saving_fraction_bounded(self):
        result = run_energy_study(scale=TINY, seed=0)
        assert result.energy_saving < 1.0

    def test_radio_choice_scales_comm_energy(self):
        with open_run(RunSpec.of(TINY, strategy="fedavg")) as session:
            result = session.run()
            flops = client_training_flops(session.federation)
        lte, wifi = (
            _replay_energy(result, flops, EnergyModel(DEVICE_PRESETS["pi4"], RADIO_PRESETS[r]))
            for r in ("lte", "wifi")
        )
        assert lte[0] == wifi[0]  # the same compute
        assert lte[1] > wifi[1]
