"""Energy extension of the overhead study (Q3, in joules).

The paper argues in CPU cycles; on battery-powered embedded devices
the real currency is energy, where radio transmission dominates.  This
runner replays a FedAvg run and an AdaFL run through the
:class:`repro.embedded.energy.EnergyModel` and reports per-client
joules split into compute / uplink / downlink — quantifying how much
of AdaFL's saving comes from bytes not sent.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.embedded.device import DEVICE_PRESETS
from repro.embedded.energy import RADIO_PRESETS, EnergyModel
from repro.experiments.overhead import client_training_flops
from repro.experiments.presets import BENCH, ExperimentScale
from repro.experiments.spec import AdaFLvsFedAvg, RunSpec, open_run
from repro.fl.metrics import RunResult

__all__ = ["EnergyStudyResult", "run_energy_study"]


@dataclass(frozen=True)
class EnergyStudyResult:
    """Fleet-total energy for FedAvg vs AdaFL over the same task."""

    fedavg_compute_j: float
    fedavg_comm_j: float
    adafl_compute_j: float
    adafl_comm_j: float
    fedavg_accuracy: float
    adafl_accuracy: float

    @property
    def fedavg_total_j(self) -> float:
        return self.fedavg_compute_j + self.fedavg_comm_j

    @property
    def adafl_total_j(self) -> float:
        return self.adafl_compute_j + self.adafl_comm_j

    @property
    def energy_saving(self) -> float:
        """Fraction of FedAvg's total energy that AdaFL avoids."""
        if self.fedavg_total_j == 0:
            return 0.0
        return 1.0 - self.adafl_total_j / self.fedavg_total_j


def _replay_energy(
    result: RunResult,
    train_flops_per_client: dict[int, int],
    model: EnergyModel,
) -> tuple[float, float]:
    """(compute joules, communication joules) across the whole fleet."""
    compute = 0.0
    comm = 0.0
    for record in result.records:
        for cid in record.participants:
            compute += model.compute_energy(train_flops_per_client[cid])
        comm += model.tx_energy(record.bytes_up) + model.rx_energy(record.bytes_down)
    return compute, comm


def run_energy_study(
    scale: ExperimentScale = BENCH,
    seed: int = 0,
    device_model: str = "pi4",
    radio: str = "lte",
) -> EnergyStudyResult:
    """Run FedAvg and AdaFL, then account fleet energy for both."""
    energy_model = EnergyModel(DEVICE_PRESETS[device_model], RADIO_PRESETS[radio])

    # One final evaluation is enough here.
    base = RunSpec.of(replace(scale, eval_every=scale.num_rounds), seed, distribution="shard")

    def run(spec: RunSpec):
        with open_run(spec) as session:
            return session.run(), client_training_flops(session.federation)

    (adafl_result, flops), (fedavg_result, _) = (run(s) for s in AdaFLvsFedAvg.specs(base))

    fedavg_compute, fedavg_comm = _replay_energy(fedavg_result, flops, energy_model)
    adafl_compute, adafl_comm = _replay_energy(adafl_result, flops, energy_model)
    return EnergyStudyResult(
        fedavg_compute_j=fedavg_compute,
        fedavg_comm_j=fedavg_comm,
        adafl_compute_j=adafl_compute,
        adafl_comm_j=adafl_comm,
        fedavg_accuracy=fedavg_result.final_accuracy,
        adafl_accuracy=adafl_result.final_accuracy,
    )
