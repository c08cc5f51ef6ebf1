"""Network emulation substrate: links, traces, schedules."""

from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.estimator import BandwidthEstimator
from repro.network.link import LINK_PRESETS, LinkModel, TransferResult, link_preset
from repro.network.tracefile import load_trace_csv, load_trace_dir, save_trace_csv
from repro.network.traces import (
    TRACE_GENERATORS,
    BandwidthTrace,
    constant_trace,
    diurnal_trace,
    gauss_markov_trace,
    generate_trace,
    markov_onoff_trace,
)

__all__ = [
    "BandwidthEstimator",
    "LinkModel",
    "TransferResult",
    "LINK_PRESETS",
    "link_preset",
    "BandwidthTrace",
    "save_trace_csv",
    "load_trace_csv",
    "load_trace_dir",
    "constant_trace",
    "gauss_markov_trace",
    "markov_onoff_trace",
    "diurnal_trace",
    "generate_trace",
    "TRACE_GENERATORS",
    "ClientNetwork",
    "NetworkConditions",
]
