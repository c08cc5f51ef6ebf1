"""Network emulation substrate: links, traces, schedules."""

from repro.network.conditions import ClientNetwork, NetworkConditions
from repro.network.link import LINK_PRESETS, LinkModel, TransferResult, link_preset
from repro.network.tracefile import load_trace_csv, load_trace_dir, save_trace_csv
from repro.network.traces import (
    BandwidthTrace,
    diurnal_trace,
    gauss_markov_trace,
    markov_onoff_trace,
)

__all__ = [
    "LinkModel",
    "TransferResult",
    "LINK_PRESETS",
    "link_preset",
    "BandwidthTrace",
    "save_trace_csv",
    "load_trace_csv",
    "load_trace_dir",
    "gauss_markov_trace",
    "markov_onoff_trace",
    "diurnal_trace",
    "ClientNetwork",
    "NetworkConditions",
]
