"""Time-varying bandwidth traces.

The paper drives its emulation with ns-3-generated network data.  Here
a trace is a step function of available bandwidth over time, produced
by simple generative models of the same phenomena ns-3 would expose:
slow fading (Gauss–Markov random walk), episodic congestion (on/off
Markov chain), and diurnal load patterns.  A :class:`BandwidthTrace`
can be attached to a client so its effective uplink/downlink bandwidth
changes as simulated time advances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BandwidthTrace",
    "gauss_markov_trace",
    "markov_onoff_trace",
    "diurnal_trace",
]


@dataclass(frozen=True)
class BandwidthTrace:
    """A piecewise-constant bandwidth schedule.

    ``times`` are strictly increasing segment start offsets (seconds)
    beginning at 0.0; ``bandwidth_mbps`` gives the rate holding from
    each start until the next.  Lookup beyond the final segment wraps
    around, so a finite trace can drive an arbitrarily long simulation.
    """

    times: np.ndarray
    bandwidth_mbps: np.ndarray

    def __post_init__(self) -> None:
        if self.times.ndim != 1 or self.times.shape != self.bandwidth_mbps.shape:
            raise ValueError("times and bandwidth arrays must be 1-D and equal length")
        if self.times.size == 0:
            raise ValueError("trace must have at least one segment")
        if self.times[0] != 0.0:
            raise ValueError("trace must start at t=0")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("times must be strictly increasing")
        if np.any(self.bandwidth_mbps <= 0):
            raise ValueError("bandwidth must be positive everywhere")

    @property
    def duration(self) -> float:
        """Nominal cycle length: last segment start plus mean step."""
        if self.times.size == 1:
            return float(self.times[0]) + 1.0
        step = float(np.mean(np.diff(self.times)))
        return float(self.times[-1]) + step

    def bandwidth_at(self, t: float) -> float:
        """Bandwidth in effect at simulated time ``t`` (wraps around)."""
        if t < 0:
            raise ValueError("time must be non-negative")
        t = t % self.duration
        idx = int(np.searchsorted(self.times, t, side="right")) - 1
        return float(self.bandwidth_mbps[max(idx, 0)])

    def mean_bandwidth(self) -> float:
        """Time-weighted mean bandwidth over one cycle."""
        widths = np.diff(np.append(self.times, self.duration))
        return float(np.average(self.bandwidth_mbps, weights=widths))


def gauss_markov_trace(
    mean_mbps: float,
    rng: np.random.Generator,
    volatility: float = 0.15,
    reversion: float = 0.2,
    step_s: float = 10.0,
    num_steps: int = 360,
    floor_mbps: float = 0.05,
) -> BandwidthTrace:
    """Slow-fading bandwidth: mean-reverting log-space random walk."""
    if mean_mbps <= 0:
        raise ValueError("mean bandwidth must be positive")
    log_mean = np.log(mean_mbps)
    log_bw = np.empty(num_steps)
    current = log_mean
    for i in range(num_steps):
        current += reversion * (log_mean - current) + rng.normal(0.0, volatility)
        log_bw[i] = current
    bw = np.maximum(np.exp(log_bw), floor_mbps)
    times = np.arange(num_steps) * step_s
    return BandwidthTrace(times=times, bandwidth_mbps=bw)


def markov_onoff_trace(
    good_mbps: float,
    bad_mbps: float,
    rng: np.random.Generator,
    p_good_to_bad: float = 0.1,
    p_bad_to_good: float = 0.3,
    step_s: float = 10.0,
    num_steps: int = 360,
) -> BandwidthTrace:
    """Episodic congestion: two-state Gilbert–Elliott-style chain."""
    if good_mbps <= 0 or bad_mbps <= 0:
        raise ValueError("bandwidths must be positive")
    if not (0 <= p_good_to_bad <= 1 and 0 <= p_bad_to_good <= 1):
        raise ValueError("transition probabilities must be in [0, 1]")
    bw = np.empty(num_steps)
    good = True
    for i in range(num_steps):
        bw[i] = good_mbps if good else bad_mbps
        flip = rng.random()
        if good and flip < p_good_to_bad:
            good = False
        elif not good and flip < p_bad_to_good:
            good = True
    times = np.arange(num_steps) * step_s
    return BandwidthTrace(times=times, bandwidth_mbps=bw)


def diurnal_trace(
    peak_mbps: float,
    trough_mbps: float,
    period_s: float = 3600.0,
    num_steps: int = 120,
) -> BandwidthTrace:
    """Sinusoidal load pattern between trough and peak bandwidth."""
    if peak_mbps <= 0 or trough_mbps <= 0:
        raise ValueError("bandwidths must be positive")
    if peak_mbps < trough_mbps:
        peak_mbps, trough_mbps = trough_mbps, peak_mbps
    phase = np.linspace(0.0, 2.0 * np.pi, num_steps, endpoint=False)
    mid = (peak_mbps + trough_mbps) / 2.0
    amp = (peak_mbps - trough_mbps) / 2.0
    bw = mid + amp * np.cos(phase)
    times = np.linspace(0.0, period_s, num_steps, endpoint=False)
    return BandwidthTrace(times=times, bandwidth_mbps=bw)
