"""R1 clean fixture: a perf counter is not a clock reading."""

import time


def elapsed(started: float) -> float:
    return time.perf_counter() - started  # benchmarking clock is fine
