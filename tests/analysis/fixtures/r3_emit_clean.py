"""R3 clean emit sites: declared reasons only."""


def run(trace, t: float, reason: str) -> None:
    trace.emit("dropped", t, reason="lost")  # declared literal
    trace.emit("dropped", t, reason=reason)  # dynamic: out of static reach
