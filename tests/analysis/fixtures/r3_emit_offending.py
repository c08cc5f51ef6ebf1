"""R3 offending emit site: an undeclared drop reason."""


def run(trace, t: float) -> None:
    trace.emit("dropped", t, reason="mystery")  # R302: unknown reason
