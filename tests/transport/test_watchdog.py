"""The transport-test watchdog fails a hung test; no retry loop absorbs it."""

import os
from pathlib import Path

pytest_plugins = ["pytester"]

HUNG_TEST = '''
import socket

import pytest

from repro.transport.base import TransportError
from repro.transport.sockets import recv_message


@pytest.mark.transport(timeout=1)
def test_hangs_in_a_socket_read():
    a, b = socket.socketpair()
    with a, b:
        try:
            recv_message(a, None, 1024)  # no peer ever writes
        except TransportError:
            pass  # retryable: the transport's retry loop would carry on
'''


def test_hung_transport_test_fails(pytester, monkeypatch):
    # The subprocess imports the repo's conftest hook and ``repro``.
    root = Path(__file__).resolve().parents[2]
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join([str(root), str(root / "src")]))
    pytester.makeconftest("from tests.conftest import pytest_runtest_call  # noqa: F401\n")
    pytester.makeini(
        "[pytest]\nmarkers =\n    transport: multi-process socket-transport tests\n"
    )
    pytester.makepyfile(test_hung=HUNG_TEST)
    result = pytester.runpytest_subprocess("-p", "no:cacheprovider")
    result.assert_outcomes(failed=1)
    result.stdout.fnmatch_lines(["*TransportTestDeadline*1s hard deadline*"])
