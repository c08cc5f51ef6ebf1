"""Every socket the transport acquires is released on its failure path.

One test per acquisition site, each driving the site's failure path
over real loopback sockets: the bind that fails, the dial that is
refused, the hello that is malformed, the welcome that is wrong, the
upstream that is down, the proxy handoff that raises.  Each test keeps
its own reference to the sockets it checks, so the garbage collector
cannot close a leaked one and hide the leak.

``test_every_acquisition_site_has_a_failure_path_test`` walks the
transport and population sources for local acquisitions and asserts
they are exactly the sites listed in :data:`SITES`: a new site, or a
site that moves, fails it until it gets a test here.
"""

import ast
import socket
import threading
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.transport import (
    ChaosConfig,
    ChaosProxy,
    SocketTransport,
    TransportError,
    WorkerSetup,
    chaos,
    worker,
)
from repro.transport.messages import pack_message
from repro.transport.sockets import (
    dial,
    open_listener,
    parse_address,
    recv_message,
    send_message,
)
from repro.wire.frame import seal

DEADLINE_S = 5.0


@pytest.fixture
def created(monkeypatch) -> list[socket.socket]:
    """Every ``socket.socket`` constructed while the test runs."""
    made: list[socket.socket] = []

    class Recording(socket.socket):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(socket, "socket", Recording)
    return made


def _refused_address() -> str:
    """A loopback port nothing listens on (bound once, then released)."""
    listener, address = open_listener("127.0.0.1:0")
    listener.close()
    return address


# ----------------------------------------------------------------------
# repro.transport.sockets
# ----------------------------------------------------------------------
def test_open_listener_closes_the_socket_when_bind_fails(created, tmp_path):
    with pytest.raises(FileNotFoundError):
        open_listener(f"unix:{tmp_path / 'missing' / 'server.sock'}")
    assert [sock.fileno() for sock in created] == [-1]


def test_dial_closes_the_socket_when_connect_is_refused(created):
    address = _refused_address()
    del created[:]
    with pytest.raises(ConnectionRefusedError):
        dial(address, DEADLINE_S)
    assert [sock.fileno() for sock in created] == [-1]


BAD_HELLOS = {
    "wrong_op": pack_message({"op": "hullo"}),
    "non_int_index": pack_message({"op": "hello", "index": "zero"}),
    "unpicklable_body": seal(b"not a pickle"),
}


@pytest.mark.parametrize("bad_hello", BAD_HELLOS.values(), ids=BAD_HELLOS.keys())
def test_transport_accept_loop_survives_a_bad_hello(bad_hello):
    setup = WorkerSetup(builder=dict, builder_arg=None, strategy=None, config=None)
    transport = SocketTransport("127.0.0.1:0", 1, 1, setup)
    target = parse_address(transport.address)[1]
    try:
        with socket.create_connection(target, DEADLINE_S) as peer:
            peer.sendall(bad_hello)
            assert peer.recv(1) == b""  # hung up on, not left waiting
        assert transport._accept_thread.is_alive()
        with socket.create_connection(target, DEADLINE_S) as peer:
            send_message(peer, {"op": "hello", "index": 0})
            assert recv_message(peer, DEADLINE_S, 1 << 20)["op"] == "welcome"
    finally:
        transport.close()


# ----------------------------------------------------------------------
# repro.transport.worker
# ----------------------------------------------------------------------
def test_worker_connect_closes_the_dial_on_a_wrong_welcome(monkeypatch):
    listener, address = open_listener("127.0.0.1:0")

    def serve() -> None:
        conn, _ = listener.accept()
        with conn:
            recv_message(conn, DEADLINE_S, 1 << 20)
            send_message(conn, {"op": "not_welcome"})
            conn.settimeout(DEADLINE_S)
            conn.recv(1)  # until the worker hangs up

    server = threading.Thread(target=serve, daemon=True)
    server.start()
    dialled: list[socket.socket] = []

    def recording_dial(*args, **kwargs) -> socket.socket:
        dialled.append(dial(*args, **kwargs))
        return dialled[-1]

    monkeypatch.setattr(worker, "dial", recording_dial)
    with listener:
        with pytest.raises(TransportError, match="expected welcome"):
            worker.Worker(address, connect_timeout_s=DEADLINE_S)._connect(resume=False)
        assert [sock.fileno() for sock in dialled] == [-1]
        server.join(DEADLINE_S)


# ----------------------------------------------------------------------
# repro.transport.chaos
# ----------------------------------------------------------------------
def test_chaos_proxy_hangs_up_on_the_client_when_upstream_is_down():
    with ChaosProxy(_refused_address(), ChaosConfig()) as proxy:
        target = parse_address(proxy.address)[1]
        with socket.create_connection(target, DEADLINE_S) as client:
            assert client.recv(1) == b""


def test_chaos_proxy_closes_both_sockets_when_the_handoff_fails(monkeypatch):
    handed: list[socket.socket] = []

    def failing_pipe(client, upstream):
        handed.extend((client, upstream))
        raise RuntimeError("no pipe")

    monkeypatch.setattr(chaos, "_Pipe", failing_pipe)
    upstream_listener, upstream = open_listener("127.0.0.1:0")
    upstream_listener.settimeout(DEADLINE_S)
    with upstream_listener, ChaosProxy(upstream, ChaosConfig()) as proxy:
        target = parse_address(proxy.address)[1]
        with socket.create_connection(target, DEADLINE_S) as client:
            server_side, _ = upstream_listener.accept()
            with server_side:
                server_side.settimeout(DEADLINE_S)
                assert client.recv(1) == b""
                assert server_side.recv(1) == b""
    assert [sock.fileno() for sock in handed] == [-1, -1]


# ----------------------------------------------------------------------
# The inventory: each local acquisition has its failure-path test
# ----------------------------------------------------------------------
SITES = {
    "repro.transport.sockets.open_listener": (
        test_open_listener_closes_the_socket_when_bind_fails,
    ),
    "repro.transport.sockets.dial": (
        test_dial_closes_the_socket_when_connect_is_refused,
    ),
    "repro.transport.sockets.SocketTransport._accept_loop": (
        test_transport_accept_loop_survives_a_bad_hello,
    ),
    "repro.transport.worker.Worker._connect": (
        test_worker_connect_closes_the_dial_on_a_wrong_welcome,
    ),
    "repro.transport.chaos.ChaosProxy._accept_loop": (
        test_chaos_proxy_hangs_up_on_the_client_when_upstream_is_down,  # accept
        test_chaos_proxy_closes_both_sockets_when_the_handoff_fails,  # dial
    ),
}
ACQUIRERS = {"socket", "dial", "open_listener", "accept", "open", "fdopen", "socketpair"}


def _local_acquisitions(path: Path, scope: str) -> list[str]:
    """Enclosing function of each acquirer call bound to a local name.

    A ``with`` item or a store into ``self.`` hands the resource off,
    so neither counts.
    """
    found: list[str] = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            value = getattr(child, "value", None)
            if isinstance(child, (ast.Assign, ast.AnnAssign)) and isinstance(value, ast.Call):
                func = value.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                targets = child.targets if isinstance(child, ast.Assign) else [child.target]
                bound = [e for t in targets for e in getattr(t, "elts", [t])]
                if name in ACQUIRERS and any(isinstance(e, ast.Name) for e in bound):
                    found.append(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text()), scope)
    return found


def test_every_acquisition_site_has_a_failure_path_test():
    package = Path(repro.__file__).parent
    paths = [*sorted((package / "transport").glob("*.py")), package / "fl" / "population.py"]
    found = Counter(
        site
        for path in paths
        for site in _local_acquisitions(
            path, ".".join(path.relative_to(package.parent).with_suffix("").parts)
        )
    )
    assert found == {site: len(tests) for site, tests in SITES.items()}
