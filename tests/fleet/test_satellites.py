"""Satellite coverage: client retry/timeout policy.

The :class:`ServeClient` retry contract is asserted against real sockets
that misbehave in controlled ways: nothing listening (refused → one
retry → :class:`ClientConnectionError` naming the endpoint), a server
that accepts but never answers (timeout → :class:`ClientTimeoutError`,
provably *not* retried), and a keep-alive peer that drops the idle
connection (transparent one-shot re-send).
"""

import socket
import threading

import pytest

from repro.serve.client import (
    ClientConnectionError,
    ClientTimeoutError,
    ServeClient,
)


def free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def _recv_request(conn) -> bytes:
    data = b""
    while b"\r\n\r\n" not in data:
        chunk = conn.recv(4096)
        if not chunk:
            return data
        data += chunk
    return data


class _Server:
    """Minimal threaded TCP server with a pluggable per-connection handler."""

    def __init__(self, handler):
        self.sock = socket.socket()
        self.sock.bind(("127.0.0.1", 0))
        self.sock.listen(8)
        self.port = self.sock.getsockname()[1]
        self.connections = 0
        self._handler = handler
        self._conns = []
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()

    def _loop(self):
        while True:
            try:
                conn, _addr = self.sock.accept()
            except OSError:
                return
            self.connections += 1
            self._conns.append(conn)
            self._handler(conn)

    def close(self):
        self.sock.close()
        for conn in self._conns:
            try:
                conn.close()
            except OSError:
                pass
        self._thread.join(2.0)


class TestClientConnectionErrors:
    def test_connection_refused_retries_once_then_names_endpoint(self):
        port = free_port()   # nothing listening here
        client = ServeClient("127.0.0.1", port)
        with pytest.raises(ClientConnectionError) as excinfo:
            client.health()
        message = str(excinfo.value)
        assert f"GET /healthz on 127.0.0.1:{port}" in message
        assert "after one retry" in message
        assert "is the service running?" in message
        # The typed error is still a ConnectionError for except-clauses
        # written against the stdlib hierarchy.
        assert isinstance(excinfo.value, ConnectionError)

    def test_timeout_is_not_retried(self):
        server = _Server(lambda conn: _recv_request(conn))  # never answers
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=0.3)
            with pytest.raises(ClientTimeoutError) as excinfo:
                client.health()
            message = str(excinfo.value)
            assert f"GET /healthz on 127.0.0.1:{server.port}" in message
            assert "not retried" in message
            assert isinstance(excinfo.value, TimeoutError)
            # Exactly one connection, exactly one request on the wire.
            assert server.connections == 1
        finally:
            server.close()

    def test_per_request_timeout_overrides_client_default(self):
        server = _Server(lambda conn: _recv_request(conn))
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=600.0)
            with pytest.raises(ClientTimeoutError) as excinfo:
                client.health(timeout=0.2)
            assert "0.2s" in str(excinfo.value)
        finally:
            server.close()

    def test_dead_keepalive_socket_is_resent_once(self):
        body = b'{"status": "ok"}'
        response = (b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    b"Content-Length: %d\r\n"
                    b"Connection: keep-alive\r\n\r\n%s" % (len(body), body))

        def one_shot(conn):
            # Claim keep-alive, answer once, then drop the connection —
            # the client's next request hits a dead pooled socket.
            _recv_request(conn)
            conn.sendall(response)
            conn.close()

        server = _Server(one_shot)
        try:
            client = ServeClient("127.0.0.1", server.port, timeout=5.0)
            assert client.health() == {"status": "ok"}
            # Transparent reconnect + re-send; the caller never notices.
            assert client.health() == {"status": "ok"}
            assert server.connections == 2
        finally:
            server.close()
