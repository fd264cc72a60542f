"""Load generator for the query daemon (the query-service example).

A minimal keep-alive HTTP/1.1 client over a plain socket — the point
is to measure the *daemon's* per-request latency, so the client must
not add connection setup or third-party-library overhead per request.
:func:`run_load` replays a list of request targets on one persistent
connection and returns a :class:`LoadReport` with p50/p99 latency
(microseconds) and throughput (queries/second).
"""

from __future__ import annotations

import json
import socket
import time
from dataclasses import dataclass, field
from typing import Any, List, Sequence, Tuple


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of *values*."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"q must be within [0, 1], got {q}")
    ranked = sorted(values)
    index = max(0, min(len(ranked) - 1,
                       int(-(-q * len(ranked) // 1)) - 1))  # ceil - 1
    return ranked[index]


class HttpClient:
    """Blocking keep-alive client for one daemon connection."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._buffer = b""

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "HttpClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _read_line(self) -> bytes:
        while b"\r\n" not in self._buffer:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        line, self._buffer = self._buffer.split(b"\r\n", 1)
        return line

    def _read_exact(self, count: int) -> bytes:
        while len(self._buffer) < count:
            chunk = self._sock.recv(65536)
            if not chunk:
                raise ConnectionError("server closed the connection")
            self._buffer += chunk
        body, self._buffer = self._buffer[:count], self._buffer[count:]
        return body

    def request(self, target: str) -> Tuple[int, Any]:
        """GET *target*; returns ``(status, decoded JSON payload)``."""
        self._sock.sendall(
            f"GET {target} HTTP/1.1\r\nHost: bench\r\n"
            f"Connection: keep-alive\r\n\r\n".encode("latin-1"))
        status = int(self._read_line().split()[1])
        length = 0
        while True:
            header = self._read_line()
            if not header:
                break
            name, _, value = header.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        return status, json.loads(self._read_exact(length))


@dataclass
class LoadReport:
    """Latency/throughput record of one endpoint's request batch."""

    endpoint: str
    latencies_us: List[float] = field(default_factory=list)
    seconds: float = 0.0
    errors: int = 0

    @property
    def requests(self) -> int:
        return len(self.latencies_us)

    @property
    def p50_us(self) -> float:
        return percentile(self.latencies_us, 0.50)

    @property
    def p99_us(self) -> float:
        return percentile(self.latencies_us, 0.99)

    @property
    def qps(self) -> float:
        return self.requests / self.seconds if self.seconds > 0 else 0.0


def run_load(host: str, port: int, endpoint: str,
             targets: Sequence[str], repeat: int = 1) -> LoadReport:
    """Replay *targets* (``repeat`` rounds) over one keep-alive
    connection, timing each request individually."""
    report = LoadReport(endpoint=endpoint)
    with HttpClient(host, port) as client:
        started = time.perf_counter()
        for _ in range(repeat):
            for target in targets:
                t0 = time.perf_counter()
                status, _payload = client.request(target)
                report.latencies_us.append(
                    (time.perf_counter() - t0) * 1e6)
                if status != 200:
                    report.errors += 1
        report.seconds = time.perf_counter() - started
    return report
