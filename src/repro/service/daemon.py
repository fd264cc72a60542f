"""The reachability query daemon.

A long-lived service in front of the pipeline: at startup it *warms*
the artifact cache for the registered scenarios it is asked to serve
(building each scenario through :class:`~repro.pipeline.run.ScenarioRun`
on first boot, hitting the disk artifact cache afterwards), exports
each reachability matrix as the mmap-able artifact of
:mod:`repro.service.artifact`, re-loads it via ``mmap`` and — by
default — asserts bit-identity between the built matrix and the loaded
artifact before serving a single query.

The transport is a deliberately dependency-free HTTP/1.1 front over
``asyncio`` streams (GET + keep-alive only — exactly what a load
balancer health check and a JSON API client need).  Endpoints::

    GET /health                          liveness + scenario list
    GET /scenarios                       per-scenario artifact summaries
    GET /stats                           per-endpoint request counters
    GET /q/<scenario>/has_link?a=&b=     link membership (bool)
    GET /q/<scenario>/links_of?asn=      sorted MLP peers of one AS
    GET /q/<scenario>/peer_counts        per-AS distinct peer counts
    GET /q/<scenario>/member_densities   per-IXP per-member densities
    GET /q/<scenario>/table2             the paper's Table 2 rows
    GET /q/<scenario>/summary            headline artifact numbers

JSON object keys are strings (so ASN-keyed maps arrive as
``{"64500": 3}``); every payload echoes its inputs.

``workers > 1`` forks that many processes, each binding the same
address with ``SO_REUSEPORT`` and mmap-loading the same artifact
directories — the kernel load-balances accepts and the page cache
holds ONE copy of every plane regardless of worker count.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union
from urllib.parse import parse_qs, urlsplit

from repro.service.artifact import ArtifactHandle, load_matrix

#: The per-scenario query endpoints (under ``/q/<scenario>/``).
ENDPOINTS = ("has_link", "links_of", "peer_counts", "member_densities",
             "table2", "summary")

_STATUS_TEXT = {200: "OK", 400: "Bad Request", 404: "Not Found",
                405: "Method Not Allowed",
                431: "Request Header Fields Too Large"}

#: Largest ASN a query parameter may name (32-bit ASNs, RFC 6793).
MAX_ASN = 4294967295
#: Seconds a connection may sit idle waiting for (the rest of) a request
#: before the daemon closes it, so idle clients cannot pin connections.
IDLE_TIMEOUT_S = 30.0
#: Longest accepted request or header line, in bytes (the stream
#: reader's buffer limit).  A longer request line is answered 400, a
#: longer header line 431, and the connection is closed.
MAX_LINE_BYTES = 8192
#: Most header lines accepted per request; one more is answered 431.
MAX_HEADERS = 100
#: Seconds a rejected connection keeps discarding the client's unread
#: input after the error reply, so closing does not reset the
#: connection before the client has read the reply.
LINGER_S = 1.0


class QueryService:
    """Scenario-keyed artifact handles plus the dispatch table.

    Transport-free: :meth:`dispatch` maps a request target (path +
    query string) to ``(http status, JSON-safe payload)``, so tests and
    the load generator can drive the service without a socket, and the
    HTTP layer stays a thin wrapper.
    """

    def __init__(self) -> None:
        self.handles: Dict[str, ArtifactHandle] = {}
        #: (scenario, endpoint) -> the (status, payload) answer of every
        #: parameter-free endpoint, built once per artifact and shared
        #: by every request: callers must not mutate a payload.
        self.answers: Dict[Tuple[str, str], Tuple[int, dict]] = {}
        self.counters: Dict[str, int] = {}
        self.started = time.time()

    # -- scenario management -------------------------------------------------

    def add_handle(self, name: str, handle: ArtifactHandle) -> None:
        self.handles[name] = handle
        counts = handle.peer_counts()
        densities = {ixp: {str(asn): value for asn, value in sorted(per.items())}
                     for ixp, per in sorted(handle.member_densities().items())}
        self.answers.update({
            (name, "peer_counts"): (200, {
                "scenario": name, "ases": len(counts),
                "counts": {str(asn): count for asn, count in counts.items()}}),
            (name, "member_densities"): (200, {
                "scenario": name, "densities": densities}),
            (name, "table2"): (
                (404, {"error": f"artifact for {name!r} was saved without "
                                "Table 2 rows"})
                if handle.table2 is None
                else (200, {"scenario": name, "rows": handle.table2})),
            (name, "summary"): (200, {"scenario": name, **handle.summary()}),
        })

    def scenario_names(self) -> List[str]:
        return sorted(self.handles)

    @classmethod
    def from_artifacts(cls, directories: Iterable[Union[str, Path]],
                       mmap: bool = True) -> "QueryService":
        """A service over already-exported artifact directories (what
        forked workers run — no pipeline, just mmap loads)."""
        service = cls()
        for directory in directories:
            handle = load_matrix(directory, mmap=mmap)
            service.add_handle(
                str(handle.scenario or Path(directory).name), handle)
        return service

    # -- dispatch ------------------------------------------------------------

    def _count(self, key: str) -> None:
        self.counters[key] = self.counters.get(key, 0) + 1

    def dispatch(self, target: str) -> Tuple[int, dict]:
        """Resolve one request target to ``(status, payload)``."""
        try:
            parts = urlsplit(target)
        except ValueError as error:  # e.g. "//[": an unclosed IPv6 host
            self._count("bad_request")
            return 400, {"error": f"malformed request target: {error}"}
        path = [p for p in parts.path.split("/") if p]
        params = parse_qs(parts.query)
        try:
            if not path or path == ["health"]:
                self._count("health")
                return 200, {"status": "ok",
                             "scenarios": self.scenario_names(),
                             "uptime_seconds": round(
                                 time.time() - self.started, 3)}
            if path == ["scenarios"]:
                self._count("scenarios")
                return 200, {"scenarios": {
                    name: handle.summary()
                    for name, handle in sorted(self.handles.items())}}
            if path == ["stats"]:
                self._count("stats")
                return 200, {"counters": dict(sorted(self.counters.items())),
                             "scenarios": self.scenario_names(),
                             "uptime_seconds": round(
                                 time.time() - self.started, 3)}
            if len(path) == 3 and path[0] == "q":
                return self._dispatch_query(path[1], path[2], params)
            self._count("not_found")
            return 404, {"error": f"unknown path {parts.path!r}",
                         "endpoints": list(ENDPOINTS)}
        except _BadRequest as error:
            self._count("bad_request")
            return 400, {"error": str(error)}

    def _dispatch_query(self, scenario: str, endpoint: str,
                        params: Dict[str, List[str]]) -> Tuple[int, dict]:
        handle = self.handles.get(scenario)
        if handle is None:
            self._count("not_found")
            return 404, {"error": f"unknown scenario {scenario!r}",
                         "scenarios": self.scenario_names()}
        if endpoint not in ENDPOINTS:
            self._count("not_found")
            return 404, {"error": f"unknown endpoint {endpoint!r}",
                         "endpoints": list(ENDPOINTS)}
        self._count(endpoint)
        if endpoint == "has_link":
            a = _asn_param(params, "a")
            b = _asn_param(params, "b")
            return 200, {"scenario": scenario, "a": a, "b": b,
                         "has_link": handle.has_link(a, b)}
        if endpoint == "links_of":
            asn = _asn_param(params, "asn")
            peers = handle.links_of(asn)
            return 200, {"scenario": scenario, "asn": asn,
                         "count": len(peers), "peers": peers}
        return self.answers[scenario, endpoint]


class _BadRequest(ValueError):
    """A malformed query parameter (mapped to HTTP 400)."""


def _asn_param(params: Dict[str, List[str]], name: str) -> int:
    """Parameter *name* as an ASN: 1-10 ASCII digits, at most
    :data:`MAX_ASN` (no sign, blank, ``_`` or non-ASCII digit)."""
    values = params.get(name)
    if not values:
        raise _BadRequest(f"missing required parameter {name!r}")
    value = values[0]
    if len(value) <= 10 and value.isascii() and value.isdigit() \
            and int(value) <= MAX_ASN:
        return int(value)
    raise _BadRequest(f"parameter {name!r} must be an ASN (1-10 digits, "
                      f"at most {MAX_ASN}), got {value!r}")


# -- warm-up -------------------------------------------------------------------


def warm_service(scenarios: Sequence[str],
                 size: str = "tiny",
                 artifact_root: Union[str, Path] = "artifacts",
                 cache_dir: Optional[Union[str, Path]] = None,
                 verify: bool = True,
                 route_cache_max_bytes: Optional[int] = 64 * 1024 * 1024,
                 ) -> Tuple[QueryService, List[Path]]:
    """Build/export/load every requested scenario; returns the service.

    Per scenario: run the pipeline through
    :class:`~repro.pipeline.run.ScenarioRun` against a (optionally
    disk-backed) artifact cache — the warm-up that makes daemon
    restarts cheap — export the reachability matrix plus Table 2 as
    the mmap-able artifact under ``<artifact_root>/<name>-<size>``,
    mmap-load it back and (default) assert bit-identity between the
    built matrix and the loaded artifact before serving it.  The
    scenario context's route cache is bounded to
    *route_cache_max_bytes* so a daemon warming many scenarios cannot
    grow without limit.

    Returns ``(service, artifact_dirs)`` — the directories are what
    forked workers re-load via :meth:`QueryService.from_artifacts`.
    """
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.spec import get_scenario

    artifact_root = Path(artifact_root)
    service = QueryService()
    directories: List[Path] = []
    for name in scenarios:
        spec = get_scenario(name)
        run = ScenarioRun(spec.config(size), scenario=name,
                          cache=ArtifactCache(cache_dir))
        if route_cache_max_bytes is not None:
            run.scenario().context.route_cache.set_max_bytes(
                route_cache_max_bytes)
        directory = run.export_reachability(artifact_root / f"{name}-{size}",
                                            size=size)
        handle = load_matrix(directory, mmap=True)
        if verify:
            from repro.service.artifact import verify_identity
            problems = verify_identity(run.reachability(), handle,
                                       table2=run.table2())
            if problems:
                raise AssertionError(
                    f"artifact for {name!r} is not bit-identical to the "
                    f"in-memory matrix: {problems}")
        service.add_handle(name, handle)
        directories.append(directory)
    return service, directories


# -- HTTP front ----------------------------------------------------------------


class _RequestRejected(Exception):
    """A request the daemon answers with an error and then closes."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_line(reader: asyncio.StreamReader, status: int) -> bytes:
    """One request/header line within the idle timeout; an over-long
    line is rejected with *status*."""
    try:
        return await asyncio.wait_for(reader.readline(), IDLE_TIMEOUT_S)
    except ValueError:  # the line outgrew the reader's MAX_LINE_BYTES
        raise _RequestRejected(status, f"line longer than "
                                       f"{MAX_LINE_BYTES} bytes") from None


def _response(status: int, payload, keep_alive: bool) -> bytes:
    body = json.dumps(payload).encode("utf-8")
    return (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'OK')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}"
            f"\r\n\r\n").encode("latin-1") + body


async def _handle_connection(service: QueryService,
                             reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
    try:
        while True:
            request_line = await _read_line(reader, 400)
            if not request_line or request_line in (b"\r\n", b"\n"):
                break
            try:
                method, target, _version = \
                    request_line.decode("latin-1").split(None, 2)
            except ValueError:
                raise _RequestRejected(
                    400, "request line must be METHOD TARGET VERSION") \
                    from None
            keep_alive = True
            headers = 0
            while True:  # drain headers
                header = await _read_line(reader, 431)
                if not header or header in (b"\r\n", b"\n"):
                    break
                headers += 1
                if headers > MAX_HEADERS:
                    raise _RequestRejected(
                        431, f"more than {MAX_HEADERS} header lines")
                if header.lower().startswith(b"connection:") and \
                        b"close" in header.lower():
                    keep_alive = False
            if method.upper() != "GET":
                status, payload = 405, {"error": "only GET is supported"}
            else:
                status, payload = service.dispatch(target)
            writer.write(_response(status, payload, keep_alive))
            await writer.drain()
            if not keep_alive:
                break
    except _RequestRejected as rejected:
        try:
            writer.write(_response(rejected.status,
                                   {"error": rejected.message}, False))
            writer.write_eof()
            await writer.drain()
            while await asyncio.wait_for(reader.read(1 << 16), LINGER_S):
                pass
        except (asyncio.TimeoutError, ConnectionResetError,
                BrokenPipeError):
            pass
    except asyncio.TimeoutError:  # idle client: drop the connection
        pass
    except (ConnectionResetError, BrokenPipeError):  # client went away
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def start_server(service: QueryService, host: str = "127.0.0.1",
                       port: int = 0,
                       reuse_port: bool = False) -> asyncio.AbstractServer:
    """Bind the asyncio server (``port=0`` picks an ephemeral port)."""

    async def handler(reader, writer):
        try:
            await _handle_connection(service, reader, writer)
        except asyncio.CancelledError:
            # Server shutdown cancels in-flight handlers; ending the
            # task cleanly keeps asyncio.streams' done-callback from
            # re-raising the cancellation into the closing loop.
            pass

    kwargs = {"reuse_port": True} if reuse_port else {}
    return await asyncio.start_server(handler, host=host, port=port,
                                      limit=MAX_LINE_BYTES, **kwargs)


def bound_port(server: asyncio.AbstractServer) -> int:
    return server.sockets[0].getsockname()[1]


class ServerThread:
    """Run one query server on a background thread (tests/benches).

    Context manager: entering starts an event loop + server on a daemon
    thread and publishes the bound ``port``; exiting stops the loop and
    joins the thread.
    """

    def __init__(self, service: QueryService, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port: Optional[int] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._requested_port = port
        self._ready = threading.Event()
        self._failure: Optional[BaseException] = None
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            server = loop.run_until_complete(start_server(
                self.service, self.host, self._requested_port))
        except BaseException as error:  # surface bind errors to the caller
            self._failure = error
            self._ready.set()
            loop.close()
            return
        self.port = bound_port(server)
        self._ready.set()
        try:
            loop.run_forever()
        finally:
            server.close()
            loop.run_until_complete(server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True))
            loop.close()

    def __enter__(self) -> "ServerThread":
        self._thread.start()
        self._ready.wait(timeout=30)
        if self._failure is not None:
            raise self._failure
        if self.port is None:
            raise RuntimeError("server thread failed to start")
        return self

    def __exit__(self, *exc_info) -> None:
        if self._loop is not None and self._loop.is_running():
            self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(timeout=30)


# -- multi-process serving -----------------------------------------------------


def _worker_main(directories: List[str], host: str, port: int) -> None:
    """One forked worker: mmap-load the artifacts, serve forever."""
    service = QueryService.from_artifacts(directories)

    async def _serve() -> None:
        server = await start_server(service, host, port, reuse_port=True)
        async with server:
            await server.serve_forever()

    asyncio.run(_serve())


def serve_forever(service: QueryService, directories: Sequence[Path],
                  host: str = "127.0.0.1", port: int = 8321,
                  workers: int = 1) -> None:
    """Serve until interrupted; ``workers > 1`` forks SO_REUSEPORT peers.

    Every worker process mmap-loads the same artifact directories, so
    the resident planes are shared through the page cache.  Falls back
    to a single in-process server where ``SO_REUSEPORT`` is missing.
    """
    if workers > 1 and hasattr(socket, "SO_REUSEPORT"):
        import multiprocessing
        context = multiprocessing.get_context("fork")
        children = [
            context.Process(
                target=_worker_main,
                args=([str(d) for d in directories], host, port),
                daemon=True)
            for _ in range(workers)]
        for child in children:
            child.start()
        try:
            for child in children:
                child.join()
        finally:
            for child in children:
                if child.is_alive():
                    child.terminate()
        return

    async def _serve() -> None:
        server = await start_server(service, host, port)
        print(f"[repro.service] serving {service.scenario_names()} "
              f"on {host}:{bound_port(server)}")
        async with server:
            await server.serve_forever()

    asyncio.run(_serve())


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: warm the requested scenarios and serve them."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", action="append", default=None,
                        help="registered scenario to serve (repeatable; "
                             "default europe2013)")
    parser.add_argument("--size", default="tiny",
                        help="size-table row to build (default tiny)")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8321)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes sharing the port "
                             "(SO_REUSEPORT)")
    parser.add_argument("--artifact-root", type=Path,
                        default=Path("artifacts"),
                        help="directory for exported artifacts")
    parser.add_argument("--cache-dir", type=Path, default=None,
                        help="disk artifact cache for pipeline warm-up")
    parser.add_argument("--route-cache-max-bytes", type=int,
                        default=64 * 1024 * 1024,
                        help="LRU byte budget of each scenario context's "
                             "route cache (0 = unbounded)")
    parser.add_argument("--no-verify", action="store_true",
                        help="skip the mmap-vs-in-memory bit-identity "
                             "assertion at warm-up")
    args = parser.parse_args(argv)

    scenarios = args.scenario or ["europe2013"]
    service, directories = warm_service(
        scenarios, size=args.size, artifact_root=args.artifact_root,
        cache_dir=args.cache_dir, verify=not args.no_verify,
        route_cache_max_bytes=args.route_cache_max_bytes or None)
    for name in service.scenario_names():
        print(f"[repro.service] warmed {name}: "
              f"{service.handles[name].summary()}")
    serve_forever(service, directories, host=args.host, port=args.port,
                  workers=args.workers)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
