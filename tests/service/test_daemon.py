"""Query daemon: dispatch semantics, HTTP front, warm-up, load client."""

import hashlib
import json
import socket
import urllib.error
import urllib.request

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, seed, settings
from hypothesis import strategies as st

from repro.service import daemon
from repro.service.artifact import load_matrix
from repro.service.daemon import (
    ENDPOINTS,
    QueryService,
    ServerThread,
    warm_service,
)
from repro.service.loadgen import HttpClient, percentile, run_load


#: (query, the parameter its 400 names): values that are not ASNs.
NOT_ASNS = [
    ("links_of?asn=1_001", "asn"),
    ("links_of?asn=+1001", "asn"),
    ("links_of?asn=%201001%20", "asn"),
    ("links_of?asn=%D9%A1%D9%A0%D9%A0%D9%A1", "asn"),
    ("links_of?asn=-5", "asn"),
    ("links_of?asn=1099511627776", "asn"),
    ("links_of?asn=00000001001", "asn"),
    ("has_link?a=4294967296&b=1001", "a"),
    ("has_link?a=1001&b=1e3", "b"),
]


@pytest.fixture(scope="module")
def warm(tmp_path_factory):
    root = tmp_path_factory.mktemp("artifacts")
    service, directories = warm_service(["europe2013"], size="tiny",
                                        artifact_root=root, verify=True)
    return service, directories


class TestDispatch:
    def test_health_and_scenarios(self, warm):
        service, _ = warm
        status, payload = service.dispatch("/health")
        assert status == 200 and payload["scenarios"] == ["europe2013"]
        status, payload = service.dispatch("/scenarios")
        assert payload["scenarios"]["europe2013"]["has_table2"] is True

    def test_has_link_matches_artifact(self, warm):
        service, _ = warm
        handle = service.handles["europe2013"]
        a, b = (int(x) for x in handle.all_links[0])
        status, payload = service.dispatch(
            f"/q/europe2013/has_link?a={a}&b={b}")
        assert (status, payload["has_link"]) == (200, True)
        status, payload = service.dispatch(
            f"/q/europe2013/has_link?a={b}&b={a}")
        assert payload["has_link"] is True  # symmetric
        status, payload = service.dispatch(
            "/q/europe2013/has_link?a=1&b=2")
        assert payload["has_link"] is False

    def test_links_of_and_peer_counts_agree(self, warm):
        service, _ = warm
        handle = service.handles["europe2013"]
        asn = int(handle.peer_asns[0])
        status, payload = service.dispatch(
            f"/q/europe2013/links_of?asn={asn}")
        assert status == 200
        assert payload["peers"] == handle.links_of(asn)
        status, counts = service.dispatch("/q/europe2013/peer_counts")
        assert counts["counts"][str(asn)] == payload["count"]
        assert sum(counts["counts"].values()) == 2 * handle.num_links

    def test_table2_and_densities(self, warm):
        service, _ = warm
        handle = service.handles["europe2013"]
        status, payload = service.dispatch("/q/europe2013/table2")
        assert (status, payload["rows"]) == (200, handle.table2)
        status, payload = service.dispatch("/q/europe2013/member_densities")
        assert status == 200
        direct = handle.member_densities()
        assert {ixp: {int(a): v for a, v in per.items()}
                for ixp, per in payload["densities"].items()} == direct

    def test_error_paths(self, warm):
        service, _ = warm
        assert service.dispatch("/q/nope/table2")[0] == 404
        assert service.dispatch("/q/europe2013/nope")[0] == 404
        assert service.dispatch("/bogus")[0] == 404
        status, payload = service.dispatch("/q/europe2013/has_link?a=1")
        assert (status, "missing" in payload["error"]) == (400, True)
        status, payload = service.dispatch("/q/europe2013/has_link?a=x&b=1")
        assert status == 400
        # Parameters are ASNs: 1-10 ASCII digits up to 2**32 - 1.  int()
        # alone would read most of these as AS1001 or as an AS with no
        # peers.
        for query, name in NOT_ASNS:
            status, payload = service.dispatch(f"/q/europe2013/{query}")
            assert status == 400, query
            assert f"parameter {name!r}" in payload["error"], query
        assert service.dispatch(
            "/q/europe2013/links_of?asn=1001")[1]["count"] > 0
        status, payload = service.dispatch(
            "/q/europe2013/has_link?a=4294967295&b=0001001")
        assert (status, payload["a"], payload["b"]) == (200, 4294967295,
                                                       1001)

    def test_stats_counts_requests(self, warm):
        service, _ = warm
        before = service.counters.get("summary", 0)
        service.dispatch("/q/europe2013/summary")
        status, payload = service.dispatch("/stats")
        assert payload["counters"]["summary"] == before + 1
        assert payload["counters"]["bad_request"] >= 1

    def test_workers_share_artifacts_by_directory(self, warm):
        # What each forked worker does: re-load the exported artifact
        # directories (mmap) without touching the pipeline.
        _, directories = warm
        worker = QueryService.from_artifacts(directories)
        assert worker.scenario_names() == ["europe2013"]
        status, payload = worker.dispatch("/q/europe2013/summary")
        assert (status, payload["scenario"]) == (200, "europe2013")


class TestHttpFront:
    def test_endpoints_over_real_socket(self, warm):
        service, _ = warm
        handle = service.handles["europe2013"]
        a, b = (int(x) for x in handle.all_links[0])
        with ServerThread(service) as server:
            url = f"http://127.0.0.1:{server.port}"
            with urllib.request.urlopen(f"{url}/health", timeout=10) as resp:
                assert resp.status == 200
                assert json.load(resp)["scenarios"] == ["europe2013"]
            # keep-alive client: several requests on one connection
            with HttpClient("127.0.0.1", server.port) as client:
                status, payload = client.request(
                    f"/q/europe2013/has_link?a={a}&b={b}")
                assert (status, payload["has_link"]) == (200, True)
                status, payload = client.request("/q/europe2013/table2")
                assert payload["rows"] == handle.table2
                status, payload = client.request("/q/europe2013/bogus")
                assert status == 404
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(
                    f"{url}/q/europe2013/has_link?a=x&b=1", timeout=10)
            assert info.value.code == 400

    def test_load_generator_reports_latencies(self, warm):
        service, _ = warm
        with ServerThread(service) as server:
            report = run_load("127.0.0.1", server.port, "summary",
                              ["/q/europe2013/summary"], repeat=25)
        assert report.requests == 25
        assert report.errors == 0
        assert 0 < report.p50_us <= report.p99_us
        assert report.qps > 0


def _raw_exchange(port: int, payload: bytes, timeout: float = 10.0) -> bytes:
    """Send *payload* on a raw socket and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        if payload:
            sock.sendall(payload)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _status_of(reply: bytes) -> int:
    return int(reply.split(b"\r\n", 1)[0].split()[1])


class TestRequestLimits:
    def test_idle_client_is_dropped(self, warm, monkeypatch):
        monkeypatch.setattr(daemon, "IDLE_TIMEOUT_S", 0.2)
        service, _ = warm
        with ServerThread(service) as server:
            # Nothing sent: the daemon closes the connection, no reply.
            assert _raw_exchange(server.port, b"", timeout=5.0) == b""
            # Idle after a complete request: the reply, then the close.
            reply = _raw_exchange(server.port,
                                  b"GET /health HTTP/1.1\r\n\r\n",
                                  timeout=5.0)
            assert _status_of(reply) == 200

    def test_header_flood_is_rejected(self, warm):
        service, _ = warm
        flood = b"GET /health HTTP/1.1\r\n" + b"".join(
            b"X-Flood-%d: x\r\n" % i for i in range(1000)) + b"\r\n"
        with ServerThread(service) as server:
            reply = _raw_exchange(server.port, flood)
        assert _status_of(reply) == 431
        assert b"Connection: close" in reply

    def test_long_request_line_is_rejected(self, warm):
        service, _ = warm
        line = b"GET /q/europe2013/has_link?a=" + b"1" * 100_000 + \
            b"&b=2 HTTP/1.1\r\n\r\n"
        with ServerThread(service) as server:
            reply = _raw_exchange(server.port, line)
        assert _status_of(reply) == 400

    def test_long_header_line_is_rejected(self, warm):
        service, _ = warm
        request = (b"GET /health HTTP/1.1\r\nX-Big: "
                   + b"y" * (2 * daemon.MAX_LINE_BYTES) + b"\r\n\r\n")
        with ServerThread(service) as server:
            reply = _raw_exchange(server.port, request)
        assert _status_of(reply) == 431

    def test_headers_up_to_the_cap_are_served(self, warm):
        service, _ = warm
        request = b"GET /health HTTP/1.1\r\n" + b"".join(
            b"X-H-%d: x\r\n" % i for i in range(daemon.MAX_HEADERS)) + \
            b"Connection: close\r\n\r\n"
        with ServerThread(service) as server:
            # MAX_HEADERS custom headers plus Connection: one over the
            # cap is rejected, so drop one and expect a normal answer.
            reply = _raw_exchange(server.port, request.replace(
                b"X-H-0: x\r\n", b"", 1))
        assert _status_of(reply) == 200


def _send_and_close(port: int, payload: bytes,
                    timeout: float = 10.0) -> bytes:
    """Send *payload*, half-close, and read until the server closes."""
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(payload)
        sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(1 << 16)
            if not chunk:
                return b"".join(chunks)
            chunks.append(chunk)


def _parse_replies(stream: bytes):
    """Split a reply stream into HTTP/1.1 responses with JSON bodies;
    returns their statuses.  Anything unparsable fails the test."""
    statuses = []
    while stream:
        head, separator, rest = stream.partition(b"\r\n\r\n")
        assert separator, stream[:200]
        status_line, *header_lines = head.decode("latin-1").split("\r\n")
        version, status, _reason = status_line.split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = dict(line.split(": ", 1) for line in header_lines)
        length = int(headers["Content-Length"])
        assert len(rest) >= length, (status_line, len(rest), length)
        json.loads(rest[:length])
        statuses.append(int(status))
        stream = rest[length:]
    return statuses


#: Text without CR/LF (one HTTP line per generated piece).
_WORDS = st.text(st.characters(blacklist_characters="\r\n",
                               blacklist_categories=("Cs",)), max_size=24)
_TARGETS = st.one_of(
    st.sampled_from(["/", "/health", "/stats", "/scenarios", "//[",
                     "/q/europe2013/has_link?a=1&b=2",
                     "/q/europe2013/links_of?asn=x", "/q/nowhere/summary",
                     "/q/europe2013/bogus", "http://[::1/health",
                     *(f"/q/europe2013/{query}" for query, _ in NOT_ASNS)]),
    st.builds("/q/europe2013/{}?{}".format, st.sampled_from(ENDPOINTS),
              _WORDS),
    _WORDS)
_METHODS = st.one_of(st.sampled_from(["GET", "POST", "HEAD", "get"]), _WORDS)
_VERSIONS = st.one_of(st.sampled_from(["HTTP/1.1", "HTTP/1.0"]), _WORDS)
_REQUEST_LINES = st.one_of(
    st.builds("{} {} {}".format, _METHODS, _TARGETS, _VERSIONS),
    st.builds("{} {}".format, _METHODS, _TARGETS),
    _WORDS.filter(bool))
_HEADERS = st.lists(st.one_of(
    st.builds("{}: {}".format, _WORDS, _WORDS),
    st.just("Connection: close"),
    st.just("X-Big: " + "y" * daemon.MAX_LINE_BYTES),
    _WORDS), max_size=6)


class TestRequestFuzz:
    @pytest.fixture(scope="class")
    def server(self, warm):
        service, _ = warm
        with ServerThread(service) as server:
            yield server

    @seed(20130507)
    @settings(max_examples=150, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(request_line=_REQUEST_LINES, headers=_HEADERS)
    @example(request_line="GET //[ HTTP/1.1", headers=[])
    @example(request_line="GET /health", headers=[])
    def test_random_requests_get_http_replies(self, server, request_line,
                                              headers):
        """Any request line and headers get well-formed HTTP replies
        with a known status, and the daemon keeps serving."""
        payload = "\r\n".join([request_line, *headers, "", ""])
        replies = _parse_replies(_send_and_close(
            server.port, payload.encode("utf-8")))
        assert replies, payload
        assert set(replies) <= {200, 400, 404, 405, 431}, replies
        health = _parse_replies(_send_and_close(
            server.port, b"GET /health HTTP/1.1\r\n\r\n"))
        assert health == [200]


class TestWarmService:
    def test_artifacts_land_under_root_and_reload(self, warm, tmp_path):
        _, directories = warm
        (directory,) = directories
        assert directory.name == "europe2013-tiny"
        handle = load_matrix(directory)
        assert handle.scenario == "europe2013"

    def test_verify_catches_doctored_artifacts(self, tmp_path):
        # Flip one packed word on disk and re-record its checksum, so
        # the doctored artifact loads; warm-up with verify=True must
        # still refuse to serve it.
        service, (directory,) = warm_service(
            ["europe2013"], size="tiny",
            artifact_root=tmp_path / "a", verify=False)
        column = directory / "plane_00_allow.npy"
        allow = np.load(column)
        allow[0, 0] ^= 1
        np.save(column, allow)
        header = json.loads((directory / "header.json").read_text())
        header["sha256"][column.name] = \
            hashlib.sha256(column.read_bytes()).hexdigest()
        (directory / "header.json").write_text(json.dumps(header))
        from repro.pipeline import ScenarioRun
        from repro.scenarios.spec import get_scenario
        from repro.service.artifact import verify_identity
        run = ScenarioRun(get_scenario("europe2013").config("tiny"),
                          scenario="europe2013")
        problems = verify_identity(run.reachability(),
                                   load_matrix(directory),
                                   table2=run.table2())
        assert problems


class TestPercentile:
    def test_nearest_rank(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 0.5) == 3.0
        assert percentile(values, 1.0) == 5.0
        assert percentile([7.0], 0.99) == 7.0

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile([1.0], 1.5)

    def test_endpoint_list_is_stable(self):
        assert ENDPOINTS == ("has_link", "links_of", "peer_counts",
                             "member_densities", "table2", "summary")
