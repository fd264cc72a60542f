"""The daemon CLI, ``python -m repro.service.daemon``, as a process.

Each daemon runs in a new session, and the test kills that process
group when it ends, so no server outlives a failed assertion.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

pytestmark = pytest.mark.skipif(
    not hasattr(socket, "SO_REUSEPORT"), reason="needs SO_REUSEPORT")


def start_daemon(tmp_path, *args) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.Popen(
        [sys.executable, "-m", "repro.service.daemon", "--size", "tiny",
         "--artifact-root", str(tmp_path / "artifacts"), *args],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT, text=True, start_new_session=True)


def kill_group(process: subprocess.Popen) -> None:
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait(timeout=10)
    process.stdout.close()


def get(port: int, path: str):
    with urllib.request.urlopen(f"http://127.0.0.1:{port}{path}",
                                timeout=5) as response:
        return response.status, json.loads(response.read())


def free_port() -> int:
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        return probe.getsockname()[1]


def group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def test_one_worker_serves_on_the_port_it_prints(tmp_path):
    daemon = start_daemon(tmp_path, "--workers", "1", "--port", "0")
    try:
        port = None
        for line in daemon.stdout:
            found = re.search(r"serving .* on 127\.0\.0\.1:(\d+)$",
                              line.strip())
            if found:
                port = int(found.group(1))
                break
        assert port, "the daemon never printed its port"
        status, payload = get(port, "/q/europe2013/has_link?a=1&b=2")
        assert status == 200
        assert payload["has_link"] is False
        assert (payload["a"], payload["b"]) == (1, 2)
    finally:
        kill_group(daemon)


def test_workers_need_a_fixed_port(tmp_path):
    daemon = start_daemon(tmp_path, "--workers", "2", "--port", "0")
    try:
        output, _ = daemon.communicate(timeout=60)
        assert daemon.returncode == 2
        assert "--workers > 1 needs a fixed --port" in output
    finally:
        kill_group(daemon)


def test_sigterm_ends_every_worker(tmp_path):
    port = free_port()
    daemon = start_daemon(tmp_path, "--workers", "2", "--port", str(port))
    try:
        deadline = time.monotonic() + 60
        while True:
            assert daemon.poll() is None, daemon.stdout.read()
            try:
                if get(port, "/health")[0] == 200:
                    break
            except (OSError, urllib.error.URLError):
                pass
            assert time.monotonic() < deadline, "workers never answered"
            time.sleep(0.1)
        daemon.send_signal(signal.SIGTERM)
        daemon.wait(timeout=5)
        deadline = time.monotonic() + 5
        while group_alive(daemon.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not group_alive(daemon.pid), "a worker outlived SIGTERM"
    finally:
        kill_group(daemon)
