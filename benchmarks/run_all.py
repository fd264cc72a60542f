#!/usr/bin/env python3
"""Run every bench_* module and write a BENCH_<date>.json trajectory file.

Each benchmark module is executed in its own pytest subprocess so that
wall time and peak RSS are attributable per bench; every timed row
(bench modules, scenario matrix, build matrix) is a best-of-N
repetition after a warmup run rather than single-shot.  The JSON
trajectory (one file per invocation, named after the current date)
records the figure benches and matrices:

    python benchmarks/run_all.py                # all benches
    python benchmarks/run_all.py fig1 substrate # substring filter
    python benchmarks/run_all.py --out results.json

The invocation fails (exit code 1) when a bench, a scenario build, a
delta replay or a query row fails.  Performance regressions are judged
by ``perfbench/bench.py`` against the bounds in ``BENCHMARK.json``, not
here.

Requires pytest + pytest-benchmark (the tier-1 test environment).
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent


def discover_benches(filters: list[str]) -> list[Path]:
    benches = sorted(BENCH_DIR.glob("bench_*.py"))
    if filters:
        benches = [path for path in benches
                   if any(token in path.name for token in filters)]
    return benches


#: Timed repetitions per bench row (after one warmup); best-of-N is
#: recorded so sub-100ms rows do not just record scheduler noise.
BENCH_REPS = 3


def _run_bench_once(path: Path, timeout: float) -> dict:
    """One subprocess run of a bench module: wall time + peak RSS.

    The child is reaped with ``os.wait4`` so the recorded ``ru_maxrss``
    belongs to this bench alone (``RUSAGE_CHILDREN`` would report the
    running maximum over every bench reaped so far).
    """
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    command = [sys.executable, "-m", "pytest", str(path), "-q",
               "--benchmark-only", "--benchmark-disable-gc"]
    started = time.monotonic()
    process = subprocess.Popen(
        command, cwd=REPO_ROOT, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    timed_out = False

    def _kill() -> None:
        nonlocal timed_out
        timed_out = True
        process.kill()

    timer = threading.Timer(timeout, _kill)
    timer.start()
    try:
        output = process.stdout.read()
    finally:
        timer.cancel()
    _, status, usage = os.wait4(process.pid, 0)
    process.returncode = os.waitstatus_to_exitcode(status)
    wall = time.monotonic() - started
    max_rss_kb = usage.ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux kilobytes
        max_rss_kb //= 1024
    return {
        "bench": path.stem,
        "returncode": process.returncode,
        "timed_out": timed_out,
        "wall_seconds": round(wall, 3),
        "max_rss_kb": max_rss_kb,
        "tail": output.splitlines()[-3:] if output else [],
    }


def run_bench(path: Path, timeout: float, reps: int = BENCH_REPS) -> dict:
    """Warmup + best-of-*reps* timings for one bench module.

    The warmup run absorbs cold imports and filesystem caches; the
    recorded wall time is the best of the timed repetitions (peak RSS
    the max).  Any failing repetition short-circuits and is recorded
    as-is, so failures surface with their own output tail.
    """
    warmup = _run_bench_once(path, timeout)
    if warmup["returncode"] != 0:
        return warmup
    best = None
    for _ in range(max(1, reps)):
        record = _run_bench_once(path, timeout)
        if record["returncode"] != 0:
            return record
        if best is None or record["wall_seconds"] < best["wall_seconds"]:
            best = record
        best["max_rss_kb"] = max(best["max_rss_kb"], record["max_rss_kb"])
    best["reps"] = max(1, reps)
    return best


def run_scenario_matrix(size: str = "tiny",
                        reps: int = BENCH_REPS) -> list[dict]:
    """Run every registered scenario end-to-end at *size*, in-process.

    One row per scenario lands in the trajectory JSON (name, wall time,
    inferred links, IXP count), so per-scenario build+inference cost is
    trackable across PRs just like the bench modules.  Each row's wall
    time is the best of *reps* cold builds after one warmup run (fresh
    :class:`ArtifactCache` every repetition — the row tracks full
    build+inference cost, not cache hits), so sub-second rows stop
    flapping on scheduler noise.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.pipeline import ArtifactCache
    from repro.scenarios import scenario_names
    from repro.scenarios.workloads import scenario_run

    def one_run(name):
        run = scenario_run(size, scenario=name, cache=ArtifactCache())
        return run.inference()

    rows: list[dict] = []
    for name in scenario_names():
        print(f"[run_all] scenario {name} ({size}) ...", flush=True)
        started = time.monotonic()
        try:
            one_run(name)  # warmup: imports, interner pools, page cache
            best = float("inf")
            for _ in range(max(1, reps)):
                started = time.monotonic()
                result = one_run(name)
                best = min(best, time.monotonic() - started)
            row = {
                "scenario": name,
                "size": size,
                "ok": True,
                "wall_seconds": round(best, 3),
                "reps": max(1, reps),
                "links": len(result.matrix.all_links()),
                "ixps": len(result.per_ixp),
            }
        except Exception as error:  # keep the trajectory for the rest
            row = {
                "scenario": name,
                "size": size,
                "ok": False,
                "wall_seconds": round(time.monotonic() - started, 3),
                "error": f"{type(error).__name__}: {error}",
            }
        status = (f"{row.get('links', '?')} links" if row["ok"]
                  else f"FAIL ({row['error']})")
        print(f"[run_all]   {status} in {row['wall_seconds']}s", flush=True)
        rows.append(row)
    return rows


def run_build_matrix(size: str = "tiny",
                     bench_scenario: str = "europe2013",
                     reps: int = BENCH_REPS) -> list[dict]:
    """Cold per-stage build cost for every registered scenario.

    Every scenario is built through the ``reachability`` artifact at
    *size*; *bench_scenario* additionally at the ``bench`` size (the
    columnar observation plane's acceptance target).  Each repetition
    uses a **fresh** :class:`ArtifactCache` — memory-only, so every
    stage genuinely computes — and the row records the best cache-cold
    end-to-end wall seconds plus that repetition's per-stage split from
    ``run.events``.  The split makes observation-plane regressions
    attributable (collectors vs viewpoints vs propagation vs inference)
    and the end-to-end number rides the same >25% regression gate as
    the bench modules.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios import scenario_names
    from repro.scenarios.spec import get_scenario

    jobs = [(name, size) for name in scenario_names()]
    jobs.append((bench_scenario, "bench"))
    rows: list[dict] = []
    for name, job_size in jobs:
        spec = get_scenario(name)

        def one_build():
            run = ScenarioRun(spec.config(job_size), scenario=name,
                              cache=ArtifactCache())
            started = time.monotonic()
            run.artifact("reachability")
            total = time.monotonic() - started
            stages: dict[str, float] = {}
            for event in run.events:
                stages[event.stage] = \
                    stages.get(event.stage, 0.0) + event.seconds
            return total, stages

        one_build()  # warmup: imports, interner pools, jit state
        best_total = float("inf")
        best_stages: dict[str, float] = {}
        for _ in range(max(1, reps)):
            total, stages = one_build()
            if total < best_total:
                best_total, best_stages = total, stages
        row = {
            "scenario": name,
            "size": job_size,
            "reps": max(1, reps),
            "end_to_end_seconds": round(best_total, 4),
            "stage_seconds": {stage: round(seconds, 4)
                              for stage, seconds in best_stages.items()},
        }
        top = sorted(best_stages.items(), key=lambda kv: -kv[1])[:3]
        print(f"[run_all] build {name} ({job_size}): "
              f"{row['end_to_end_seconds']}s cold ("
              + ", ".join(f"{stage} {seconds:.3f}s"
                          for stage, seconds in top)
              + ")", flush=True)
        rows.append(row)
    return rows


def run_delta_matrix(size: str = "bench") -> list[dict]:
    """Time delta-apply vs full rebuild per event family.

    For every registered event family the baseline scenario is built at
    *size*, its timeline replayed through
    :class:`~repro.scenarios.events.TimelineReplay` (per-event wall
    seconds include the affected-set computation, any index rebuild and
    the frontier-limited recompute), and the final patched result
    checked link-for-link against one from-scratch rebuild of the final
    state — ``run_all`` exits non-zero on any mismatch.  Each row
    records the full-rebuild seconds, the median delta-apply seconds
    (overall and over single-edge events, the acceptance target) and
    the mean affected-origin fraction, so the incremental path's win —
    and its honest degradation on wide-frontier events — is trackable
    across PRs.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from statistics import median
    from repro.pipeline import ArtifactCache, ScenarioRun
    from repro.scenarios.events import (TimelineReplay, build_timeline,
                                        event_family_names,
                                        rebuild_propagation, record_sets)
    from repro.scenarios.spec import get_scenario

    rows: list[dict] = []
    for family in event_family_names():
        name = f"europe2013-{family}"
        spec = get_scenario(name)
        run = ScenarioRun(spec.config(size), scenario=name,
                          cache=ArtifactCache())
        propagation = run.artifact("propagation")
        scenario = run.scenario()
        record_at, record_alt = record_sets(propagation)
        events = build_timeline(spec.timeline, scenario.graph,
                                scenario.route_servers)
        replay = TimelineReplay(
            scenario.graph, scenario.route_servers,
            propagation["propagation"], record_at, record_alt)
        report = replay.replay(events)
        delta_seconds = [r.seconds for r in report.reports]
        single_edge = [r.seconds for r in report.reports
                       if r.links_changed == 1]
        fractions = [r.affected_fraction for r in report.reports]
        started = time.monotonic()
        _, full = rebuild_propagation(
            replay.graph, replay.route_servers, record_at, record_alt)
        rebuild_seconds = time.monotonic() - started
        links_equal = \
            report.result.visible_links() == full.visible_links()
        row = {
            "family": family,
            "size": size,
            "events": len(events),
            "origins": report.reports[-1].total if report.reports else 0,
            "rebuild_seconds": round(rebuild_seconds, 4),
            "delta_total_seconds": round(sum(delta_seconds), 4),
            "delta_median_seconds": round(median(delta_seconds), 4)
            if delta_seconds else None,
            "single_edge_events": len(single_edge),
            "single_edge_median_seconds": round(median(single_edge), 4)
            if single_edge else None,
            "median_speedup": round(
                rebuild_seconds / max(median(delta_seconds), 1e-9), 2)
            if delta_seconds else None,
            "single_edge_speedup": round(
                rebuild_seconds / max(median(single_edge), 1e-9), 2)
            if single_edge else None,
            "mean_affected_fraction": round(
                sum(fractions) / len(fractions), 4) if fractions else 0.0,
            "links_equal": links_equal,
        }
        print(f"[run_all] delta {family} ({size}): "
              f"rebuild {row['rebuild_seconds']}s, delta median "
              f"{row['delta_median_seconds']}s "
              f"({row['median_speedup']}x; single-edge "
              f"{row['single_edge_speedup']}x over "
              f"{row['single_edge_events']} events), affected "
              f"{row['mean_affected_fraction']:.1%}, "
              f"links_equal={links_equal}", flush=True)
        rows.append(row)
    return rows


def run_query_matrix(size: str = "tiny",
                     scenario: str = "europe2013",
                     requests_per_endpoint: int = 400) -> list[dict]:
    """Load-test the query daemon over the mmap artifact; one row per
    endpoint.

    Warms *scenario* at *size* through :func:`repro.service.daemon.
    warm_service` (pipeline build -> artifact export -> mmap load ->
    bit-identity assertion), starts the HTTP server on a background
    thread and replays ~*requests_per_endpoint* keep-alive GETs per
    endpoint through :mod:`repro.service.loadgen`.  Each row records
    request count, error count, p50/p99 latency in microseconds and
    queries/second, so daemon regressions are trackable across PRs like
    every other matrix.  ``has_link`` targets mix sampled true links
    with guaranteed non-links; ``links_of`` cycles through every peer
    AS.  A row is ``ok`` when every response was HTTP 200.
    """
    sys.path.insert(0, str(REPO_ROOT / "src"))
    import tempfile

    from repro.service.daemon import ServerThread, warm_service
    from repro.service.loadgen import run_load

    with tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        service, _dirs = warm_service([scenario], size=size,
                                      artifact_root=Path(tmp), verify=True)
        handle = service.handles[scenario]
        links = [(int(a), int(b)) for a, b in handle.all_links]
        members = sorted(int(asn) for asn in handle.peer_asns)
        link_set = set(links)
        true_links = links[:: max(1, len(links)
                                  // (requests_per_endpoint // 2))]
        non_links = [(a, b) for a in members[:30] for b in members[:30]
                     if a < b and (a, b) not in link_set]
        non_links = non_links[:requests_per_endpoint // 2]
        targets = {
            "has_link": [f"/q/{scenario}/has_link?a={a}&b={b}"
                         for a, b in true_links + non_links],
            "links_of": [f"/q/{scenario}/links_of?asn={asn}"
                         for asn in members],
            "peer_counts": [f"/q/{scenario}/peer_counts"],
            "member_densities": [f"/q/{scenario}/member_densities"],
            "table2": [f"/q/{scenario}/table2"],
        }
        rows: list[dict] = []
        with ServerThread(service) as server:
            for endpoint, endpoint_targets in targets.items():
                repeat = max(1, requests_per_endpoint
                             // len(endpoint_targets))
                run_load("127.0.0.1", server.port, endpoint,
                         endpoint_targets[:20], repeat=1)  # warmup
                report = run_load("127.0.0.1", server.port, endpoint,
                                  endpoint_targets, repeat=repeat)
                row = {"scenario": scenario, "size": size,
                       **report.row(), "ok": report.errors == 0}
                print(f"[run_all] query {endpoint}: "
                      f"{row['requests']} reqs, p50 {row['p50_us']}us, "
                      f"p99 {row['p99_us']}us, {row['qps']} q/s, "
                      f"ok={row['ok']}", flush=True)
                rows.append(row)
        return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("filters", nargs="*",
                        help="substring filters on bench file names")
    parser.add_argument("--out", type=Path, default=None,
                        help="output JSON path (default BENCH_<date>.json)")
    parser.add_argument("--timeout", type=float, default=900.0,
                        help="per-bench timeout in seconds")
    parser.add_argument("--skip-scenario-matrix", action="store_true",
                        help="do not run the per-scenario tiny matrix")
    parser.add_argument("--skip-build-matrix", action="store_true",
                        help="do not run the cache-cold per-stage build "
                             "matrix")
    parser.add_argument("--skip-delta-matrix", action="store_true",
                        help="do not run the event-delta vs full-rebuild "
                             "matrix")
    parser.add_argument("--skip-query-matrix", action="store_true",
                        help="do not run the query-daemon load matrix")
    parser.add_argument("--matrix-size", default="tiny",
                        help="size-table row for the scenario matrix")
    parser.add_argument("--delta-size", default="bench",
                        help="size-table row for the delta matrix")
    args = parser.parse_args()

    benches = discover_benches(args.filters)
    if not benches:
        print("no bench modules matched", file=sys.stderr)
        return 2

    results = []
    for path in benches:
        print(f"[run_all] {path.name} ...", flush=True)
        record = run_bench(path, args.timeout)
        status = "ok" if record["returncode"] == 0 else "FAIL"
        print(f"[run_all]   {status} in {record['wall_seconds']}s "
              f"(max rss {record['max_rss_kb']} kB)", flush=True)
        results.append(record)

    scenario_rows: list[dict] = []
    if not args.skip_scenario_matrix:
        scenario_rows = run_scenario_matrix(args.matrix_size)

    build_rows: list[dict] = []
    if not args.skip_build_matrix:
        build_rows = run_build_matrix(args.matrix_size)

    delta_rows: list[dict] = []
    if not args.skip_delta_matrix:
        delta_rows = run_delta_matrix(args.delta_size)

    query_rows: list[dict] = []
    if not args.skip_query_matrix:
        query_rows = run_query_matrix(args.matrix_size)

    today = datetime.date.today().isoformat()
    out_path = args.out or (REPO_ROOT / f"BENCH_{today}.json")
    trajectory = {
        "date": today,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "benches": results,
        "scenarios": scenario_rows,
        "build_matrix": build_rows,
        "delta_matrix": delta_rows,
        "query_matrix": query_rows,
    }
    out_path.write_text(json.dumps(trajectory, indent=2) + "\n")
    print(f"[run_all] wrote {out_path}")

    if any(r["returncode"] != 0 for r in results):
        return 1
    if any(not row["ok"] for row in scenario_rows):
        return 1
    if any(not row["links_equal"] for row in delta_rows):
        return 1
    if any(not row["ok"] for row in query_rows):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
