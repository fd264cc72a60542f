#!/usr/bin/env python3
"""One benchmark for what ships: build, ablation, replay and query.

Run one workload (the form BENCHMARK.json's command is run in)::

    python3 perfbench/bench.py --workload build-bench --seed 7 \\
        --seconds 12 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  End-to-end timings are at the reference host speed of
``clock.py``.  Lines before it name every metric with its unit in
human-readable form, the same timings as raw wall time, the resolved
backends and the machine.

Other modes::

    python3 perfbench/bench.py                  # every workload, fresh
                                                # process each
    python3 perfbench/bench.py --trace          # ... plus a traced run
    python3 perfbench/bench.py --calibrate 10   # noise floor per metric
    python3 perfbench/bench.py --smoke          # tiny, traced, checked

The command exits non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from clock import HostClock

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text()) \
    if (ROOT / "BENCHMARK.json").is_file() else None
#: Scratch space for artifacts and spans, inside the checkout.
WORK_ROOT = ROOT / ".bench_build" / "perfbench"
#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child run that takes longer than this is killed.
CHILD_TIMEOUT_S = 170
SMOKE_SECONDS = 1


def parse_args(argv):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", help="run one workload by name")
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="length of the measured window "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics from a traced run")
    parser.add_argument("--out", type=Path, default=None,
                        help="also write the full result (and spans) as JSON")
    parser.add_argument("--calibrate", type=int, default=0, metavar="N",
                        help="run every workload N (>= 5) times with "
                             "distinct seeds and record each metric's spread")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload once at the tiny size, traced; "
                             "assert every layer fired and every check passed")
    parser.add_argument("--size", default="bench", help=argparse.SUPPRESS)
    parser.add_argument("--setup-repeats", type=int, default=SETUP_REPEATS,
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(BENCHMARK["run_seconds"]) if BENCHMARK else 12.0
    if args.calibrate and args.calibrate < 5:
        parser.error("--calibrate needs at least 5 runs per workload")
    return args


def log(message: str) -> None:
    print(f"[perfbench] {message}", flush=True)


# -- one workload in this process ----------------------------------------------


def child_command(args, workload: str, *extra: str) -> list:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--size", args.size,
               "--seconds", repr(args.seconds),
               "--setup-repeats", str(args.setup_repeats)]
    if args.seed is not None:
        command += ["--seed", str(args.seed)]
    return command + list(extra)


def run_child(command: list) -> tuple:
    """Run a child benchmark process; returns (exit code, last JSON line
    or None, full stdout)."""
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        last = None
    return proc.returncode, last, proc.stdout


def environment(info: dict) -> dict:
    import importlib.util
    import numpy
    return {
        "backend": info.get("backend", "n/a"),
        "inference_backend": info.get("inference_backend", "n/a"),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
    }


def named_rows(workload) -> list:
    """Readings beside the gated metrics (informational): the end-to-end
    timings as raw wall time, and the workload's own quality readings."""
    median = statistics.median
    info = workload.info
    rows = []
    if workload.op_stretches:
        wall = workload.end_to_end(scaled=False)
        rows += [("wall throughput", wall["throughput"], "1/s",
                  f"{len(workload.op_walls)} ops"),
                 ("wall latency_p50", wall["latency_p50_ms"], "ms",
                  f"{len(workload.samples) or len(workload.op_walls)} "
                  "samples")]
    if workload.name == "build-bench":
        rows += [("precision", min(info["precision"]), "fraction", "min"),
                 ("recall", median(info["recall"]), "fraction", "median")]
    elif workload.name == "ablation-growth":
        rows += [("precision", info["precision"][0], "fraction", "full"),
                 ("recall", info["recall"][0], "fraction", "full")]
        rows += [(f"links.{name}", count, "count", "")
                 for name, count in info["link_counts"].items()]
    return rows


def run_one(args) -> int:
    """Set up one workload (``--setup-repeats`` times: the others in fresh
    processes), measure it, check it and print the result line."""
    name = args.workload
    if name not in workload_names():
        print(f"unknown workload {name!r} "
              f"(choose from {workload_names()})", file=sys.stderr)
        return 2
    setups = []  # (scaled, wall) seconds
    if not args.setup_only:
        for _ in range(args.setup_repeats - 1):
            code, result, output = run_child(
                child_command(args, name, "--setup-only"))
            if code != 0 or result is None:
                print(output, file=sys.stderr)
                raise RuntimeError(f"set-up child exited with {code}")
            setups.append((result["setup_s"], result["wall_s"]))

    clock = HostClock()
    WORK_ROOT.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_ROOT))
    workload = None
    recorder = None
    try:
        clock.tick()
        started = perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import workloads
        from spans import SpanRecorder
        seed = args.seed if args.seed is not None \
            else workloads.DEFAULT_SEEDS[name]
        workload = workloads.WORKLOADS[name](seed, args.size, workdir)
        workload.setup()
        wall = perf_counter() - started
        clock.tick()
        setups.append((clock.scaled(started, wall), wall))
        if args.setup_only:
            print(json.dumps({"setup_s": setups[-1][0], "wall_s": wall}))
            return 0

        if args.trace:
            recorder = SpanRecorder()
            recorder.install()
        try:
            workload.measure(args.seconds, clock, recorder)
        finally:
            if recorder is not None:
                recorder.uninstall()
        problems = workload.check()
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = workload.per_layer(recorder)
    else:
        end_to_end = workload.end_to_end()
        metrics = {
            "throughput": (end_to_end["throughput"], "1/s"),
            "latency_p50_ms": (end_to_end["latency_p50_ms"], "ms"),
            "setup_s": (statistics.median(s for s, _ in setups), "s"),
            "peak_rss_mb": (workload.peak_rss_mb(), "MB"),
        }

    env = dict(environment(workload.info),
               reference_ms=round(clock.median_ms(), 2))
    log(f"workload {name}, seed {seed}, size {args.size}, "
        f"window {args.seconds:g} s, trace {int(bool(args.trace))}")
    log("env: " + ", ".join(f"{key}={value}" for key, value in env.items()))
    log("set-ups (reference speed / wall): " + ", ".join(
        f"{scaled:.3f} / {wall:.3f} s" for scaled, wall in setups))
    for row_name, value, unit, note in named_rows(workload):
        log(f"  {row_name:<18} {value:>14.4f} {unit:<8} {note}")
    for metric, (value, unit) in metrics.items():
        log(f"  {metric:<40} {value:>14.4f} {unit}")
    if recorder is not None and recorder.missing_targets():
        log("traced targets not found: "
            + ", ".join(recorder.missing_targets()))
    failures = workload.failures + problems
    for line in failures[:20]:
        log(f"CHECK FAILED: {line}")

    result = {
        "correct": not failures,
        "attempted": max(1, workload.attempted),
        "failed": workload.failed,
        "metrics": {metric: {"value": value, "unit": unit}
                    for metric, (value, unit) in metrics.items()},
    }
    if args.out is not None:
        full = dict(result, workload=name, seed=seed, size=args.size,
                    seconds=args.seconds, environment=env,
                    setups=setups,
                    named={row[0]: row[1] for row in named_rows(workload)},
                    failures=failures)
        if recorder is not None:
            full["spans"] = recorder.spans_json()
        args.out.write_text(json.dumps(full) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


# -- every workload, each in a fresh process -----------------------------------


def workload_names() -> list:
    return [workload["name"] for workload in BENCHMARK["workloads"]]


def run_all(args) -> int:
    """Each workload in its own child process (untraced, then traced when
    asked), one table of every metric at the end."""
    results = {}
    status = 0
    for name in workload_names():
        for trace in ((0, 1) if args.trace else (0,)):
            code, result, output = run_child(
                child_command(args, name, "--trace", str(trace)))
            sys.stdout.write(output)
            if code != 0 or result is None or not result["correct"]:
                status = 1
            results.setdefault(name, {})[trace] = result
    log("summary")
    for name, runs in results.items():
        for trace, result in runs.items():
            if result is None:
                log(f"  {name} trace={trace}: no result")
                continue
            for metric, reading in result["metrics"].items():
                log(f"  {name:<16} {metric:<40} {reading['value']:>14.4f} "
                    f"{reading['unit']}")
    if args.out is not None:
        args.out.write_text(json.dumps(results, indent=1) + "\n")
    return status


# -- calibration: the measured noise floor -------------------------------------


def spread(values: list) -> tuple:
    """(median, IQR / median) as ``statistics.quantiles(n=4)`` gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return middle, (q3 - q1) / middle if middle else 0.0


def calibrate(args) -> int:
    """N fresh-process runs per workload, each with another seed; records
    every end-to-end metric's median and relative IQR and compares them
    with the bounds BENCHMARK.json fixes.  Runs go seed by seed through
    every workload, so each workload's spread covers the same stretches
    of the host's drift."""
    names = [args.workload] if args.workload else workload_names()
    bounds = {metric["name"]: metric for metric in BENCHMARK["end_to_end"]}
    path = HERE / "calibration.json"
    # Calibrating one workload keeps the others' last record.
    record = json.loads(path.read_text()) if args.workload and \
        path.is_file() else {"workloads": {}}
    record.update(runs=args.calibrate, seconds=args.seconds,
                  nproc=os.cpu_count())
    status = 0
    values: dict = {name: {} for name in names}
    for run in range(args.calibrate):
        seed = 1000 + run
        for name in names:
            code, result, output = run_child(
                child_command(args, name, "--seed", str(seed)))
            if code != 0 or result is None or not result["correct"]:
                sys.stdout.write(output)
                log(f"{name} seed {seed}: run failed")
                status = 1
                continue
            for metric, reading in result["metrics"].items():
                values[name].setdefault(metric, []).append(reading["value"])
            log(f"{name} seed {seed}: " + ", ".join(
                f"{metric}={reading['value']:.4g}"
                for metric, reading in result["metrics"].items()))
    for name in names:
        rows = {}
        for metric, series in values[name].items():
            middle, relative = spread(series)
            bound = bounds[metric]["bound"]
            rows[metric] = {"median": middle, "iqr_rel": relative,
                            "values": series}
            # A spread beyond the bound reads as a regression; a third of
            # the bound leaves room for a noisier day.
            verdict = "ok" if relative * 3 <= bound else (
                "TIGHT" if relative <= bound else "TOO NOISY")
            if metric == "setup_s":
                verdict += " (spread not gated)"
            elif relative > bound:
                status = 1
            log(f"  {name:<16} {metric:<16} median {middle:12.4f}  "
                f"IQR/median {relative:7.2%}  bound {bound:.0%}  {verdict}")
        record["workloads"][name] = rows
    path.write_text(json.dumps(record, indent=1) + "\n")
    log(f"wrote {path}")
    return status


# -- smoke: tiny, traced, every layer fired ------------------------------------


def smoke(args) -> int:
    from spans import LAYERS
    args.size, args.seconds, args.setup_repeats = "tiny", SMOKE_SECONDS, 1
    declared = {metric["name"] for metric in BENCHMARK["per_layer"]}
    problems = []
    started = perf_counter()
    for name in workload_names():
        code, result, output = run_child(
            child_command(args, name, "--trace", "1"))
        if code != 0 or result is None or not result["correct"]:
            sys.stdout.write(output)
            problems.append(f"{name}: checks failed")
            continue
        if set(result["metrics"]) != declared:
            problems.append(f"{name}: per-layer metrics differ from "
                            "BENCHMARK.json: "
                            f"{sorted(set(result['metrics']) ^ declared)}")
        for layer in LAYERS:
            if name in layer.workloads and \
                    not result["metrics"][f"{layer.name}.calls"]["value"]:
                problems.append(f"{name}: layer {layer.name} never fired")
    for line in problems:
        log(f"SMOKE FAILED: {line}")
    log(f"smoke {'passed' if not problems else 'failed'} in "
        f"{perf_counter() - started:.1f} s")
    return 1 if problems else 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir() or BENCHMARK is None:
        print(f"no repro sources under {ROOT / 'src'}, or no BENCHMARK.json "
              "beside them: run from a full checkout", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)
    if args.calibrate:
        return calibrate(args)
    if args.workload is None:
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
