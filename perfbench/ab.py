#!/usr/bin/env python3
"""A/B comparison of two revisions under one benchmark.

    python3 perfbench/ab.py REV_A REV_B --pairs 10

Both revisions are exported with ``git archive`` into scratch
directories under ``.bench_build/`` (plain checkouts without ``.git``),
and the *same* benchmark — this
working tree's ``perfbench/`` and ``BENCHMARK.json`` — is copied into
both, so only the program differs.  Each pair runs every workload once
per side with one seed (a new seed per pair), and the side that goes
first alternates from pair to pair.

For every (workload, metric) the report gives both sides' median and
quartiles, B's win share over the pairs (ties count for neither) and a
verdict:

* ``unresolved`` — fewer than ten pairs;
* ``improved``   — B wins at least 9/10 of the pairs and the medians
  differ by more than A's interquartile distance;
* ``worse``      — B's median is worse than A's by more than the bound
  BENCHMARK.json fixes;
* ``unresolved`` — not worse by the bound, but a side's spread is wider
  than the bound and not every B run beats every A run;
* ``no-worse``   — otherwise.

Every run made is listed.  Exit status 1 when any verdict is ``worse``
or any run failed its output checks.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
RUN_TIMEOUT_S = 600
#: Fewer pairs than this never count as a win.
MIN_PAIRS = 10
#: Pair p runs seed SEED_BASE + p on both sides; the calibration uses
#: seeds from 1000, so an A/B comparison runs inputs it has not seen.
SEED_BASE = 5000


def export(rev: str, into: Path) -> str:
    """Extract *rev* into *into* and drop this tree's benchmark on top;
    returns the full commit id."""
    commit = subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", commit],
                             check=True, capture_output=True).stdout
    into.mkdir(parents=True)
    # Extraction filters exist only on Pythons with the PEP 706 backport.
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into, **safe)
    for path in BENCHMARK["paths"]:
        shutil.rmtree(into / path, ignore_errors=True)
        shutil.copytree(ROOT / path, into / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", into / "BENCHMARK.json")
    # Compile up front so neither side's first run pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(into)],
                   check=True)
    return commit


def run(checkout: Path, workload: str, seed: int) -> dict:
    command = BENCHMARK["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(BENCHMARK["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(command, cwd=checkout, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(a: list, b: list, better: str, bound: float) -> tuple:
    """(win share of B, verdict) for paired series *a* and *b*."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    share = wins / len(a)
    if len(a) < MIN_PAIRS:
        return share, "unresolved"
    a_q1, a_med, a_q3 = quartiles(a)
    b_q1, b_med, b_q3 = quartiles(b)
    if share >= 0.9 and abs(b_med - a_med) > a_q3 - a_q1:
        return share, "improved" if sign * (b_med - a_med) > 0 else "worse"
    if sign * (a_med - b_med) > bound * abs(a_med):
        return share, "worse"
    spread = max((a_q3 - a_q1) / abs(a_med) if a_med else 0.0,
                 (b_q3 - b_q1) / abs(b_med) if b_med else 0.0)
    every_b_better = all(sign * (y - x) > 0 for x in a for y in b)
    if spread > bound and not every_b_better:
        return share, "unresolved"
    return share, "no-worse"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("rev_a")
    parser.add_argument("rev_b")
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}

    scratch_root = ROOT / ".bench_build"
    scratch_root.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="ab-", dir=scratch_root))
    runs = []
    try:
        sides = {"A": scratch / "a", "B": scratch / "b"}
        commits = {"A": export(args.rev_a, sides["A"]),
                   "B": export(args.rev_b, sides["B"])}
        print(f"A = {args.rev_a} ({commits['A'][:12]}), "
              f"B = {args.rev_b} ({commits['B'][:12]})", flush=True)
        for pair in range(args.pairs):
            seed = SEED_BASE + pair
            order = ("A", "B") if pair % 2 == 0 else ("B", "A")
            for workload in workloads:
                for side in order:
                    result = run(sides[side], workload, seed)
                    runs.append({"pair": pair, "side": side,
                                 "workload": workload, "seed": seed,
                                 **result})
                    values = ", ".join(
                        f"{name}={reading['value']:.4g}"
                        for name, reading in result["metrics"].items())
                    ok = "ok" if result["correct"] and not result["exit"] \
                        else "FAILED"
                    print(f"pair {pair} {side} {workload} seed {seed} {ok}: "
                          f"{values}", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    status = 0 if all(r["correct"] and not r["exit"] for r in runs) else 1
    print(f"\n{'workload':<16} {'metric':<16} {'A median [q1, q3]':>32} "
          f"{'B median [q1, q3]':>32} {'B wins':>7}  verdict")
    for workload in workloads:
        for name, metric in metrics.items():
            series = {}
            for side in ("A", "B"):
                by_pair = {r["pair"]: r["metrics"][name]["value"]
                           for r in runs if r["side"] == side
                           and r["workload"] == workload
                           and name in r["metrics"]}
                series[side] = by_pair
            pairs = sorted(set(series["A"]) & set(series["B"]))
            if not pairs:
                continue
            a = [series["A"][p] for p in pairs]
            b = [series["B"][p] for p in pairs]
            share, outcome = verdict(a, b, metric["better"], metric["bound"])
            if outcome == "worse":
                status = 1
            cells = []
            for values in (a, b):
                q1, med, q3 = quartiles(values)
                cells.append(f"{med:.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:<16} {name:<16} {cells[0]:>32} {cells[1]:>32} "
                  f"{share:>7.0%}  {outcome}")
    return status


if __name__ == "__main__":
    sys.exit(main())
