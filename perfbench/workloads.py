"""The benchmark's four workloads.

Each workload drives only public entry points of ``repro`` with default
arguments, so it measures whatever configuration ships:

* ``build-bench`` — the cold "scenario to servable artifact" path: a
  fresh :class:`~repro.pipeline.run.ScenarioRun` of ``europe2013`` at
  the ``bench`` size through ``reachability``, then ``save_matrix`` and
  an mmap ``load_matrix``.  Every op builds another seeded topology, so
  a run's median covers many inputs instead of one.
* ``ablation-growth`` — the paper's four inference ablations on the
  dense ``growth-sweep-2018`` membership, built once in set-up:
  propagation and observation do no work, inference and reachability do
  almost all of it.
* ``replay-events`` — a fresh :class:`~repro.scenarios.events.
  TimelineReplay` of 72 events (24 each of failover, flap-storm and
  churn) over the ``europe2013`` baseline: narrow affected frontiers
  next to wide policy edits.
* ``query-mix`` — the query daemon's request handling: ``warm_service``
  builds, exports and mmap-loads the ``europe2013`` artifact as
  ``python -m repro.service.daemon`` does when it starts, and every op
  answers a batch of requests from a seeded, synthetic endpoint mix (see
  :data:`MIX`) through ``QueryService.dispatch`` and the JSON encoding
  the HTTP front applies to each answer.  The socket transport is left
  out: over HTTP on two shared vCPUs the open-loop p50 spread 19-23 %
  between runs even at reference speed, too wide to gate.

Seeds vary inputs only as far as the cost stays within the noise: a
bench-size build moves a few percent from topology to topology, but one
ablation sweep or one event timeline moves 30-70% from scenario to
scenario, so those two workloads replay canonical inputs and their seed
orders the work instead (see their classes).

A workload's ``setup()`` builds its fixture and runs the warm-up op,
which therefore counts in ``setup_s``; ``measure()`` then runs ops for
the window with a :class:`~clock.HostClock` reading before each;
``check()`` returns the failed output checks.  End-to-end timings are
at the clock's reference speed.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import shutil
import statistics
import time
from itertools import chain
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.pipeline import ArtifactCache, ScenarioRun
from repro.scenarios.events import (
    TimelineReplay,
    TimelineSpec,
    build_timeline,
    rebuild_propagation,
    record_sets,
)
from repro.scenarios.spec import get_scenario
from repro.service import artifact
from repro.service.daemon import warm_service
from repro.service.smoke import links_digest

from clock import HostClock
from spans import SpanRecorder, layer_metrics

perf_counter = time.perf_counter

HERE = Path(__file__).resolve().parent
PINS = json.loads((HERE / "pins.json").read_text())

#: The paper's precision floor (98.4% of inferred links confirmed).
PRECISION_FLOOR = 0.98
#: Sanity floor on recall against the synthetic ground truth; across
#: seeded bench-size topologies it measured 0.90-0.97.
RECALL_FLOOR = 0.85
#: Every run times at least this many ops, however long they take.
MIN_OPS = 3

#: A timed stretch: (perf_counter at its start, seconds).
Stretch = Tuple[float, float]


def op_seed(seed: int, index: int) -> int:
    """The input seed of op *index*: the run seed itself for the warm-up
    op (so the default seed hits the pins), a hash of both after it."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def reset_peak_rss() -> bool:
    """Reset this process's peak RSS to its current RSS (Linux 4.0+);
    False where the kernel does not offer it."""
    try:
        with open("/proc/self/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        return False
    return True


def peak_rss_mb() -> float:
    """``VmHWM`` of this process, in MB."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def precision_recall(links, truth) -> Tuple[float, float]:
    found = set(links)
    hits = len(found & truth)
    return (hits / len(found) if found else 0.0,
            hits / len(truth) if truth else 0.0)


class OpTimer:
    """Times the measured part of one op, and brackets it as one traced
    op when given a recorder.  With a clock, :meth:`tick` takes a clock
    reading in the middle of a long op, outside the timed stretches."""

    def __init__(self, recorder: Optional[SpanRecorder] = None,
                 clock: Optional[HostClock] = None) -> None:
        self.recorder = recorder
        self.clock = clock
        self.stretches: List[Stretch] = []

    def __enter__(self) -> "OpTimer":
        if self.recorder is not None:
            self.recorder.begin_op()
        self.started = perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stretches.append((self.started, perf_counter() - self.started))
        if self.recorder is not None:
            self.recorder.end_op()

    def tick(self) -> None:
        if self.clock is None:
            return
        self.stretches.append((self.started, perf_counter() - self.started))
        self.clock.tick()
        self.started = perf_counter()

    @property
    def seconds(self) -> float:
        return sum(seconds for _, seconds in self.stretches)


class Workload:
    """A closed loop of one client: the next op starts when one ends."""

    name = ""
    #: Units of work per op (layer rows are per unit).
    units_per_op = 1

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.clock: Optional[HostClock] = None
        self.op_stretches: List[List[Stretch]] = []  #: untraced window
        self.op_walls: List[float] = []
        self.traced_walls: List[float] = []
        self.op_peaks_mb: List[float] = []
        self.units = 0                   #: units of work done in the window
        #: Latency samples finer than an op (none: the op is the sample).
        self.samples: List[Stretch] = []
        self.failures: List[str] = []    #: one line per failed op
        self.info: Dict[str, object] = {}

    # -- protocol ------------------------------------------------------------

    def setup(self) -> None:
        self.prepare()
        self.run_op(0, OpTimer())
        self.samples.clear()

    def prepare(self) -> None:
        """Build the fixture the ops share (nothing by default)."""

    def run_op(self, index: int, timer: OpTimer) -> int:
        """Run op *index*, timing exactly its timed part with *timer*;
        returns the units of work it completed."""
        raise NotImplementedError

    def measure(self, seconds: float, clock: HostClock,
                recorder: Optional[SpanRecorder] = None) -> None:
        """Run ops until *seconds* have passed (at least :data:`MIN_OPS`),
        with a *clock* reading before each op and after the last.  With a
        recorder every op runs twice on the same input, once traced and
        once not (alternating which goes first), so the tracing overhead
        is a paired comparison within the run; the clock is not used."""
        self.clock = clock
        deadline = perf_counter() + seconds
        index = 1
        while index <= MIN_OPS or perf_counter() < deadline:
            if recorder is None:
                clock.tick()
                timer = OpTimer(clock=clock)
                resettable = reset_peak_rss()
                self.units += self.run_op(index, timer)
                self.op_stretches.append(timer.stretches)
                self.op_walls.append(timer.seconds)
                if resettable:
                    self.op_peaks_mb.append(peak_rss_mb())
            else:
                for traced in ((True, False) if index % 2 else
                               (False, True)):
                    timer = OpTimer(recorder if traced else None)
                    self.run_op(index, timer)
                    (self.traced_walls if traced else self.op_walls).append(
                        timer.seconds)
            index += 1
        if recorder is None:
            clock.tick()

    @property
    def attempted(self) -> int:
        return len(self.op_walls) + len(self.traced_walls)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def peak_rss_mb(self) -> float:
        """Median over ops of each op's own peak RSS (it does not depend
        on which op of the run happened to be largest); the process's
        peak where the kernel cannot reset it."""
        if self.op_peaks_mb:
            return statistics.median(self.op_peaks_mb)
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def check(self) -> List[str]:
        """Checks made once, after the window (default: none)."""
        return []

    def end_to_end(self, scaled: bool = True) -> Dict[str, float]:
        """Units of work per second over the window's ops, and the median
        latency sample (the op itself unless the workload records finer
        samples): at the clock's reference speed, or as raw wall time."""
        def seconds_of(stretch: Stretch) -> float:
            return self.clock.scaled(*stretch) if scaled else stretch[1]

        ops = [sum(map(seconds_of, stretches))
               for stretches in self.op_stretches]
        samples = [seconds_of(sample) for sample in self.samples] or ops
        return {"throughput": self.units / sum(ops),
                "latency_p50_ms": statistics.median(samples) * 1e3}

    def per_layer(self, recorder: SpanRecorder) -> Dict[str, Tuple[float, str]]:
        rows = layer_metrics(recorder.ops, self.units_per_op)
        rows["trace.overhead_pct"] = (100.0 * statistics.median(
            traced / untraced - 1.0 for traced, untraced
            in zip(self.traced_walls, self.op_walls)), "%")
        # The query rows exist on every workload (idle: 0).
        rows.update((name, (0.0, "count")) for name in SERVICE_ROWS)
        return rows

    def close(self) -> None:
        """Release files (nothing by default)."""


# -- build-bench ----------------------------------------------------------------


class BuildBench(Workload):
    name = "build-bench"

    def prepare(self) -> None:
        self.spec = get_scenario("europe2013")
        self.digests: Dict[int, str] = {}

    def build(self, index: int, timer: OpTimer):
        config = self.spec.config(self.size, op_seed(self.seed, index))
        directory = self.workdir / f"artifact-{index}"
        with timer:
            run = ScenarioRun(config, cache=ArtifactCache())
            matrix = run.artifact("reachability")
            # Called through the module so the traced run sees them.
            artifact.save_matrix(matrix, directory)
            handle = artifact.load_matrix(directory, mmap=True)
        return run, matrix, handle, directory

    def run_op(self, index: int, timer: OpTimer) -> int:
        run, matrix, handle, directory = self.build(index, timer)
        links = matrix.all_links()
        precision, recall = precision_recall(
            links, run.scenario().ground_truth_links())
        digest = links_digest(links)
        self.info.setdefault("precision", []).append(precision)
        self.info.setdefault("recall", []).append(recall)
        self.info["backend"] = getattr(run, "backend", "n/a")
        self.info["inference_backend"] = getattr(
            run, "inference_backend", "n/a")
        problems = []
        if precision < PRECISION_FLOOR:
            problems.append(f"precision {precision:.4f} < {PRECISION_FLOOR}")
        if recall < RECALL_FLOOR:
            problems.append(f"recall {recall:.4f} < {RECALL_FLOOR}")
        if handle.num_links != len(links):
            problems.append(f"artifact holds {handle.num_links} links, "
                            f"matrix {len(links)}")
        # A traced run builds every input twice: both must agree.
        if self.digests.setdefault(index, digest) != digest:
            problems.append("rebuilt to a different link set")
        if problems:
            self.failures.append(f"op {index}: " + "; ".join(problems))
        del run, matrix, handle
        shutil.rmtree(directory)
        return 1

    def check(self) -> List[str]:
        problems = []
        last = max(self.digests)
        run, matrix, handle, directory = self.build(last, OpTimer())
        again = links_digest(matrix.all_links())
        del run, matrix, handle
        shutil.rmtree(directory)
        if again != self.digests[last]:
            problems.append(f"op {last} rebuilt to a different link set")
        pin = PINS["build-bench"].get(self.size)
        if pin and self.seed == pin["seed"] and \
                self.digests[0] != pin["links_sha256"]:
            problems.append("default-seed link set differs from the pinned "
                            f"sha256 {pin['links_sha256'][:12]}...")
        return problems


# -- ablation-growth ------------------------------------------------------------

#: The paper's ablations: (name, Scenario.run_inference keywords).
VARIANTS = (
    ("full", {}),
    ("passive-only", {"use_active": False}),
    ("active-only", {"use_passive": False}),
    ("no-reciprocity", {"require_reciprocity": False}),
)


class AblationGrowth(Workload):
    """The four ablations on the canonical ``growth-sweep-2018`` scenario.

    Inference cost moves 0.8-1.4 s per sweep from one seeded scenario to
    the next (topology and observation surface alike), so one scenario
    per run would make the run-to-run spread wider than any useful
    bound; ``build-bench`` covers topology variety instead.  The seed
    orders the four variants in every op, which decides what each
    inference can reuse from the one before it on the shared context.
    """

    name = "ablation-growth"

    def prepare(self) -> None:
        spec = get_scenario("growth-sweep-2018")
        run = ScenarioRun(spec.config(self.size), scenario=spec.name,
                          cache=ArtifactCache())
        self.scenario = run.scenario()
        self.info["backend"] = getattr(run, "backend", "n/a")
        self.info["inference_backend"] = getattr(
            run, "inference_backend", "n/a")
        self.counts: Optional[Dict[str, int]] = None

    def run_op(self, index: int, timer: OpTimer) -> int:
        scenario = self.scenario
        variants = list(VARIANTS)
        random.Random(op_seed(self.seed, index)).shuffle(variants)
        matrices = {}
        with timer:
            for position, (name, options) in enumerate(variants):
                # A sweep outlasts the host's spells at one speed.
                if position:
                    timer.tick()
                result = scenario.run_inference(**options)
                matrix = scenario.reachability_matrix(result)
                result.table2()
                matrices[name] = matrix
            counts = {name: len(matrix.all_links())
                      for name, matrix in matrices.items()}
        self.last = matrices
        if self.counts is None:
            self.counts = counts
        elif counts != self.counts:
            self.failures.append(f"op {index}: link counts {counts} != "
                                 f"first op {self.counts}")
        return 1

    def check(self) -> List[str]:
        problems = []
        full = set(self.last["full"].all_links())
        if not full <= set(self.last["no-reciprocity"].all_links()):
            problems.append("full links are not a subset of the "
                            "no-reciprocity links")
        precision, recall = precision_recall(
            full, self.scenario.ground_truth_links())
        self.info["precision"] = [precision]
        self.info["recall"] = [recall]
        self.info["link_counts"] = self.counts
        if precision < PRECISION_FLOOR:
            problems.append(f"full-variant precision {precision:.4f} < "
                            f"{PRECISION_FLOOR}")
        pinned = PINS["ablation-growth"].get(self.size)
        if pinned and self.counts != pinned:
            problems.append(f"link counts {self.counts} != pinned {pinned}")
        return problems


# -- replay-events --------------------------------------------------------------

FAMILIES = ("failover", "flap-storm", "churn")
EVENTS_PER_FAMILY = 24
#: Timelines each family's events are drawn from.  A flap-storm timeline
#: flaps only three sessions and a failover one pairs each failure with
#: its repair, so four short timelines draw four times as many sessions;
#: churn edits persist, so its events come from one timeline.
SEGMENTS = {"failover": 4, "flap-storm": 4, "churn": 1}
#: Seed of the replayed timelines: the registered event scenarios' own.
TIMELINE_SEED = 20130508
#: The warm-up op replays only this many events of each family: enough
#: to run the replay code once, at a fraction of a full op's cost.
WARMUP_EVENTS = 4
#: A clock reading every this many events (a 72-event op runs for
#: seconds, longer than the host keeps one speed).
TICK_EVENTS = 12


class ReplayEvents(Workload):
    """72 events over the canonical ``europe2013`` baseline, every op.

    One timeline's cost is dominated by its few wide events (backward
    cones, index rebuilds), and moves 1.2-3.7 s from one seeded timeline
    to the next, so seeded timelines would make the run-to-run spread
    wider than any useful bound.  The events are therefore fixed; the
    seed orders the three families in every op, which changes the state
    each family's events meet (churn edits persist).  Latency samples
    are single events.
    """

    name = "replay-events"

    def prepare(self) -> None:
        run = ScenarioRun(get_scenario("europe2013").config(self.size),
                          cache=ArtifactCache())
        self.internet = run.artifact("topology")
        self.route_servers = run.artifact("ixps")["route_servers"]
        propagation = run.artifact("propagation")
        self.baseline = propagation["propagation"]
        self.record_at, self.record_alt = record_sets(propagation)
        self.info["backend"] = propagation["backend"]
        self.timelines = {
            family: list(chain.from_iterable(
                build_timeline(
                    TimelineSpec(family, EVENTS_PER_FAMILY // SEGMENTS[family],
                                 TIMELINE_SEED + segment),
                    self.internet.graph, self.route_servers)
                for segment in range(SEGMENTS[family])))
            for family in FAMILIES}

    def events(self, index: int):
        families = list(FAMILIES)
        random.Random(op_seed(self.seed, index)).shuffle(families)
        count = WARMUP_EVENTS if index == 0 else None
        return [event for family in families
                for event in self.timelines[family][:count]]

    def run_op(self, index: int, timer: OpTimer) -> int:
        events = self.events(index)
        with timer:
            replay = TimelineReplay(self.internet.graph, self.route_servers,
                                    self.baseline, self.record_at,
                                    self.record_alt)
            # One apply() per event, as replay() does, so the clock can
            # read between them.
            for position, event in enumerate(events):
                if position and position % TICK_EVENTS == 0:
                    timer.tick()
                started = perf_counter()
                report = replay.apply(event)
                self.samples.append((started, report.seconds))
        if len(replay.reports) != len(events):
            self.failures.append(f"op {index}: replayed "
                                 f"{len(replay.reports)}/{len(events)} events")
        self.last = replay
        return len(replay.reports)

    def check(self) -> List[str]:
        replay = self.last
        _context, full = rebuild_propagation(
            replay.graph, replay.route_servers, self.record_at,
            self.record_alt)
        if replay.result.visible_links() != full.visible_links():
            return ["final patched result differs from a full rebuild"]
        return []


# -- query-mix ------------------------------------------------------------------

#: The request mix: (endpoint, share).  It is synthetic: the repository
#: records no request log to derive shares from.  The shares make point
#: queries the bulk of the load while every endpoint is hit in every
#: op; the aggregate endpoints' responses (median 1.2-9.5 kB at the
#: bench size) are 3-20x a ``links_of`` answer (0.4 kB) and exercise the
#: encoder.  ``has_link`` pairs are half true links and half random
#: member pairs (mostly non-links), like the true/non-link halves of
#: the ``query_matrix`` bench in benchmarks/run_all.py.
MIX = (("has_link", 0.70), ("links_of", 0.20), ("peer_counts", 0.04),
       ("member_densities", 0.03), ("table2", 0.03))
MIX_LENGTH = 20000
#: Requests per op: a few tenths of a second, so the clock readings
#: between ops cost a few percent of the window.
BATCH = 5000
#: Per-endpoint request counts of the traced run, filled in by the query
#: workload only.
SERVICE_ROWS = [f"service.{kind}.{endpoint}" for endpoint, _share in MIX
                for kind in ("requests", "failed", "wrong")]


def encode(payload) -> bytes:
    """The HTTP front's encoding of one answer."""
    return json.dumps(payload).encode("utf-8")


class QueryMix(Workload):
    """Batches of the seeded request mix through the daemon's dispatch
    and encoding, over the artifact its warm-up exports.  Latency
    samples are single requests."""

    name = "query-mix"
    units_per_op = BATCH

    def prepare(self) -> None:
        self.service, _directories = warm_service(
            ["europe2013"], size=self.size,
            artifact_root=self.workdir / "artifacts")
        handle = self.service.handles["europe2013"]
        self.info["inference_backend"] = handle.matrix.built_by
        rng = random.Random(self.seed)
        links = [(int(a), int(b)) for a, b in handle.all_links]
        # Expected has_link answers come from the artifact's link list,
        # not from the lookup path that dispatch uses.
        linked = set(links) | {(b, a) for a, b in links}
        members = [int(asn) for asn in handle.peer_asns]
        endpoints = [name for name, _ in MIX]
        weights = [share for _, share in MIX]
        #: (endpoint, target, expected has_link answer or None)
        self.items: List[tuple] = []
        for _ in range(MIX_LENGTH):
            endpoint = rng.choices(endpoints, weights)[0]
            if endpoint == "has_link":
                if rng.random() < 0.5:
                    a, b = rng.choice(links)
                    if rng.random() < 0.5:
                        a, b = b, a
                else:
                    a, b = rng.sample(members, 2)
                target = f"/q/europe2013/has_link?a={a}&b={b}"
                self.items.append((endpoint, target, (a, b) in linked))
            elif endpoint == "links_of":
                asn = rng.choice(members)
                self.items.append(
                    (endpoint, f"/q/europe2013/links_of?asn={asn}", None))
            else:
                self.items.append((endpoint, f"/q/europe2013/{endpoint}",
                                   None))
        self.per_endpoint = {endpoint: [0, 0, 0] for endpoint in endpoints}

    def setup(self) -> None:
        super().setup()
        # The per-endpoint rows count the window's requests only.
        for counts in self.per_endpoint.values():
            counts[:] = [0, 0, 0]

    def run_op(self, index: int, timer: OpTimer) -> int:
        first = index * BATCH
        batch = [self.items[(first + i) % len(self.items)]
                 for i in range(BATCH)]
        dispatch = self.service.dispatch
        recorder = timer.recorder
        answers = []
        with timer:
            for item in batch:
                started = perf_counter()
                status, payload = dispatch(item[1])
                if recorder is None:
                    encode(payload)
                else:
                    recorder.call("service.encode", encode, payload)
                answers.append((started, perf_counter() - started, status,
                                payload))
        for item, (started, seconds, status, payload) in zip(batch, answers):
            self.samples.append((started, seconds))
            counts = self.per_endpoint[item[0]]
            counts[0] += 1
            if status != 200:
                counts[1] += 1
                self.failures.append(f"{item[1]}: HTTP {status}")
            elif item[0] == "has_link" and payload["has_link"] != item[2]:
                counts[2] += 1
                self.failures.append(f"{item[1]}: answered "
                                     f"{payload['has_link']}")
        return BATCH

    @property
    def attempted(self) -> int:
        return BATCH * (len(self.op_walls) + len(self.traced_walls))

    def per_layer(self, recorder: SpanRecorder) -> Dict[str, Tuple[float, str]]:
        rows = super().per_layer(recorder)
        for endpoint, counts in self.per_endpoint.items():
            for kind, count in zip(("requests", "failed", "wrong"), counts):
                rows[f"service.{kind}.{endpoint}"] = (count, "count")
        return rows


WORKLOADS = {cls.name: cls for cls in
             (BuildBench, AblationGrowth, ReplayEvents, QueryMix)}

#: The default seed of each workload: its scenario spec's ``base_seed``
#: (``ablation-growth`` always runs that spec's canonical scenario).
DEFAULT_SEEDS = {
    "build-bench": 20130501,
    "ablation-growth": 20130506,
    "replay-events": 20130501,
    "query-mix": 20130501,
}
