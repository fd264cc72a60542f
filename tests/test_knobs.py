"""The number of settable values under ``src/`` is pinned.

``python -m tests.knobs`` counts optional parameters, defaulted
class-body fields and argparse options per module.  A change that adds
or removes one fails this test until it updates the pin below, so the
new count shows up in its own diff; the failure lists every module
whose count moved.
"""

from __future__ import annotations

from tests.knobs import knob_counts

#: Settable values per module (modules with none are left out).
PINNED = {
    "repro/analysis/degrees.py": 3,
    "repro/analysis/density.py": 2,
    "repro/analysis/estimation.py": 14,
    "repro/analysis/hybrid.py": 5,
    "repro/analysis/policies.py": 8,
    "repro/analysis/prefix_stats.py": 2,
    "repro/analysis/repellers.py": 9,
    "repro/analysis/visibility.py": 5,
    "repro/bgp/asn.py": 1,
    "repro/bgp/attributes.py": 1,
    "repro/bgp/messages.py": 3,
    "repro/bgp/propagation.py": 9,
    "repro/bgp/session.py": 1,
    "repro/collectors/archive.py": 11,
    "repro/collectors/route_collector.py": 1,
    "repro/collectors/vantage_point.py": 2,
    "repro/core/active.py": 13,
    "repro/core/communities.py": 3,
    "repro/core/connectivity.py": 9,
    "repro/core/engine.py": 11,
    "repro/core/planes.py": 7,
    "repro/core/query_cost.py": 12,
    "repro/core/reciprocity.py": 3,
    "repro/core/validation.py": 6,
    "repro/ixp/community_schemes.py": 10,
    "repro/ixp/ixp.py": 8,
    "repro/ixp/looking_glass.py": 5,
    "repro/ixp/member.py": 3,
    "repro/ixp/route_server.py": 5,
    "repro/measurement/geolocation.py": 1,
    "repro/measurement/traceroute.py": 2,
    "repro/pipeline/analyses.py": 4,
    "repro/pipeline/cache.py": 3,
    "repro/pipeline/run.py": 11,
    "repro/pipeline/stage.py": 7,
    "repro/registries/irr.py": 8,
    "repro/registries/peeringdb.py": 7,
    "repro/runtime/compiled.py": 5,
    "repro/runtime/context.py": 3,
    "repro/runtime/csr.py": 1,
    "repro/runtime/delta.py": 6,
    "repro/runtime/frontier.py": 1,
    "repro/runtime/interning.py": 1,
    "repro/runtime/reachmatrix.py": 6,
    "repro/runtime/stores.py": 1,
    "repro/scenarios/base.py": 20,
    "repro/scenarios/events.py": 13,
    "repro/scenarios/spec.py": 20,
    "repro/scenarios/workloads.py": 9,
    "repro/service/artifact.py": 5,
    "repro/service/daemon.py": 22,
    "repro/service/loadgen.py": 5,
    "repro/service/smoke.py": 8,
    "repro/topology/as_graph.py": 15,
    "repro/topology/customer_cone.py": 1,
    "repro/topology/generator.py": 27,
    "repro/topology/phases.py": 15,
    "repro/topology/relationship_inference.py": 6,
    "repro/topology/relationships.py": 1,
}

#: Their total: 188 optional parameters, 207 defaulted fields and 11
#: argparse options.
PINNED_TOTAL = 406


def test_pin_adds_up():
    assert sum(PINNED.values()) == PINNED_TOTAL


def test_settable_values_match_the_pin():
    counts = {module: sum(found) for module, found in knob_counts().items()}
    moved = [f"{module}: {PINNED.get(module, 0)} -> "
             f"{counts.get(module, 0)}"
             for module in sorted(set(PINNED) | set(counts))
             if PINNED.get(module, 0) != counts.get(module, 0)]
    total = sum(counts.values())
    assert total == PINNED_TOTAL, (
        f"{total} settable values under src/, {PINNED_TOTAL} pinned; "
        "per module:\n" + "\n".join(moved))
