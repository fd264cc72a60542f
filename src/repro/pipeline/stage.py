"""Declarative stages and the stage graph.

A :class:`Stage` names one unit of the scenario pipeline (topology
generation, route announcement, propagation, collector archiving,
inference, analyses, ...), the stages it consumes (``deps``) and the
configuration it reads (``config_keys`` naming
:class:`~repro.scenarios.europe2013.ScenarioConfig` attributes, plus an
optional ``options_key`` naming a run-level options namespace).

From those declarations the :class:`StageGraph` derives a deterministic
**fingerprint** per stage:

    fingerprint(stage) = sha256(name, version,
                                {key: repr(config value)},
                                repr(options),
                                {dep: fingerprint(dep)})

Upstream fingerprints are part of the payload, so invalidation cascades
exactly along dependency edges: changing an analysis-only knob leaves
every build stage's fingerprint — and therefore its cached artifact —
untouched, while changing the generator config re-keys everything
downstream of the topology.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Tuple


@dataclass(frozen=True)
class Stage:
    """One declared pipeline stage.

    ``fn`` receives the executing :class:`~repro.pipeline.run.ScenarioRun`
    and returns the stage artifact; it reads upstream artifacts through
    ``run.artifact(dep)``.  ``persist=True`` opts the artifact into the
    on-disk cache layer (when the run has one).  Bump ``version`` when
    the stage's computation changes in a way ``config_keys`` cannot see.
    """

    name: str
    fn: Callable[[Any], Any] = field(compare=False, repr=False)
    deps: Tuple[str, ...] = ()
    config_keys: Tuple[str, ...] = ()
    options_key: Optional[str] = None
    version: int = 1
    persist: bool = False


class StageGraph:
    """A validated, topologically ordered set of stages."""

    def __init__(self, stages: Iterable[Stage]) -> None:
        self._stages: Dict[str, Stage] = {}
        for stage in stages:
            if stage.name in self._stages:
                raise ValueError(f"duplicate stage {stage.name!r}")
            self._stages[stage.name] = stage
        for stage in self._stages.values():
            for dep in stage.deps:
                if dep not in self._stages:
                    raise ValueError(
                        f"stage {stage.name!r} depends on unknown stage {dep!r}")
        self._order = self._topological_order()

    # -- structure -----------------------------------------------------------

    def stage(self, name: str) -> Stage:
        """The stage registered under *name* (KeyError if unknown)."""
        return self._stages[name]

    def names(self) -> List[str]:
        """All stage names in topological order."""
        return list(self._order)

    def __contains__(self, name: str) -> bool:
        return name in self._stages

    def __len__(self) -> int:
        return len(self._stages)

    def ancestors(self, name: str) -> List[str]:
        """Transitive dependencies of *name*, in topological order."""
        wanted = set()
        frontier = [name]
        while frontier:
            current = frontier.pop()
            for dep in self._stages[current].deps:
                if dep not in wanted:
                    wanted.add(dep)
                    frontier.append(dep)
        return [n for n in self._order if n in wanted]

    def _topological_order(self) -> Tuple[str, ...]:
        order: List[str] = []
        state: Dict[str, int] = {}   # 0 unvisited / 1 visiting / 2 done

        def visit(name: str, chain: Tuple[str, ...]) -> None:
            mark = state.get(name, 0)
            if mark == 2:
                return
            if mark == 1:
                raise ValueError(
                    f"stage cycle: {' -> '.join(chain + (name,))}")
            state[name] = 1
            for dep in self._stages[name].deps:
                visit(dep, chain + (name,))
            state[name] = 2
            order.append(name)

        for name in self._stages:
            visit(name, ())
        return tuple(order)

    # -- fingerprints ---------------------------------------------------------

    def fingerprints(
        self,
        config_repr: Mapping[str, str],
        options_repr: Mapping[str, str],
        salt: str = "",
    ) -> Dict[str, str]:
        """Fingerprint every stage.

        ``config_repr`` maps every config key referenced by any stage to
        a deterministic string form; ``options_repr`` does the same per
        options namespace; ``salt`` namespaces the whole graph (the
        scenario name, so families with coincidentally equal configs
        never collide in a shared artifact cache).  Cache placement is
        deliberately absent: memory and disk caches share fingerprints.
        """
        result: Dict[str, str] = {}
        for name in self._order:
            stage = self._stages[name]
            payload = {
                "stage": stage.name,
                "version": stage.version,
                "salt": salt,
                "config": {key: config_repr[key] for key in stage.config_keys},
                "options": options_repr.get(stage.options_key)
                if stage.options_key else None,
                "deps": {dep: result[dep] for dep in stage.deps},
            }
            blob = json.dumps(payload, sort_keys=True)
            result[name] = hashlib.sha256(blob.encode("utf-8")).hexdigest()
        return result
