"""Declarative scenario specifications and the scenario registry.

A :class:`ScenarioSpec` is the *identity* of one scenario family: which
IXPs exist (roster + community-scheme assignment, via the roster
factory), how the underlying Internet is generated (topology phase
selection and generator knobs), what the measurement surface looks like
(collectors, looking glasses, traceroute monitors) and which analyses
make up its evaluation suite.  Everything else — stage bodies,
fingerprints, caching — is scenario-generic and lives in
:mod:`repro.scenarios.base` and :mod:`repro.pipeline`.

A spec is *declarative*: it produces plain
:class:`~repro.scenarios.base.ScenarioConfig` values (via per-size
:class:`SizeProfile` rows) and a
:class:`~repro.pipeline.stage.StageGraph` assembled from the shared
stage library.  :class:`~repro.pipeline.run.ScenarioRun` executes any
spec the same way it used to execute the hardwired europe2013 graph.

The module-level :data:`REGISTRY` holds every registered family; the
built-in families of :mod:`repro.scenarios.families` are registered on
first lookup, so ``get_scenario("europe2013")`` always works.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Tuple,
)

from repro.collectors.archive import MeasurementWindow
from repro.scenarios.base import ScenarioConfig, stage_graph_for
from repro.scenarios.events import TimelineSpec
from repro.pipeline.stage import StageGraph
from repro.topology.generator import GeneratorConfig, IXPSpec


@dataclass(frozen=True)
class SizeProfile:
    """One row of a scenario's size table.

    ``None`` fields defer to the :class:`ScenarioConfig` defaults (or
    the spec's ``surface`` overrides, which always win over the
    profile).  ``scenario_seed_offset`` is added to the run seed to
    derive ``ScenarioConfig.seed`` — historically ``+1`` for the named
    workloads and ``+6`` for the no-argument default configuration.
    """

    scale: float
    ixp_member_scale: float
    vantage_point_fraction: Optional[float] = None
    num_validation_lgs: Optional[int] = None
    num_traceroute_monitors: Optional[int] = None
    window_days: Optional[int] = None
    scenario_seed_offset: int = 1


#: The shared size table: every registered scenario supports these sizes
#: unless its spec overrides ``sizes``.  ``small``/``medium``/``large``
#: reproduce the historical ``workloads`` configurations bit-for-bit;
#: ``tiny`` is the CI smoke size, ``bench`` the benchmark suite's
#: middle ground, and ``full`` the no-argument default configuration.
DEFAULT_SIZES: Dict[str, SizeProfile] = {
    "tiny": SizeProfile(scale=0.10, ixp_member_scale=0.08,
                        vantage_point_fraction=0.10,
                        num_validation_lgs=12, num_traceroute_monitors=8,
                        window_days=2),
    "small": SizeProfile(scale=0.12, ixp_member_scale=0.10,
                         vantage_point_fraction=0.10,
                         num_validation_lgs=25, num_traceroute_monitors=12,
                         window_days=3),
    "bench": SizeProfile(scale=0.18, ixp_member_scale=0.16,
                         num_validation_lgs=40, num_traceroute_monitors=15),
    "medium": SizeProfile(scale=0.25, ixp_member_scale=0.22,
                          num_validation_lgs=50, num_traceroute_monitors=20),
    "large": SizeProfile(scale=0.45, ixp_member_scale=0.40,
                         num_validation_lgs=70, num_traceroute_monitors=30),
    "full": SizeProfile(scale=0.30, ixp_member_scale=0.30,
                        scenario_seed_offset=6),
}


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one scenario family."""

    #: Registry key (also the fingerprint salt of every stage).
    name: str
    description: str = ""
    #: IXP roster factory: ``member_scale -> [IXPSpec, ...]`` (roster,
    #: community-scheme styles, RS/LG availability).  ``None`` keeps the
    #: generator's Table 2 default roster.
    ixp_roster: Optional[Callable[[float], List[IXPSpec]]] = None
    #: Extra :class:`GeneratorConfig` keyword overrides (topology phase
    #: selection via ``phases``, participation rates, peering knobs...).
    generator: Mapping[str, Any] = field(default_factory=dict)
    #: Measurement-surface overrides: :class:`ScenarioConfig` keyword
    #: arguments (collector/LG/traceroute knobs).  These win over the
    #: size profile, since they define the family.
    surface: Mapping[str, Any] = field(default_factory=dict)
    #: The analysis suite (figure names of the analyses stage).
    analyses: Tuple[str, ...] = ("table2", "visibility", "degrees", "density")
    #: Stages of the pipeline (None -> the full stage library).
    stage_names: Optional[Tuple[str, ...]] = None
    #: Per-size configuration rows.
    sizes: Mapping[str, SizeProfile] = field(
        default_factory=lambda: dict(DEFAULT_SIZES))
    #: Multiplier on the profile's ``ixp_member_scale`` (growth sweeps).
    member_growth: float = 1.0
    #: Seed used when the caller does not supply one.
    base_seed: int = 20130501
    #: Size used when the caller does not supply one.
    default_size: str = "full"
    #: Event timeline replayed by the ``timeline`` stage after the
    #: baseline propagation (:class:`~repro.scenarios.events.
    #: TimelineSpec`, resolved against :data:`~repro.scenarios.events.
    #: EVENT_FAMILIES`); ``None`` makes the stage a no-op.  Salted into
    #: the timeline stage's fingerprint (namespace ``timeline``).
    timeline: Optional[TimelineSpec] = None

    # -- derived artefacts ----------------------------------------------------

    def size_names(self) -> List[str]:
        """The sizes this scenario can be instantiated at."""
        return list(self.sizes)

    def config(self, size: Optional[str] = None,
               seed: Optional[int] = None) -> ScenarioConfig:
        """The :class:`ScenarioConfig` for *size* (spec defaults apply)."""
        size = size or self.default_size
        try:
            profile = self.sizes[size]
        except KeyError:
            raise ValueError(
                f"scenario {self.name!r} has no size {size!r} "
                f"(choose from {sorted(self.sizes)})") from None
        seed = self.base_seed if seed is None else seed

        member_scale = profile.ixp_member_scale * self.member_growth
        generator_kwargs: Dict[str, Any] = dict(
            seed=seed, scale=profile.scale, ixp_member_scale=member_scale)
        generator_kwargs.update(self.generator)
        if self.ixp_roster is not None:
            generator_kwargs.setdefault("ixps", self.ixp_roster(member_scale))

        config_kwargs: Dict[str, Any] = {}
        if profile.vantage_point_fraction is not None:
            config_kwargs["vantage_point_fraction"] = profile.vantage_point_fraction
        if profile.num_validation_lgs is not None:
            config_kwargs["num_validation_lgs"] = profile.num_validation_lgs
        if profile.num_traceroute_monitors is not None:
            config_kwargs["num_traceroute_monitors"] = profile.num_traceroute_monitors
        if profile.window_days is not None:
            config_kwargs["window"] = MeasurementWindow(num_days=profile.window_days)
        config_kwargs.update(self.surface)

        return ScenarioConfig(
            generator=GeneratorConfig(**generator_kwargs),
            seed=seed + profile.scenario_seed_offset,
            **config_kwargs)

    def stage_graph(self) -> StageGraph:
        """The stage graph assembled from this spec's declared stages."""
        return stage_graph_for(self.stage_names)

    def with_overrides(self, **changes: Any) -> "ScenarioSpec":
        """A derived spec with ``changes`` applied (``dataclasses.replace``)."""
        return replace(self, **changes)


class ScenarioRegistry:
    """Named scenario families, the lookup surface of the whole stack.

    Benchmarks, workloads, examples and the CI scenario matrix resolve
    scenarios exclusively through a registry, so a newly registered
    family automatically participates in all of them.
    """

    def __init__(self) -> None:
        self._specs: Dict[str, ScenarioSpec] = {}

    def register(self, spec: ScenarioSpec,
                 replace_existing: bool = False) -> ScenarioSpec:
        """Register *spec* under its name (duplicate names are an error
        unless ``replace_existing``).  Returns the spec for chaining."""
        if spec.name in self._specs and not replace_existing:
            raise ValueError(f"scenario {spec.name!r} is already registered")
        self._specs[spec.name] = spec
        return spec

    def get(self, name: str) -> ScenarioSpec:
        """The spec registered under *name*."""
        try:
            return self._specs[name]
        except KeyError:
            raise KeyError(
                f"unknown scenario {name!r} "
                f"(registered: {sorted(self._specs)})") from None

    def names(self) -> List[str]:
        """All registered scenario names, sorted."""
        return sorted(self._specs)

    def __contains__(self, name: str) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[ScenarioSpec]:
        for name in self.names():
            yield self._specs[name]

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry (populated by ``repro.scenarios.families``).
REGISTRY = ScenarioRegistry()


def _ensure_builtins() -> None:
    # Importing the module registers the built-in families exactly once.
    import repro.scenarios.families  # noqa: F401


def register_scenario(spec: ScenarioSpec,
                      replace_existing: bool = False) -> ScenarioSpec:
    """Register *spec* in the global registry."""
    return REGISTRY.register(spec, replace_existing=replace_existing)


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a registered scenario family by name."""
    _ensure_builtins()
    return REGISTRY.get(name)


def scenario_names() -> List[str]:
    """Every registered scenario family, sorted by name."""
    _ensure_builtins()
    return REGISTRY.names()


def all_scenarios() -> List[ScenarioSpec]:
    """Every registered spec, sorted by name."""
    _ensure_builtins()
    return list(REGISTRY)
