"""repro — reproduction of "Inferring Multilateral Peering" (CoNEXT 2013).

The package is organised around the paper's pipeline:

* :mod:`repro.runtime` — shared runtime substrate: value interning, the
  CSR adjacency index, structure-shared path/community stores, and the
  :class:`~repro.runtime.context.PipelineContext` threaded through every
  layer (see ARCHITECTURE.md).
* :mod:`repro.bgp` — BGP substrate: prefixes, communities, routes, RIBs,
  policies and a valley-free propagation engine.
* :mod:`repro.topology` — AS-level topology substrate: relationships,
  graph container, synthetic Internet generator, relationship inference
  and customer cones.
* :mod:`repro.ixp` — IXP substrate: route servers, per-IXP BGP community
  schemes, looking glasses.
* :mod:`repro.registries` — IRR and PeeringDB-like registries.
* :mod:`repro.collectors` — Route Views / RIPE RIS style route collectors.
* :mod:`repro.measurement` — traceroute-derived links and geolocation.
* :mod:`repro.core` — the paper's contribution: multilateral-peering (MLP)
  link inference from route-server BGP communities.
* :mod:`repro.analysis` — the evaluation-section analyses (figures 5-13,
  tables 2-3, sections 5.6-5.7).
* :mod:`repro.scenarios` — ready-made synthetic ecosystems, most notably
  the "13 European IXPs, May 2013" scenario.
"""

#: Kept in sync with pyproject.toml.
__version__ = "1.1.0"
