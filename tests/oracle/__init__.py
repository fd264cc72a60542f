"""Test-only oracles the production pipeline is checked against.

* :mod:`tests.oracle.propagation` — the object-graph reference
  propagation engine (the seed implementation of the valley-free
  three-phase computation), the dict-fold ``ObjectResult`` it returns,
  and the CSR-index-to-adjacency inverse that builds it over any
  production context;
* :mod:`tests.oracle.observation` — the object collector archive and
  the route-by-route validation looking glass, fed from any result's
  object API, the per-day grouped scan that pins the stable views' row
  positions, and the scalar ASN and AS-path sanity filters (the
  references for the vectorised clean mask);
* :mod:`tests.oracle.steps` — the object step functions of section 4:
  per-entry passive extraction, interpretation of raw looking-glass
  observations, policy observations merged with set arithmetic
  (``merge_observations``, the reference for the id-level
  ``merge_rows``) and ``infer_links`` on the integer-bitmask rule;
* :mod:`tests.oracle.inference` — the per-IXP object inference engine
  (the step functions, ``merge_observations`` and ``infer_links`` per
  IXP), whose result keeps one record per IXP and
  a matrix rebuilt from them (``matrix_from_inferences``); the
  bit-identity predicate that reads production planes member by
  member against those records (``identical``); and the entry-by-entry
  passive extraction into observation planes, the reference for the
  column reader;
* :mod:`tests.oracle.reachability` — the integer-bitmask rule (member
  masks, N_a as a mask, packing to and from the artifact's words; the
  reference for the packed plane columns), the integer-bitmask
  reciprocal kernel (the reference for the packed ``M & M.T`` kernel)
  and the figure 11 / figure 13 walks over ``MemberReachability``
  objects (the references for the matrix's openness and repeller
  entries);
* :mod:`tests.oracle.degrees` — the figure 7 per-link degree walk,
  the reference for the per-endpoint gather;
* :mod:`tests.oracle.kernels` — pins the propagation engine to one
  kernel so the differential suites can compare kernels directly;
* :mod:`tests.oracle.blocks` — the per-block route-block assembly
  (``intern_bags`` + one path gather per block, per-row touched arrays
  and observer masks), the reference for the batch-wide
  ``blocks_from_columns``, with a context manager pinning the engine to
  it and a byte-level block comparison;
* :mod:`tests.oracle.delta` — the per-block scan for the delta
  affected set (removed pairs and visited ASNs), the reference for the
  one-pass lookup over cached link keys;
* :mod:`tests.oracle.topology` — the link-object walk behind the AS
  graph's relationship queries (per-neighbour link lookups, the
  link-order relationship map, the per-call customer-cone BFS), the
  reference for the graph's typed neighbour map, and the
  record-by-record CSR index build (two ``Adjacency`` objects per link,
  a sort per phase), the reference for the column assembler.

None of this ships in ``src/``: production keeps one path per layer.
"""
