"""Simulation-as-a-service: the async what-if query server.

The batch entry points (``run_matrix``, the experiment CLIs) answer one
sweep and exit; every invocation starts with cold caches.  This package
turns the simulator into a long-running **query service**: clients submit
what-if queries -- *which placement x schedule wins for this program on
this topology?* -- and the server answers through a tiered cache:

1. **memory** -- an in-process LRU of serialised results;
2. **dedup** -- identical in-flight queries join the same future instead
   of recomputing;
3. **store** -- the persistent cross-process result store
   (:mod:`repro.engine.result_store`), keyed by canonical content digests;
4. **compute** -- a process pool of workers; compatible queries (same
   program, different strategies) are batched per worker so they share
   one trace and one walk memo, exactly like ``run_matrix``.

Components: :mod:`repro.serve.query` (the query model, digests and the
direct execution path), :mod:`repro.serve.server` (the asyncio server and
the ``repro serve`` CLI), :mod:`repro.serve.client` (async + blocking
clients).  The load generator lives in :mod:`repro.fuzz.loadgen`; the perf
ledger's ``serve-cold``/``serve-warm`` workloads (``benchmarks/ledger``)
measure the service.  See ``docs/serving.md``.
"""

from repro.serve.query import Query, execute_query, query_digest  # noqa: F401
