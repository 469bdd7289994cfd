"""Canonical metric names for the algebraic-work counters and gauges.

Every instrumented module reports under these names so exporters, the
``repro report`` aggregator and the tests agree on spelling. Names are
dotted ``subsystem.measure``; counters accumulate by addition, gauges are
high-water marks.

The helpers re-exported here (:func:`counter_add`, :func:`gauge_max`) are
the ones from :mod:`repro.obs.spans` — one global read when disabled.
"""

from __future__ import annotations

from .spans import counter_add, gauge_max, is_enabled

__all__ = [
    "ABSTRACTION_EXTRACTIONS",
    "ABSTRACTION_PEAK_TERMS",
    "ABSTRACTION_SUBSTITUTIONS",
    "ABSTRACTION_TERM_TRAFFIC",
    "BDD_NODES",
    "BUCHBERGER_PAIRS_CONSIDERED",
    "BUCHBERGER_PAIRS_SKIPPED",
    "BUCHBERGER_REDUCTIONS",
    "CACHE_HITS",
    "CACHE_MISSES",
    "COSTMODEL_ABS_ERROR_MS",
    "COSTMODEL_FALLBACKS",
    "COSTMODEL_PREDICTIONS",
    "DIVISION_CALLS",
    "DIVISION_PEAK_TERMS",
    "DIVISION_STEPS",
    "FRAIG_MERGED",
    "FRAIG_QUERIES",
    "PLANE_CTX_PUBLISHES",
    "PLANE_CTX_REUSED",
    "PLANE_MAPS",
    "PLANE_STALE_REFUSALS",
    "PLANE_TASK_RETRIES",
    "PLANE_WORKERS_SPAWNED",
    "PLANE_WORKER_RESPAWNS",
    "PREPASS_CANONICAL_KEY_HITS",
    "PREPASS_GATES_REMOVED",
    "PREPASS_GUARD_FAILURES",
    "PREPASS_NETS_MERGED",
    "PREPASS_RAW_KEY_HITS",
    "PREPASS_RUNS",
    "PREPASS_SAT_QUERIES",
    "PREPASS_SAT_UNKNOWN",
    "REVENG_CACHE_HITS",
    "REVENG_CANDIDATES_PROBED",
    "REVENG_IDENTIFICATIONS",
    "REVENG_MATCHES",
    "REVENG_OBFUSCATION_GATES_ADDED",
    "REVENG_OBFUSCATION_VARIANTS",
    "REVENG_SWEEPS",
    "ROUTER_BACKENDS_HEALTHY",
    "ROUTER_FAILOVER_ROUTED",
    "ROUTER_HEALTH_TRANSITIONS",
    "ROUTER_JOB_FANOUTS",
    "ROUTER_JOB_LOOKUPS",
    "ROUTER_PRIMARY_ROUTED",
    "ROUTER_REQUESTS",
    "ROUTER_RETRIES",
    "ROUTER_UNROUTABLE",
    "SAT_CONFLICTS",
    "SAT_DECISIONS",
    "SAT_PROPAGATIONS",
    "SERVICE_JOBS_CANCELLED",
    "SERVICE_JOBS_COMPLETED",
    "SERVICE_JOBS_EXPIRED",
    "SERVICE_JOBS_FAILED",
    "SERVICE_PLANE_FALLBACKS",
    "SERVICE_PLANE_JOBS",
    "SERVICE_QUEUE_DEPTH_PEAK",
    "SERVICE_QUEUE_WAIT_MS",
    "SERVICE_REQUESTS",
    "SERVICE_REQUESTS_DEDUPLICATED",
    "SERVICE_REQUESTS_REJECTED",
    "SERVICE_SINGLEFLIGHT_SHARED",
    "TRACE_DROPPED",
    "TRACE_EVENTS",
    "TRACE_RECORDINGS",
    "VANISHING_GENERATORS",
    "counter_add",
    "gauge_max",
    "is_enabled",
]

# Buchberger's algorithm (Algorithm 1): critical-pair bookkeeping. The
# pairs-skipped counter is the paper's headline number — under RATO the
# product criterion kills every pair but one.
BUCHBERGER_PAIRS_CONSIDERED = "buchberger.pairs_considered"
BUCHBERGER_PAIRS_SKIPPED = "buchberger.pairs_skipped_coprime"
BUCHBERGER_REDUCTIONS = "buchberger.spoly_reductions"

# Multivariate division (``f ->_G+ r``): the inner loop of everything.
DIVISION_CALLS = "division.calls"
DIVISION_STEPS = "division.steps"
DIVISION_PEAK_TERMS = "division.peak_terms"  # gauge

# Vanishing ideal J_0 generators materialised for faithful GB runs.
VANISHING_GENERATORS = "vanishing.generators"

# Guided S-polynomial reduction (the abstraction engine). The extractions
# counter ticks once per actual `extract_canonical` run — compare it against
# `service.requests` to see single-flight/cache dedup working (a
# duplicate-heavy workload computes far fewer abstractions than it serves).
ABSTRACTION_EXTRACTIONS = "abstraction.extractions"
ABSTRACTION_SUBSTITUTIONS = "abstraction.substitutions"
ABSTRACTION_TERM_TRAFFIC = "abstraction.term_traffic"
ABSTRACTION_PEAK_TERMS = "abstraction.peak_terms"  # gauge

# Canonical-polynomial cache.
CACHE_HITS = "cache.hits"
CACHE_MISSES = "cache.misses"

# Resident worker plane (repro.jobs.plane): service job dispatch.
# ctx_publishes counts context (circuit) ships to workers; ctx_reused the
# maps that found their context already resident (the amortisation the
# plane exists for); worker_respawns counts crash replacements;
# task_retries the in-flight tasks requeued after a worker death;
# stale_refusals the tasks a worker rejected because it held an older
# context epoch.
PLANE_WORKERS_SPAWNED = "plane.workers_spawned"
PLANE_WORKER_RESPAWNS = "plane.worker_respawns"
PLANE_MAPS = "plane.maps"
PLANE_CTX_PUBLISHES = "plane.ctx_publishes"
PLANE_CTX_REUSED = "plane.ctx_reused"
PLANE_TASK_RETRIES = "plane.task_retries"
PLANE_STALE_REFUSALS = "plane.stale_refusals"

# Consistent-hash shard router (repro route): request routing and backend
# health. primary_routed counts requests sent to the ring-owner backend of
# their request_key (key locality = primary_routed / requests_routed);
# failover_routed counts requests re-routed past an unhealthy or failing
# owner; job_fanouts counts job polls that had to probe every backend
# because the router had no owner recorded for the id.
ROUTER_REQUESTS = "router.requests"
ROUTER_PRIMARY_ROUTED = "router.primary_routed"
ROUTER_FAILOVER_ROUTED = "router.failover_routed"
ROUTER_RETRIES = "router.retries"
ROUTER_UNROUTABLE = "router.unroutable"
ROUTER_JOB_LOOKUPS = "router.job_lookups"
ROUTER_JOB_FANOUTS = "router.job_fanouts"
ROUTER_BACKENDS_HEALTHY = "router.backends_healthy"  # gauge
ROUTER_HEALTH_TRANSITIONS = "router.health_transitions"

# Verification service (repro serve): admission, queueing and dedup. The
# requests counter ticks per accepted job submission; rejected counts 429
# backpressure; deduplicated counts submissions coalesced onto an identical
# in-flight job; singleflight_shared counts abstractions that were served by
# waiting on a peer's in-flight computation instead of recomputing.
SERVICE_REQUESTS = "service.requests"
SERVICE_REQUESTS_REJECTED = "service.requests_rejected"
SERVICE_REQUESTS_DEDUPLICATED = "service.requests_deduplicated"
SERVICE_JOBS_COMPLETED = "service.jobs_completed"
SERVICE_JOBS_FAILED = "service.jobs_failed"
SERVICE_JOBS_EXPIRED = "service.jobs_expired"
SERVICE_JOBS_CANCELLED = "service.jobs_cancelled"
SERVICE_SINGLEFLIGHT_SHARED = "service.singleflight_shared"
SERVICE_QUEUE_WAIT_MS = "service.queue_wait_ms"
SERVICE_QUEUE_DEPTH_PEAK = "service.queue_depth_peak"  # gauge
# Plane dispatch: jobs the scheduler shipped to a resident plane worker
# process (GIL escape) vs. the inline fallbacks run on the dispatcher
# thread because the plane refused (daemonic host, shutdown, crash budget).
SERVICE_PLANE_JOBS = "service.plane_jobs"
SERVICE_PLANE_FALLBACKS = "service.plane_fallbacks"

# Reverse engineering (repro reveng): polynomial recovery sweeps, spec-form
# identification and obfuscation-robustness harnessing. ``candidates_probed``
# ticks once per candidate modulus whose canonical polynomial was examined
# (hit or miss); ``cache_hits`` counts the probes served from the
# content-addressed cache — the second run of an identical sweep should show
# cache_hits ~= candidates_probed.
REVENG_SWEEPS = "reveng.sweeps"
REVENG_CANDIDATES_PROBED = "reveng.candidates_probed"
REVENG_CACHE_HITS = "reveng.cache_hits"
REVENG_MATCHES = "reveng.matches"
REVENG_IDENTIFICATIONS = "reveng.identifications"
REVENG_OBFUSCATION_VARIANTS = "reveng.obfuscation_variants"
REVENG_OBFUSCATION_GATES_ADDED = "reveng.obfuscation_gates_added"

# Structural pre-reduction front-end (repro.prepass): runs ticks once per
# apply_prepass; gates_removed accumulates the net shrink handed to the
# abstraction engine; nets_merged/sat_queries/sat_unknown account the fraig
# stage (merges happen only on proven-UNSAT miters — unknown queries are
# left untouched, so nets_merged + sat_refuted + sat_unknown <= sat_queries
# never lies about soundness). The key-hit pair splits cache hits by which
# key answered: canonical (prepassed structure) vs raw fallback — the
# canonical share is the hit-rate multiplication the prepass exists for.
# guard_failures counts differential-guard trips (prepass output disagreed
# with the original on random vectors; the caller fell back to the raw
# netlist).
PREPASS_RUNS = "prepass.runs"
PREPASS_GATES_REMOVED = "prepass.gates_removed"
PREPASS_NETS_MERGED = "prepass.nets_merged"
PREPASS_SAT_QUERIES = "prepass.sat_queries"
PREPASS_SAT_UNKNOWN = "prepass.sat_unknown"
PREPASS_CANONICAL_KEY_HITS = "prepass.canonical_key_hits"
PREPASS_RAW_KEY_HITS = "prepass.raw_key_hits"
PREPASS_GUARD_FAILURES = "prepass.guard_failures"

# REDTRACE event recording (repro.obs.redtrace): events ticks once per
# emitted record; dropped counts ring-buffer evictions in the daemon's
# flight recorder (a nonzero value means the window is too small for the
# traffic); recordings ticks once per start_recording().
TRACE_EVENTS = "trace.events"
TRACE_DROPPED = "trace.dropped"
TRACE_RECORDINGS = "trace.recordings"

# Fitted cost model (repro.obs.costmodel): predictions ticks once per
# job-runtime estimate the scheduler makes; fallbacks counts the subset
# answered by the global EMA because neither the fitted model nor the
# (op, k) bucket had data; abs_error_ms accumulates |predicted - actual|
# so error rate is abs_error_ms / predictions.
COSTMODEL_PREDICTIONS = "costmodel.predictions"
COSTMODEL_FALLBACKS = "costmodel.fallbacks"
COSTMODEL_ABS_ERROR_MS = "costmodel.abs_error_ms"

# Bit-level cross-checkers.
SAT_CONFLICTS = "sat.conflicts"
SAT_DECISIONS = "sat.decisions"
SAT_PROPAGATIONS = "sat.propagations"
BDD_NODES = "bdd.nodes"  # gauge
FRAIG_QUERIES = "fraig.queries"
FRAIG_MERGED = "fraig.merged"
