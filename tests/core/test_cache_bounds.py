"""Regression: hash-cons pools stay bounded over a server lifetime.

The weak intern pools of :mod:`repro.core.types` only reclaim a node
once *nothing* references it, and every solver-memo entry holds strong
references to its key and value nodes.  Inference draws fresh type
variables per request, so most memo keys are never seen again after
their request: a memo bound far above the reuse the workload has keeps
dead nodes alive and the pools grow with every distinct program served.

These tests run distinct programs through inference with deliberately
small caches and assert the pools stay bounded, evictions are counted,
and hash-consing identity still holds for live nodes afterwards.  At the
default bound (:data:`repro.core.constraints.SOLVER_CACHE_SIZE`) they
serve 2,000 distinct cold typechecks through :class:`ServiceCore` and
assert the pools stop growing, and that the bound costs no measurable
memo reuse against a 65,536-entry cache.
"""

from __future__ import annotations

import gc

import pytest

from repro import perf
from repro.core.constraints import SOLVER_CACHE_SIZE
from repro.core.infer import infer
from repro.core.types import BOOL, INT, TArrow, intern_pool_stats
from repro.lang import pretty
from repro.lang.parser import parse_program
from repro.service.handlers import RequestError, ServiceConfig, ServiceCore
from repro.testing.generators import ProgramGenerator

SMALL_CACHE = 128
PROGRAMS = 1000


@pytest.fixture
def small_solver_caches():
    """Shrink every registered solver cache for the test, then restore."""
    perf.resize_registered(SMALL_CACHE, prefix="constraints.")
    perf.clear_caches()
    try:
        yield
    finally:
        perf.resize_registered(SOLVER_CACHE_SIZE, prefix="constraints.")
        perf.clear_caches()


def _distinct_program(i: int) -> str:
    # The solver caches key on interned *type and constraint nodes*, so
    # distinct literals alone all map to the same ground keys.  A tuple
    # whose int/bool leaf pattern encodes the bits of ``i`` has a unique
    # type shape per program, and ``mkpar`` forces a locality check over
    # that shape — every program pushes genuinely new keys through the
    # locality/satisfiability caches.
    leaves = ["1" if (i >> b) & 1 else "true" for b in range(10)]
    return f"mkpar (fun p -> ({', '.join(leaves)}, {i}))"


def test_pools_bounded_across_1k_distinct_programs(small_solver_caches):
    evictions_before = {
        name: getattr(fn, "evictions", 0)
        for name, fn in perf.registered_caches().items()
    }

    for i in range(PROGRAMS):
        infer(parse_program(_distinct_program(i)))

    gc.collect()
    stats = intern_pool_stats()
    total_live = sum(stats.values())

    # Five solver caches of SMALL_CACHE entries each; every cached key or
    # value can pin a handful of nodes (an entry's constraint/type plus
    # children), and the prelude pins a fixed base set.  The bound below
    # is loose but orders of magnitude under the unbounded growth this
    # regression guards against (1k programs x ~10 nodes = ~10k+).
    budget = 5 * SMALL_CACHE * 8 + 500
    assert total_live < budget, f"intern pools grew to {total_live}: {stats}"

    evicted = sum(
        getattr(fn, "evictions", 0) - evictions_before.get(name, 0)
        for name, fn in perf.registered_caches().items()
    )
    assert evicted > 0, "expected solver caches to evict under a small bound"


def test_interning_identity_survives_eviction(small_solver_caches):
    for i in range(PROGRAMS):
        infer(parse_program(_distinct_program(i)))
    gc.collect()
    # Live nodes are still hash-consed: reconstructing a structure yields
    # the pooled representative, even after heavy cache churn.
    assert TArrow(INT, BOOL) is TArrow(INT, BOOL)
    a = TArrow(TArrow(INT, INT), BOOL)
    b = TArrow(TArrow(INT, INT), BOOL)
    assert a is b
    assert a.domain is TArrow(INT, INT)


def test_eviction_counters_surface_in_cache_reports(small_solver_caches):
    with perf.collect() as stats:
        for i in range(PROGRAMS // 2):
            infer(parse_program(_distinct_program(i)))
    reports = {r.name: r for r in stats.cache_reports()}
    assert any(r.evictions > 0 for r in reports.values()), (
        "expected eviction deltas in cache reports: "
        + ", ".join(f"{n}={r.evictions}" for n, r in reports.items())
    )
    rendered = stats.render()
    assert "evicted" in rendered


# -- the default bound over a request stream ----------------------------------

#: Requests served by the pool-growth regression, and the request whose
#: pool total is the baseline.
REQUESTS = 2000
BASELINE_AT = 500
#: Live nodes the pools may still gain between the baseline and the end
#: at the default bound: the memos that had not filled by the baseline
#: (``is_satisfiable`` fills slowest) pin a few hundred
#: more nodes before they saturate.  At a 65,536 bound the pools gain
#: about 20 nodes per request, ~30,000 over the same stretch.
POOL_SLACK = 1500
#: The largest drop in a memo's hit ratio the default bound may cost
#: against a 65,536-entry cache on the same requests.
HIT_RATIO_TOLERANCE = 0.002


def _cold_templates():
    """Generated programs and one let-chain: the ``typecheck_cold`` mix
    in small."""
    templates = [
        pretty(ProgramGenerator(seed=seed, p_hint=4).expression(4)) for seed in range(24)
    ]
    chain = [f"let x{j} = (fun y -> y * {j}) x{j - 1} in" for j in range(1, 30)]
    templates.append("\n".join(["let x0 = 1 in", *chain, "x29"]))
    return templates


def _serve_cold(core, templates, start, stop):
    """Typecheck requests ``start..stop-1``: a fresh digest per request
    (the ``nonce`` binding), templates in rotation."""
    for i in range(start, stop):
        source = f"let nonce = {i} ;;\n{templates[i % len(templates)]}"
        try:
            core.handle_typecheck({"program": source})
        except RequestError:
            pass  # rejected programs still run inference


def _at_bound(bound):
    perf.resize_registered(bound, prefix="constraints.")
    perf.clear_caches()


@pytest.fixture
def default_solver_caches():
    _at_bound(SOLVER_CACHE_SIZE)
    yield
    _at_bound(SOLVER_CACHE_SIZE)


def _live_nodes():
    gc.collect()
    return sum(intern_pool_stats().values())


def test_pools_stop_growing_at_the_default_bound(default_solver_caches):
    core = ServiceCore(ServiceConfig(metrics=False, trace_summaries=False))
    templates = _cold_templates()
    _serve_cold(core, templates, 0, BASELINE_AT)
    baseline = _live_nodes()
    _serve_cold(core, templates, BASELINE_AT, REQUESTS)
    final = _live_nodes()
    for name, fn in perf.registered_caches().items():
        info = fn.cache_info()
        assert info.maxsize == SOLVER_CACHE_SIZE, name
        assert info.currsize <= SOLVER_CACHE_SIZE, (name, info)
    assert final - baseline <= POOL_SLACK, (
        f"live intern-pool nodes grew {baseline} -> {final} between requests "
        f"{BASELINE_AT} and {REQUESTS}: {intern_pool_stats()}"
    )


def _hit_ratios(bound, templates):
    _at_bound(bound)
    core = ServiceCore(ServiceConfig(metrics=False, trace_summaries=False))
    with perf.collect() as stats:
        _serve_cold(core, templates, 0, 600)
    return {r.name: r.hit_rate for r in stats.cache_reports() if r.calls}


def test_default_bound_keeps_the_hit_ratios_of_a_large_cache(default_solver_caches):
    templates = _cold_templates()
    # Warm the process-lifetime state (the prelude environment) outside
    # the measured passes, so both passes do the same work.
    _serve_cold(ServiceCore(ServiceConfig(metrics=False)), templates, 0, 1)
    large = _hit_ratios(65536, templates)
    default = _hit_ratios(SOLVER_CACHE_SIZE, templates)
    assert set(default) == set(large) and "constraints.locality" in large
    for name, ratio in large.items():
        assert abs(default[name] - ratio) <= HIT_RATIO_TOLERANCE, (name, default[name], ratio)
