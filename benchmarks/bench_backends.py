"""Benchmark — the execution backends against the sequential reference.

The executor layer claims two things:

1. **Observational equality.**  Values and abstract BSP costs are
   backend-independent — the whole point of keeping the `W + H.g + S.l`
   accounting inside the tasks.  This bench re-asserts it on a mixed
   workload (generated programs plus every shipped ``programs/*.bsml``),
   so ``pytest benchmarks/`` catches a divergent backend even if the
   tier-1 property sweep is skipped.

2. **Bounded dispatch overhead.**  On a one-superstep microworkload the
   thread backend's dispatch overhead (pool submission + join versus a
   plain loop) must stay within an order of magnitude of sequential —
   the interpreter work dominates dispatch for any real program.  No
   *speedup* is asserted: the GIL and single-core CI boxes make one
   meaningless, and the layer exists for fidelity to the BSP machine
   model, not for making an interpreter faster.

The regenerated table lands in ``benchmarks/results/backends.txt``.
"""

from __future__ import annotations

import time

from repro.bsp.executor import BACKENDS
from repro.bsp.params import BspParams
from repro.testing import ProgramGenerator, conformance_corpus, run_differential

from _util import write_table

PARAMS = BspParams(p=4, g=2.0, l=50.0)

#: Generated-program seeds swept (on top of the shipped corpus).
SEEDS = range(40)


def _workload():
    for seed in SEEDS:
        expr = ProgramGenerator(seed=seed, p_hint=PARAMS.p).expression(depth=4)
        yield f"gen[{seed}]", expr, False
    for name, source in conformance_corpus():
        yield name, source, True


def test_backends_agree_and_overhead_is_bounded(benchmark):
    timings = {backend: 0.0 for backend in BACKENDS}
    programs = 0
    divergent = []
    for name, program, prelude in _workload():
        programs += 1
        report = run_differential(program, params=PARAMS, use_prelude=prelude)
        if not report.conforms:
            divergent.append((name, report.explain()))
            continue
        # Re-run each backend alone for a per-backend timing that is not
        # polluted by the other backends sharing the loop iteration.
        for backend in BACKENDS:
            start = time.perf_counter()
            run_differential(
                program, params=PARAMS, backends=(backend,), use_prelude=prelude
            )
            timings[backend] += time.perf_counter() - start

    assert not divergent, "backends diverged:\n" + "\n\n".join(
        explanation for _, explanation in divergent
    )

    sequential = timings["seq"]
    rows = [
        (
            backend,
            f"{timings[backend] * 1e3:.1f}",
            f"{timings[backend] / sequential:.2f}x",
            "reference" if backend == "seq" else "conforms",
        )
        for backend in BACKENDS
    ]
    write_table(
        "backends",
        f"Backends — {programs} programs (generated + shipped corpus), "
        f"p={PARAMS.p}: wall clock per backend, all values and costs "
        "bit-identical",
        ("backend", "total (ms)", "vs seq", "verdict"),
        rows,
        footer="Abstract cost is computed inside the tasks, so the "
        "BspCost tables agree exactly; only wall clock differs.",
    )

    # Dispatch overhead guard, on the cheapest possible per-task work:
    # thread dispatch must stay within 10x of the in-line loop.
    assert timings["thread"] < 10 * sequential, (
        f"thread dispatch overhead blew up: {timings['thread'] * 1e3:.1f} ms "
        f"vs sequential {sequential * 1e3:.1f} ms"
    )

    sample = ProgramGenerator(seed=3, p_hint=PARAMS.p).expression(depth=4)
    benchmark(
        lambda: run_differential(
            sample, params=PARAMS, backends=("seq",), use_prelude=False
        )
    )
