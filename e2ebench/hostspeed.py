"""How fast the host runs the Python interpreter right now.

The benchmark runs on shared machines whose speed changes under it: on a
two-vCPU host, ten runs of the same code and inputs read up to 1.8x apart
in throughput, in stretches of several minutes that lift or sink every run
made during them, which no number of slices inside a run can remove.  So
every timed end-to-end metric is reported at a fixed reference speed.  A
fixed piece of pure-Python work, which calls no code of the repository, is
timed on the server's CPU at each slice edge of the timed window (while the
closed-loop server is idle) and before each server start; each slice's
times are divided, and its rates multiplied, by how much slower than
:data:`NOMINAL_S` the reference ran.  A change to the program under test
moves the reference not at all, so it moves the scaled metrics exactly as
it moves the raw ones.  ``run.py`` prints the raw figures too.
"""

from __future__ import annotations

import gc
import os
import time
from typing import Set

#: The reference work's wall time on this benchmark's usual host (one vCPU
#: of a 2.0 GHz Xeon) in its usual state; scaled metrics read as if the host
#: had run at that speed.
NOMINAL_S = 0.013

_TEXT = " ".join(f"(x{i % 13} + {i}) * (y{i % 7} - {i % 5})" for i in range(40))


def _reference_work() -> int:
    """Tokenizing, dict and tuple building and recursive walking: the kind
    of interpreter work the service's parser and type inference do."""
    total = 0
    for _ in range(60):
        env = {}
        stack = [[]]
        for token in _TEXT.replace("(", " ( ").replace(")", " ) ").split():
            if token == "(":
                stack.append([])
            elif token == ")":
                node = tuple(stack.pop())
                stack[-1].append(node)
            else:
                env[token] = env.get(token, 0) + 1
                stack[-1].append(token)
        total += _size(tuple(stack[0])) + len(env)
    return total


def _size(node) -> int:
    if isinstance(node, tuple):
        return 1 + sum(_size(child) for child in node)
    return 1


def slowness(cpus: Set[int]) -> float:
    """How many times slower than :data:`NOMINAL_S` the reference work runs
    on ``cpus`` (all of this process's CPUs when empty)."""
    previous = os.sched_getaffinity(0)
    collecting = gc.isenabled()
    gc.disable()
    try:
        if cpus:
            os.sched_setaffinity(0, cpus)
        started = time.perf_counter()
        _reference_work()
        elapsed = time.perf_counter() - started
    finally:
        os.sched_setaffinity(0, previous)
        if collecting:
            gc.enable()
    return elapsed / NOMINAL_S
