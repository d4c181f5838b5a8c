"""Closed-loop load from one keep-alive connection: the client waits for
each reply before sending the next request, as service callers do.

Requests are sent in index order, so the requests a run sends are always a
prefix of the seeded stream.  Answers are stored and checked after the
timed window, so checking costs no client time inside it.
"""

from __future__ import annotations

import http.client
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Tuple

from server import post
from workloads import Workload


@dataclass
class Sample:
    index: int
    template: int
    latency: float
    #: perf_counter() when the answer arrived.
    finished: float
    #: HTTP status, or 0 for a connection error.
    status: int
    body: bytes


def closed_loop(
    connect: Callable[[], http.client.HTTPConnection],
    workload: Workload,
    seconds: float,
    slices: int,
    probe: Callable[[], Any],
    first: int = 0,
    last: Optional[int] = None,
) -> Tuple[List[Sample], float, List[Tuple[float, Any, float]]]:
    """Drive the server with requests ``first``, ``first + 1``, ... for
    ``seconds``, or until request ``last`` is due.

    Returns the samples, the wall time from the first send to the last
    answer, and one ``(perf_counter() before, probe(), perf_counter()
    after)`` per slice edge: at the start, and after the first answer past
    the end of each of ``slices`` equal slices of the window.  A slice runs
    from one edge's *after* to the next edge's *before*, so the time the
    probe takes is in no slice.
    """

    def edge() -> Tuple[float, Any, float]:
        before = time.perf_counter()
        value = probe()
        return before, value, time.perf_counter()

    samples: List[Sample] = []
    boundaries = [edge()]
    start = boundaries[0][2]
    index = first
    connection = connect()
    try:
        while len(boundaries) <= slices and index != last:
            request = workload.request(index)
            started = time.perf_counter()
            try:
                status, body = post(connection, request.endpoint, request.body)
            except (OSError, http.client.HTTPException):
                status, body = 0, b""
                connection.close()
                connection = connect()
            finished = time.perf_counter()
            samples.append(Sample(index, request.template, finished - started, finished, status, body))
            index += 1
            if finished >= start + len(boundaries) * seconds / slices:
                boundaries.append(edge())
    finally:
        connection.close()
    return samples, time.perf_counter() - start, boundaries
