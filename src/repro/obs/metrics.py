"""A label-aware metrics registry with Prometheus text exposition.

Where :mod:`repro.perf` gives one *request* a window of counters and
:mod:`repro.obs.tracer` gives one *run* a span timeline, this module is
the long-lived aggregate view a running service needs: process-wide
**counters**, **gauges** and fixed-bucket streaming **histograms**
(O(1) memory per series — cumulative bucket counts plus sum and count,
never the raw samples), each optionally split by a small set of labels.

Three sources feed the registry:

* the **trace layer** — when metrics are enabled a module-global sink is
  registered with :mod:`repro.obs.tracer`; every finished span or event
  (superstep compute/exchange/barrier phases, per-process tasks, the
  ``infer`` span of every inference plus the ``Solve``/unify/judgment
  spans recorded inside trace windows, fault/retry/rollback events) is
  projected onto the standard histograms and counters below.  The sink
  is *not* context-local on purpose: per-request trace windows stay
  isolated in their :mod:`contextvars`, while the metrics aggregate
  across every request of the process;
* the **service layer** — :mod:`repro.service.server` observes
  per-route/backend request latency and maintains the admission
  gauges; :mod:`repro.service.cache` counts response-cache hits;
* the **perf layer** — :mod:`repro.perf.bridge` contributes scrape-time
  samples for every registered solver cache and intern pool.

Collection is **disabled by default** and reference-counted:
:func:`enable` installs the trace sink (the service does this at boot,
the REPL on ``:metrics on``), :func:`disable` removes it when the last
user leaves.  With metrics disabled every instrumentation point is one
truthiness test — the ``bench_metrics.py`` guard holds the machine to
the same <= 1.05x budget as the tracer.

The exposition format is the Prometheus text format (version 0.0.4):
``# HELP``/``# TYPE`` comments followed by ``name{label="value"} value``
samples; histograms expose cumulative ``_bucket{le="..."}`` series plus
``_sum`` and ``_count``.  :func:`parse_prometheus` is the strict parser
the tests and the CI load-test scrape run against :func:`render_global`
output.
"""

from __future__ import annotations

import math
import re
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs import tracer
from repro.obs.tracer import TraceRecord

#: The Content-Type a Prometheus scrape expects.
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: Latency buckets (seconds) shared by the standard histograms: fine
#: sub-millisecond resolution (solver spans, cached replays) up to tens
#: of seconds (cold runs under load).  ``+Inf`` is implicit.
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _check_labelnames(labelnames: Sequence[str]) -> Tuple[str, ...]:
    for label in labelnames:
        if not _LABEL_RE.match(label) or label.startswith("__"):
            raise ValueError(f"invalid label name {label!r}")
    return tuple(labelnames)


def _escape_label_value(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == math.inf:
        return "+Inf"
    if value == -math.inf:
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _render_labels(pairs: Sequence[Tuple[str, str]]) -> str:
    if not pairs:
        return ""
    inner = ",".join(
        f'{name}="{_escape_label_value(str(value))}"' for name, value in pairs
    )
    return "{" + inner + "}"


@dataclass(frozen=True)
class MetricSample:
    """One exposition line: a (possibly suffixed) sample name, its label
    pairs in declaration order, and the value."""

    suffix: str  # "", "_bucket", "_sum", "_count"
    labels: Tuple[Tuple[str, str], ...]
    value: float


@dataclass
class MetricData:
    """One family as rendered: name, kind, help and its samples.  This is
    also what scrape-time collectors (the perf bridge) return."""

    name: str
    kind: str  # counter | gauge | histogram
    help: str
    samples: List[MetricSample] = field(default_factory=list)


class _Family:
    """Shared bookkeeping of one metric family (all label combinations)."""

    kind = "untyped"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        self.name = _check_name(name)
        self.help = help
        self.labelnames = _check_labelnames(labelnames)
        self._lock = threading.Lock()

    def _key(self, labels: Dict[str, Any]) -> Tuple[str, ...]:
        if set(labels) != set(self.labelnames):
            raise ValueError(
                f"metric {self.name!r} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.labelnames)

    def _pairs(self, key: Tuple[str, ...]) -> Tuple[Tuple[str, str], ...]:
        return tuple(zip(self.labelnames, key))


class Counter(_Family):
    """A monotonically increasing sum per label combination."""

    kind = "counter"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease")
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            return self._values.get(key, 0.0)

    def reset(self) -> None:
        with self._lock:
            self._values.clear()

    def collect(self) -> MetricData:
        with self._lock:
            items = sorted(self._values.items())
        return MetricData(
            self.name,
            self.kind,
            self.help,
            [MetricSample("", self._pairs(key), value) for key, value in items],
        )


class Gauge(_Family):
    """A value that can go up and down; a series may instead be bound to
    a callable read at scrape time (:meth:`set_function`)."""

    kind = "gauge"

    def __init__(self, name: str, help: str, labelnames: Sequence[str] = ()) -> None:
        super().__init__(name, help, labelnames)
        self._values: Dict[Tuple[str, ...], float] = {}
        self._functions: Dict[Tuple[str, ...], Callable[[], float]] = {}

    def set(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = float(value)

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def dec(self, amount: float = 1.0, **labels: Any) -> None:
        self.inc(-amount, **labels)

    def set_to_max(self, value: float, **labels: Any) -> None:
        """Raise the series to ``value`` if it is below it (peak gauges)."""
        key = self._key(labels)
        with self._lock:
            self._values[key] = max(self._values.get(key, 0.0), float(value))

    def set_function(self, fn: Callable[[], float], **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._functions[key] = fn

    def clear_function(self, **labels: Any) -> None:
        key = self._key(labels)
        with self._lock:
            self._functions.pop(key, None)

    def value(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            fn = self._functions.get(key)
            if fn is None:
                return self._values.get(key, 0.0)
        return float(fn())

    def reset(self) -> None:
        with self._lock:
            self._values.clear()
            self._functions.clear()

    def collect(self) -> MetricData:
        with self._lock:
            items = dict(self._values)
            functions = dict(self._functions)
        for key, fn in functions.items():
            try:
                items[key] = float(fn())
            except Exception:
                # A scrape must never fail because one callback did; the
                # stale stored value (or 0) stands in.
                items.setdefault(key, 0.0)
        return MetricData(
            self.name,
            self.kind,
            self.help,
            [
                MetricSample("", self._pairs(key), value)
                for key, value in sorted(items.items())
            ],
        )


class Histogram(_Family):
    """A fixed-bucket streaming histogram: cumulative bucket counts plus
    sum and count per series — O(len(buckets)) memory however many
    observations arrive."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, labelnames)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if len(set(bounds)) != len(bounds):
            raise ValueError("bucket bounds must be distinct")
        self.buckets = bounds
        #: key -> [per-bucket counts..., +Inf count], observation count, sum
        self._series: Dict[Tuple[str, ...], Tuple[List[int], List[float]]] = {}

    def observe(self, value: float, **labels: Any) -> None:
        key = self._key(labels)
        value = float(value)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = ([0] * (len(self.buckets) + 1), [0, 0.0])
                self._series[key] = series
            counts, totals = series
            index = len(self.buckets)
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    index = i
                    break
            counts[index] += 1
            totals[0] += 1
            totals[1] += value

    def count(self, **labels: Any) -> int:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return int(series[1][0]) if series else 0

    def sum(self, **labels: Any) -> float:
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            return series[1][1] if series else 0.0

    def quantile(self, q: float, **labels: Any) -> float:
        """A bucket-resolution quantile estimate: the upper bound of the
        first bucket whose cumulative count reaches ``q`` of the total
        (``inf`` when only the overflow bucket holds the rank)."""
        key = self._key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None or series[1][0] == 0:
                return 0.0
            counts = list(series[0])
            total = series[1][0]
        rank = q * total
        cumulative = 0
        for bound, count in zip(self.buckets, counts):
            cumulative += count
            if cumulative >= rank:
                return bound
        return math.inf

    def reset(self) -> None:
        with self._lock:
            self._series.clear()

    def collect(self) -> MetricData:
        with self._lock:
            snapshot = {
                key: (list(counts), list(totals))
                for key, (counts, totals) in self._series.items()
            }
        samples: List[MetricSample] = []
        for key in sorted(snapshot):
            counts, (count, total) = snapshot[key]
            pairs = self._pairs(key)
            cumulative = 0
            for bound, bucket_count in zip(self.buckets, counts):
                cumulative += bucket_count
                samples.append(
                    MetricSample(
                        "_bucket",
                        pairs + (("le", _format_value(bound)),),
                        cumulative,
                    )
                )
            samples.append(
                MetricSample("_bucket", pairs + (("le", "+Inf"),), count)
            )
            samples.append(MetricSample("_sum", pairs, total))
            samples.append(MetricSample("_count", pairs, count))
        return MetricData(self.name, self.kind, self.help, samples)


class MetricsRegistry:
    """A named collection of metric families plus scrape-time collectors.

    ``counter``/``gauge``/``histogram`` are idempotent per name: asking
    again for an existing family returns it (and raises if the kind or
    labels disagree), so call sites can declare their metrics without
    coordinating.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[[], Iterable[MetricData]]] = []

    def _register(self, factory: Callable[[], _Family], name: str, kind: str) -> _Family:
        with self._lock:
            existing = self._families.get(name)
            if existing is not None:
                if existing.kind != kind:
                    raise ValueError(
                        f"metric {name!r} already registered as {existing.kind}"
                    )
                return existing
            family = factory()
            self._families[name] = family
            return family

    def counter(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Counter:
        family = self._register(lambda: Counter(name, help, labelnames), name, "counter")
        assert isinstance(family, Counter)
        return family

    def gauge(self, name: str, help: str, labelnames: Sequence[str] = ()) -> Gauge:
        family = self._register(lambda: Gauge(name, help, labelnames), name, "gauge")
        assert isinstance(family, Gauge)
        return family

    def histogram(
        self,
        name: str,
        help: str,
        labelnames: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        family = self._register(
            lambda: Histogram(name, help, labelnames, buckets), name, "histogram"
        )
        assert isinstance(family, Histogram)
        return family

    def register_collector(self, fn: Callable[[], Iterable[MetricData]]) -> None:
        """Add a scrape-time collector contributing extra families (the
        perf-layer cache bridge).  Idempotent per callable."""
        with self._lock:
            if fn not in self._collectors:
                self._collectors.append(fn)

    def unregister_collector(self, fn: Callable[[], Iterable[MetricData]]) -> None:
        with self._lock:
            if fn in self._collectors:
                self._collectors.remove(fn)

    def reset(self) -> None:
        """Zero every series of every family (families stay registered,
        so module-level references keep working).  Test plumbing."""
        with self._lock:
            families = list(self._families.values())
        for family in families:
            family.reset()  # type: ignore[attr-defined]

    def collect(self) -> List[MetricData]:
        with self._lock:
            families = sorted(self._families.values(), key=lambda f: f.name)
            collectors = list(self._collectors)
        data = [family.collect() for family in families]  # type: ignore[attr-defined]
        for fn in collectors:
            try:
                data.extend(fn())
            except Exception:
                # Scrapes must survive a broken collector.
                continue
        data.sort(key=lambda metric: metric.name)
        return data

    def render(self) -> str:
        """The Prometheus text exposition of every family."""
        lines: List[str] = []
        for metric in self.collect():
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
            lines.append(f"# TYPE {metric.name} {metric.kind}")
            for sample in metric.samples:
                lines.append(
                    f"{metric.name}{sample.suffix}"
                    f"{_render_labels(sample.labels)} {_format_value(sample.value)}"
                )
        return "\n".join(lines) + "\n"


# -- the process-global registry and the standard metrics ---------------------

_GLOBAL = MetricsRegistry()

#: Request latency by logical route, backend and cache outcome.
REQUEST_SECONDS = _GLOBAL.histogram(
    "repro_request_seconds",
    "Service request latency in seconds.",
    ("route", "backend", "cache"),
)

#: Requests by route and HTTP status (429 rejections included).
REQUESTS_TOTAL = _GLOBAL.counter(
    "repro_requests_total",
    "Service requests handled, by route and status code.",
    ("route", "status"),
)

REJECTED_TOTAL = _GLOBAL.counter(
    "repro_requests_rejected_total",
    "Requests rejected by admission control (HTTP 429).",
)

CACHE_REQUESTS_TOTAL = _GLOBAL.counter(
    "repro_response_cache_requests_total",
    "Response-cache lookups by result (hit/miss) plus evictions.",
    ("result",),
)

INFLIGHT_REQUESTS = _GLOBAL.gauge(
    "repro_inflight_requests",
    "Requests currently computing (inside the admission semaphore).",
)

WAITING_REQUESTS = _GLOBAL.gauge(
    "repro_waiting_requests",
    "Requests queued on the admission semaphore.",
)

PEAK_INFLIGHT = _GLOBAL.gauge(
    "repro_peak_inflight_requests",
    "High-water mark of concurrently computing requests.",
)

SESSIONS = _GLOBAL.gauge(
    "repro_sessions",
    "Live incremental editing sessions.",
)

SUPERSTEP_SECONDS = _GLOBAL.histogram(
    "repro_superstep_phase_seconds",
    "Measured BSP superstep phase durations by phase "
    "(compute/exchange/barrier).",
    ("phase",),
)

SUPERSTEPS_TOTAL = _GLOBAL.counter(
    "repro_supersteps_total",
    "BSP supersteps committed (barriers passed).",
)

WORDS_TOTAL = _GLOBAL.counter(
    "repro_words_exchanged_total",
    "Words delivered across all h-relations.",
)

INFERENCE_SECONDS = _GLOBAL.histogram(
    "repro_inference_seconds",
    "Type-inference span durations by kind: infer (every run), "
    "judgment/solve/unify (inside trace windows only).",
    ("kind",),
)

FAULTS_TOTAL = _GLOBAL.counter(
    "repro_faults_total",
    "Injected faults drawn from armed fault plans, by kind.",
    ("kind",),
)

RETRIES_TOTAL = _GLOBAL.counter(
    "repro_retries_total",
    "Superstep retry attempts, by phase.",
    ("phase",),
)

ROLLBACKS_TOTAL = _GLOBAL.counter(
    "repro_rollbacks_total",
    "Superstep rollbacks (retries exhausted), by phase.",
    ("phase",),
)

TASK_SECONDS_TOTAL = _GLOBAL.counter(
    "repro_task_seconds_total",
    "Measured per-process compute seconds (load-imbalance numerator).",
    ("proc",),
)


def global_registry() -> MetricsRegistry:
    return _GLOBAL


def render_global() -> str:
    return _GLOBAL.render()


# -- the trace-record sink ----------------------------------------------------

_INFERENCE_SPANS = frozenset({"infer", "judgment", "solve", "unify"})


def _trace_sink(record: TraceRecord) -> None:
    """Project one finished trace record onto the standard metrics."""
    name = record.name
    if record.dur is not None:
        if name.startswith("superstep."):
            SUPERSTEP_SECONDS.observe(record.dur, phase=name[len("superstep.") :])
        elif name in _INFERENCE_SPANS:
            INFERENCE_SECONDS.observe(record.dur, kind=name)
        elif name == "task":
            proc = record.arg("proc")
            if proc is not None:
                TASK_SECONDS_TOTAL.inc(record.dur, proc=str(proc))
        return
    if name == "superstep":
        SUPERSTEPS_TOTAL.inc()
        words = record.arg("words")
        if words:
            WORDS_TOTAL.inc(words)
    elif name == "fault":
        FAULTS_TOTAL.inc(kind=str(record.arg("kind", "unknown")))
    elif name == "retry":
        RETRIES_TOTAL.inc(phase=str(record.arg("phase", "")))
    elif name == "rollback":
        ROLLBACKS_TOTAL.inc(phase=str(record.arg("phase", "")))


# -- enable/disable (reference counted) ---------------------------------------

_STATE_LOCK = threading.Lock()
_ENABLED_DEPTH = 0


def is_enabled() -> bool:
    """True when at least one user (server, REPL session) enabled metrics."""
    return _ENABLED_DEPTH > 0


def enable() -> None:
    """Turn metrics collection on (reference counted).

    Installs the trace sink so superstep/inference/fault records feed
    the histograms, and registers the perf-layer cache bridge as a
    scrape-time collector.
    """
    global _ENABLED_DEPTH
    with _STATE_LOCK:
        _ENABLED_DEPTH += 1
        if _ENABLED_DEPTH == 1:
            tracer.add_sink(_trace_sink)
            from repro.perf.bridge import cache_metrics

            _GLOBAL.register_collector(cache_metrics)


def disable() -> None:
    """Undo one :func:`enable`; the sink is removed when the last user
    leaves.  Collected values persist (scrapes of a paused registry show
    the final totals) until :meth:`MetricsRegistry.reset`."""
    global _ENABLED_DEPTH
    with _STATE_LOCK:
        if _ENABLED_DEPTH == 0:
            return
        _ENABLED_DEPTH -= 1
        if _ENABLED_DEPTH == 0:
            tracer.remove_sink(_trace_sink)


# -- exposition parser --------------------------------------------------------

_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})?"
    r"\s+(?P<value>[^\s]+)"
    r"(?:\s+(?P<timestamp>-?\d+))?$"
)

_LABEL_PAIR_RE = re.compile(
    r'\s*(?P<name>[a-zA-Z_][a-zA-Z0-9_]*)\s*=\s*"(?P<value>(?:[^"\\]|\\.)*)"\s*(?:,|$)'
)

_VALID_TYPES = frozenset(
    {"counter", "gauge", "histogram", "summary", "untyped"}
)


def _parse_labels(raw: str, line_number: int) -> Dict[str, str]:
    labels: Dict[str, str] = {}
    position = 0
    while position < len(raw):
        match = _LABEL_PAIR_RE.match(raw, position)
        if match is None:
            raise ValueError(
                f"line {line_number}: malformed label syntax in {raw!r}"
            )
        value = match.group("value")
        value = (
            value.replace("\\n", "\n").replace('\\"', '"').replace("\\\\", "\\")
        )
        labels[match.group("name")] = value
        position = match.end()
    return labels


def parse_prometheus(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse (and validate) a Prometheus text exposition.

    Returns ``{family name: {"type": ..., "help": ..., "samples":
    [(sample name, labels dict, value), ...]}}``.  Raises
    :class:`ValueError` naming the offending line for any violation of
    the format: bad metric/label names, malformed label syntax,
    non-numeric values, samples whose family has no ``# TYPE``, or
    histogram bucket counts that are not cumulative.
    """
    families: Dict[str, Dict[str, Any]] = {}
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.rstrip()
        if not line:
            continue
        if line.startswith("# HELP "):
            parts = line.split(None, 3)
            if len(parts) < 3 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed HELP line")
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["help"] = parts[3] if len(parts) > 3 else ""
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or not _NAME_RE.match(parts[2]):
                raise ValueError(f"line {line_number}: malformed TYPE line")
            if parts[3] not in _VALID_TYPES:
                raise ValueError(
                    f"line {line_number}: unknown metric type {parts[3]!r}"
                )
            families.setdefault(
                parts[2], {"type": None, "help": None, "samples": []}
            )["type"] = parts[3]
            continue
        if line.startswith("#"):
            continue  # free-form comment
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_number}: malformed sample line {line!r}")
        sample_name = match.group("name")
        labels = _parse_labels(match.group("labels") or "", line_number)
        raw_value = match.group("value")
        try:
            value = float(raw_value)
        except ValueError:
            raise ValueError(
                f"line {line_number}: non-numeric sample value {raw_value!r}"
            ) from None
        family_name = sample_name
        for suffix in ("_bucket", "_sum", "_count"):
            base = sample_name[: -len(suffix)] if sample_name.endswith(suffix) else None
            if base and families.get(base, {}).get("type") == "histogram":
                family_name = base
                break
        if family_name not in families or families[family_name]["type"] is None:
            raise ValueError(
                f"line {line_number}: sample {sample_name!r} has no # TYPE"
            )
        families[family_name]["samples"].append((sample_name, labels, value))
    _check_histogram_consistency(families)
    return families


def _check_histogram_consistency(families: Dict[str, Dict[str, Any]]) -> None:
    for name, family in families.items():
        if family["type"] != "histogram":
            continue
        series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
        for sample_name, labels, value in family["samples"]:
            if not sample_name.endswith("_bucket"):
                continue
            if "le" not in labels:
                raise ValueError(
                    f"histogram {name!r}: bucket sample without an 'le' label"
                )
            bound = (
                math.inf if labels["le"] == "+Inf" else float(labels["le"])
            )
            key = tuple(
                sorted((k, v) for k, v in labels.items() if k != "le")
            )
            series.setdefault(key, []).append((bound, value))
        for key, buckets in series.items():
            buckets.sort()
            counts = [count for _, count in buckets]
            if counts != sorted(counts):
                raise ValueError(
                    f"histogram {name!r}{dict(key)}: bucket counts are not "
                    "cumulative"
                )
            if buckets and buckets[-1][0] != math.inf:
                raise ValueError(
                    f"histogram {name!r}{dict(key)}: missing the +Inf bucket"
                )
