"""Post-hoc BSP analytics over saved traces.

The trace layer records what *happened*; this module reads a saved trace
back (the JSONL or Chrome JSON files :mod:`repro.obs.export` writes) and
answers the questions the BSP cost model ``W + H·g + S·l`` poses:

* **critical path** — how the program's wall time decomposes into
  compute / exchange / barrier per superstep, and which phase dominates;
* **load balance** — per-process measured compute seconds, the imbalance
  factor (slowest over mean — exactly the ``w_max``-vs-``ΣW/p`` gap the
  cost model charges for), and the straggler process;
* **traffic** — the p×p word matrix summed over every h-relation, from
  the deterministic ``matrix`` arg each ``superstep.exchange`` span
  carries;
* **calibration** — a least-squares fit of *effective* ``g`` and ``l``
  from the measured exchange+barrier time of each synchronized
  superstep: with communication time modelled as ``t_comm(s) ≈ g·h(s) +
  l``, the slope of the ``(h, t_comm)`` regression is ``g_eff``
  (seconds/word) and the intercept is ``l_eff`` (seconds).  A second
  single-parameter fit maps abstract work units to seconds
  (``t_compute(s) ≈ c·w_max(s)``, least squares through the origin).
  The **drift table** then replays the model against the measurement:
  per superstep, predicted ``c·w_max + g·h + l`` next to the measured
  phase total, with the relative drift — the continuously-checkable form
  of the ROADMAP's "static cost inference checked against the simulator"
  item.

``g``/``l`` here are in *seconds* (per word / per barrier), unlike the
abstract :class:`~repro.bsp.params.BspParams` which are in work units;
pass the machine's configured values converted to seconds to compare
against the fit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.obs.tracer import MACHINE_TRACK, Trace, TraceRecord, process_track

#: Formats :func:`load_trace` understands.
ANALYZE_FORMATS = ("chrome", "jsonl")

_PHASES = ("compute", "exchange", "barrier")


# -- loading ------------------------------------------------------------------


def load_trace(
    source: Union[str, Path], format: Optional[str] = None
) -> Trace:
    """Read a saved trace back into a :class:`Trace`.

    ``format`` is ``"jsonl"`` or ``"chrome"``; with None the suffix
    decides (``.jsonl`` -> jsonl, anything else -> Chrome JSON).  The
    reconstructed trace has epoch 0 and relative timestamps — exactly
    what the exporters wrote.  Raises :class:`ValueError` (naming the
    offending line or event) on malformed input.
    """
    path = Path(source)
    if format is None:
        format = "jsonl" if path.suffix.lower() == ".jsonl" else "chrome"
    if format not in ANALYZE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r} "
            f"(choose from {', '.join(ANALYZE_FORMATS)})"
        )
    text = path.read_text(encoding="utf-8")
    if format == "jsonl":
        return _load_jsonl(text)
    return _load_chrome(text)


def _freeze_args(args: Any, line_label: str) -> Tuple[Tuple[str, Any], ...]:
    if args is None:
        return ()
    if not isinstance(args, dict):
        raise ValueError(f"{line_label}: 'args' must be an object, got {args!r}")
    # JSON round-trips tuples (the exchange matrix) as lists; keep them
    # as-is — the analyses index rather than hash them.
    return tuple(sorted(args.items()))


def _load_jsonl(text: str) -> Trace:
    trace = Trace(epoch=0.0)
    for line_number, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        label = f"line {line_number}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{label}: not valid JSON ({exc})") from None
        if not isinstance(obj, dict):
            raise ValueError(f"{label}: expected an object, got {obj!r}")
        for key in ("name", "track", "ts"):
            if key not in obj:
                raise ValueError(f"{label}: missing required key {key!r}")
        dur = obj.get("dur")
        if dur is not None and not isinstance(dur, (int, float)):
            raise ValueError(f"{label}: 'dur' must be a number or null")
        trace.records.append(
            TraceRecord(
                str(obj["name"]),
                str(obj["track"]),
                float(obj["ts"]),
                float(dur) if dur is not None else None,
                _freeze_args(obj.get("args"), label),
            )
        )
    return trace


def _load_chrome(text: str) -> Trace:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"not valid JSON ({exc})") from None
    if not isinstance(data, dict) or not isinstance(data.get("traceEvents"), list):
        raise ValueError("not a Chrome trace: missing top-level 'traceEvents' list")
    # First pass: recover the tid -> track map from thread_name metadata.
    tracks: Dict[Any, str] = {}
    for entry in data["traceEvents"]:
        if (
            isinstance(entry, dict)
            and entry.get("ph") == "M"
            and entry.get("name") == "thread_name"
        ):
            name = (entry.get("args") or {}).get("name")
            if name:
                tracks[entry.get("tid")] = str(name)
    trace = Trace(epoch=0.0)
    for index, entry in enumerate(data["traceEvents"]):
        if not isinstance(entry, dict):
            raise ValueError(f"event {index}: expected an object, got {entry!r}")
        phase = entry.get("ph")
        if phase == "M":
            continue
        label = f"event {index} ({entry.get('name', '<unnamed>')!r})"
        if phase not in ("X", "i", "I"):
            raise ValueError(f"{label}: unsupported phase {phase!r}")
        if "ts" not in entry:
            raise ValueError(f"{label}: missing required key 'ts'")
        track = tracks.get(entry.get("tid"), f"tid {entry.get('tid')}")
        dur = None
        if phase == "X":
            if not isinstance(entry.get("dur"), (int, float)):
                raise ValueError(f"{label}: complete event needs a numeric 'dur'")
            dur = entry["dur"] / 1e6
        trace.records.append(
            TraceRecord(
                str(entry.get("name", "")),
                track,
                float(entry["ts"]) / 1e6,
                dur,
                _freeze_args(entry.get("args"), label),
            )
        )
    return trace


# -- report dataclasses -------------------------------------------------------


@dataclass(frozen=True)
class SuperstepBreakdown:
    """Measured phase durations of one superstep (seconds; a phase the
    trace did not record is 0)."""

    index: int
    label: str
    compute: float
    exchange: float
    barrier: float
    w_max: Optional[float] = None
    h: Optional[int] = None

    @property
    def total(self) -> float:
        return self.compute + self.exchange + self.barrier


@dataclass(frozen=True)
class CalibrationFit:
    """Effective BSP parameters fitted from measured spans.

    ``g_eff`` — seconds per word (slope of the comm regression), None
    when every superstep moved the same ``h`` (the regression is
    degenerate: slope unidentifiable).  ``l_eff`` — seconds per barrier
    (intercept).  ``compute_scale`` — seconds per abstract work unit,
    None when no superstep carried both ``w_max`` and a compute span.
    ``points`` is the number of (h, t_comm) observations behind the fit.
    """

    g_eff: Optional[float]
    l_eff: Optional[float]
    compute_scale: Optional[float]
    points: int
    notes: Tuple[str, ...] = ()


@dataclass(frozen=True)
class DriftRow:
    """One superstep of the modelled-versus-measured comparison."""

    index: int
    label: str
    predicted: float
    measured: float

    @property
    def drift(self) -> float:
        """Relative drift ``(measured - predicted) / predicted`` (0 when
        the prediction is 0)."""
        if self.predicted == 0:
            return 0.0
        return (self.measured - self.predicted) / self.predicted


@dataclass
class AnalysisReport:
    """Everything :func:`analyze_trace` computed, renderable as text."""

    supersteps: List[SuperstepBreakdown] = field(default_factory=list)
    phase_totals: Dict[str, float] = field(default_factory=dict)
    task_seconds: Dict[int, float] = field(default_factory=dict)
    traffic: List[List[int]] = field(default_factory=list)
    fit: Optional[CalibrationFit] = None
    drift: List[DriftRow] = field(default_factory=list)
    #: The g/l the drift prediction used (configured if given, else fitted).
    used_g: Optional[float] = None
    used_l: Optional[float] = None

    @property
    def critical_path(self) -> float:
        """Total measured superstep seconds (compute + exchange + barrier)."""
        return sum(self.phase_totals.values())

    @property
    def dominant_phase(self) -> Optional[str]:
        if not self.phase_totals or self.critical_path == 0:
            return None
        return max(_PHASES, key=lambda phase: self.phase_totals.get(phase, 0.0))

    @property
    def imbalance(self) -> Optional[float]:
        """Slowest process's compute seconds over the mean (1.0 = perfectly
        balanced), None without per-process task records."""
        if not self.task_seconds:
            return None
        values = list(self.task_seconds.values())
        mean = sum(values) / len(values)
        if mean == 0:
            return None
        return max(values) / mean

    @property
    def straggler(self) -> Optional[int]:
        if not self.task_seconds:
            return None
        return max(self.task_seconds, key=lambda proc: self.task_seconds[proc])

    def render(self) -> str:
        lines = [
            f"trace analysis: {len(self.supersteps)} supersteps, "
            f"critical path {self.critical_path * 1e3:.3f} ms"
        ]
        if self.supersteps:
            lines.append("  superstep critical path (ms):")
            lines.append(
                f"    {'step':>4} {'compute':>10} {'exchange':>10} "
                f"{'barrier':>10} {'total':>10}  label"
            )
            for step in self.supersteps:
                lines.append(
                    f"    {step.index:>4} {step.compute * 1e3:>10.3f} "
                    f"{step.exchange * 1e3:>10.3f} {step.barrier * 1e3:>10.3f} "
                    f"{step.total * 1e3:>10.3f}  {step.label}"
                )
            totals = self.phase_totals
            lines.append(
                "    phase totals: "
                + ", ".join(
                    f"{phase} {totals.get(phase, 0.0) * 1e3:.3f} ms"
                    for phase in _PHASES
                )
                + (
                    f" — dominated by {self.dominant_phase}"
                    if self.dominant_phase
                    else ""
                )
            )
        if self.task_seconds:
            lines.append("  per-process compute (load balance):")
            for proc in sorted(self.task_seconds):
                marker = "  <- straggler" if proc == self.straggler else ""
                lines.append(
                    f"    proc {proc:<4} {self.task_seconds[proc] * 1e3:>10.3f} ms"
                    f"{marker}"
                )
            imbalance = self.imbalance
            if imbalance is not None:
                lines.append(f"    imbalance factor (max/mean): {imbalance:.3f}")
        if self.traffic and any(any(row) for row in self.traffic):
            lines.append("  h-relation traffic matrix (words, src -> dst):")
            p = len(self.traffic)
            header = "         " + " ".join(f"{j:>8}" for j in range(p))
            lines.append(header)
            for i, row in enumerate(self.traffic):
                lines.append(
                    f"    {i:>4} " + " ".join(f"{int(w):>8}" for w in row)
                )
        if self.fit is not None:
            fit = self.fit
            lines.append("  calibration (least squares over measured spans):")
            g_text = (
                f"{fit.g_eff * 1e6:.4f} us/word"
                if fit.g_eff is not None
                else "unidentifiable (h constant)"
            )
            l_text = (
                f"{fit.l_eff * 1e3:.4f} ms/barrier"
                if fit.l_eff is not None
                else "-"
            )
            c_text = (
                f"{fit.compute_scale * 1e6:.4f} us/unit"
                if fit.compute_scale is not None
                else "-"
            )
            lines.append(f"    g_eff = {g_text}")
            lines.append(f"    l_eff = {l_text}")
            lines.append(f"    compute scale = {c_text}  ({fit.points} points)")
            for note in fit.notes:
                lines.append(f"    note: {note}")
        if self.drift:
            lines.append("  drift table (modelled vs measured, ms):")
            lines.append(
                f"    {'step':>4} {'predicted':>11} {'measured':>11} "
                f"{'drift':>8}  label"
            )
            for row in self.drift:
                lines.append(
                    f"    {row.index:>4} {row.predicted * 1e3:>11.3f} "
                    f"{row.measured * 1e3:>11.3f} {row.drift:>+7.1%}  {row.label}"
                )
        if len(lines) == 1:
            lines.append("  (no superstep records in this trace)")
        return "\n".join(lines)


# -- the analyses -------------------------------------------------------------


def _linear_fit(
    points: Sequence[Tuple[float, float]]
) -> Tuple[Optional[float], float]:
    """Least-squares ``y ≈ slope·x + intercept``; slope is None when the
    x values are constant (then intercept is the plain mean of y)."""
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var = sum((x - mean_x) ** 2 for x, _ in points)
    if var == 0:
        return None, mean_y
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
    slope = cov / var
    return slope, mean_y - slope * mean_x


def analyze_trace(
    trace: Trace, g: Optional[float] = None, l: Optional[float] = None
) -> AnalysisReport:
    """Run every analysis over ``trace``.

    ``g``/``l`` are the machine's *configured* parameters in seconds
    (per word / per barrier); when both are given the drift table
    predicts with them (and the fit shows how far reality drifted),
    otherwise the fitted values predict (and drift measures residual
    model error).
    """
    report = AnalysisReport()

    # Phase breakdown per superstep, joined on the superstep index.
    phases: Dict[int, Dict[str, float]] = {}
    labels: Dict[int, str] = {}
    for record in trace.records:
        if record.is_span and record.name.startswith("superstep."):
            index = record.arg("superstep")
            if index is None:
                continue
            phase = record.name[len("superstep.") :]
            bucket = phases.setdefault(int(index), {})
            bucket[phase] = bucket.get(phase, 0.0) + record.dur
            label = record.arg("label")
            if label:
                labels.setdefault(int(index), str(label))

    # Commit events carry the abstract cost row (w_max, h).
    committed: Dict[int, Tuple[Optional[float], Optional[int]]] = {}
    for record in trace.events("superstep"):
        index = record.arg("superstep")
        if index is None:
            continue
        committed[int(index)] = (record.arg("w_max"), record.arg("h"))
        label = record.arg("label")
        if label:
            labels.setdefault(int(index), str(label))

    for index in sorted(set(phases) | set(committed)):
        bucket = phases.get(index, {})
        w_max, h = committed.get(index, (None, None))
        report.supersteps.append(
            SuperstepBreakdown(
                index,
                labels.get(index, ""),
                bucket.get("compute", 0.0),
                bucket.get("exchange", 0.0),
                bucket.get("barrier", 0.0),
                w_max,
                h,
            )
        )
    for phase in _PHASES:
        report.phase_totals[phase] = sum(
            getattr(step, phase) for step in report.supersteps
        )

    # Per-process measured compute seconds from the task spans.
    for record in trace.records:
        if record.is_span and record.name == "task":
            proc = record.arg("proc")
            if proc is not None:
                report.task_seconds[int(proc)] = (
                    report.task_seconds.get(int(proc), 0.0) + record.dur
                )

    # Traffic matrix: elementwise sum of every exchange's matrix arg.
    for record in trace.spans("superstep.exchange"):
        matrix = record.arg("matrix")
        if not matrix:
            continue
        size = len(matrix)
        if len(report.traffic) < size:
            grown = [[0] * size for _ in range(size)]
            for i, row in enumerate(report.traffic):
                for j, words in enumerate(row):
                    grown[i][j] = words
            report.traffic = grown
        for i, row in enumerate(matrix):
            for j, words in enumerate(row):
                report.traffic[i][j] += int(words)

    # Calibration: t_comm(s) = exchange + barrier seconds against h(s).
    notes: List[str] = []
    comm_points = [
        (float(step.h), step.exchange + step.barrier)
        for step in report.supersteps
        if step.h is not None and (step.exchange or step.barrier)
    ]
    g_eff: Optional[float] = None
    l_eff: Optional[float] = None
    if comm_points:
        g_eff, l_eff = _linear_fit(comm_points)
        if g_eff is None:
            notes.append(
                "all supersteps moved the same h; g is unidentifiable and "
                "l_eff absorbs the whole mean communication time"
            )
        elif g_eff < 0:
            notes.append(
                "fitted g is negative (noise dominates); treat with suspicion"
            )
    compute_points = [
        (float(step.w_max), step.compute)
        for step in report.supersteps
        if step.w_max and step.compute
    ]
    compute_scale: Optional[float] = None
    if compute_points:
        denominator = sum(w * w for w, _ in compute_points)
        if denominator:
            compute_scale = (
                sum(w * t for w, t in compute_points) / denominator
            )
    if comm_points or compute_points:
        report.fit = CalibrationFit(
            g_eff, l_eff, compute_scale, len(comm_points), tuple(notes)
        )

    # Drift table: predict with configured g/l when both given, else the fit.
    use_g = g if g is not None else g_eff
    use_l = l if l is not None else l_eff
    report.used_g, report.used_l = use_g, use_l
    if use_l is not None:
        for step in report.supersteps:
            if step.h is None:
                continue
            predicted = use_l + (use_g or 0.0) * step.h
            if compute_scale is not None and step.w_max:
                predicted += compute_scale * step.w_max
            report.drift.append(
                DriftRow(step.index, step.label, predicted, step.total)
            )
    return report


# -- synthetic traces ---------------------------------------------------------


def synthetic_trace(
    p: int = 4,
    g: float = 2e-6,
    l: float = 1e-3,
    compute_scale: float = 1e-6,
    steps: Sequence[Tuple[float, int]] = ((1000.0, 100), (4000.0, 400), (2000.0, 250)),
) -> Trace:
    """A trace that follows the cost model *exactly*: superstep ``s``
    with abstract work ``w`` and h-relation ``h`` takes
    ``compute_scale·w`` compute seconds, ``g·h`` exchange seconds and
    ``l`` barrier seconds.  :func:`analyze_trace` on this trace must
    recover ``g``, ``l`` and ``compute_scale`` to machine precision —
    the calibration acceptance test, and a fixture for drift-table docs.
    """
    trace = Trace(epoch=0.0)
    now = 0.0

    def add(name: str, track: str, dur: Optional[float], **args: Any) -> None:
        nonlocal now
        trace.records.append(
            TraceRecord(name, track, now, dur, tuple(sorted(args.items())))
        )
        if dur is not None:
            now += dur

    for index, (work, h) in enumerate(steps):
        compute = compute_scale * work
        share = compute / p
        add(
            "superstep.compute",
            MACHINE_TRACK,
            compute,
            superstep=index,
            procs=p,
        )
        for proc in range(p):
            add(
                "task",
                process_track(proc),
                # A deliberately imbalanced split: proc 0 is the straggler.
                share * (1.5 if proc == 0 else 1.0),
                proc=proc,
                superstep=index,
                ops=int(work // p),
            )
        words = h  # one-word messages round-robin
        matrix = [[0] * p for _ in range(p)]
        remaining = words
        src = 0
        while remaining > 0:
            dst = (src + 1) % p
            matrix[src][dst] += 1
            remaining -= 1
            src = (src + 1) % p
        add(
            "superstep.exchange",
            MACHINE_TRACK,
            g * h,
            superstep=index,
            label=f"s{index}",
            h=h,
            words=words,
            matrix=tuple(tuple(row) for row in matrix),
        )
        add(
            "superstep.barrier",
            MACHINE_TRACK,
            l,
            superstep=index,
            label=f"s{index}",
        )
        add(
            "superstep",
            MACHINE_TRACK,
            None,
            superstep=index,
            w_max=work,
            h=h,
            words=words,
            label=f"s{index}",
        )
    return trace
