"""Self-test of ``benchmarks/trend.py``: parsing an e2ebench report and
diffing two records, with the benchmark run stubbed out (no server)."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location("trend", ROOT / "benchmarks" / "trend.py")
trend = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(trend)

END_TO_END = {m["name"]: m["unit"] for m in trend.SPEC["end_to_end"]}


def fake_report(scale: float = 1.0) -> str:
    """A report in e2ebench/run.py's layout: raw values without units,
    then the normalised values with units, then the JSON verdict."""
    values = {name: (index + 1) * scale for index, name in enumerate(END_TO_END)}
    per_layer = {"core.infer_ms": 3.5 * scale, "service.cache_lookups": 1000.0}
    lines = ["workload run_mixed: stub", "seed 1, request-list digest 0123abcd",
             "host: the reference work ran 1.000x its nominal time; as measured, before scaling:"]
    lines += [f"  {name:<28} {value * 9:>14.4f}" for name, value in values.items()]
    lines += [f"  {name:<28} {value:>14.4f} {END_TO_END[name]}" for name, value in values.items()]
    lines += [f"  {name:<28} {value:>14.4f} ms" for name, value in per_layer.items()]
    verdict = {"correct": True, "attempted": 1234, "failed": 0,
               "metrics": {name: {"value": value, "unit": "ms"} for name, value in per_layer.items()}}
    return "\n".join(lines + [json.dumps(verdict)]) + "\n"


def test_parse_run_keeps_normalised_values_and_verdict():
    parsed = trend.parse_run(fake_report())
    assert parsed["correct"] is True
    assert parsed["attempted"] == 1234
    assert parsed["metrics"]["throughput_rps"] == 1.0  # not the raw 9.0
    assert parsed["metrics"]["setup_s"] == float(len(END_TO_END))
    assert parsed["metrics"]["core.infer_ms"] == 3.5
    assert set(END_TO_END) <= set(parsed["metrics"])


def _stub(scales, calls):
    """A run stub whose round ``r`` (one call per workload and seed)
    reports every value scaled by ``scales[r]``."""
    per_round = len(trend.SPEC["workloads"]) * len(trend.SEEDS)

    def run(workload, seed, seconds):
        calls.append((workload, seed, seconds))
        return fake_report(scales[(len(calls) - 1) // per_round])

    return run


def test_record_runs_every_workload_on_every_seed():
    calls = []
    bench = trend.record(7, 12.0, run=_stub((1.0, 1.2, 1.1), calls))
    workloads = [w["name"] for w in trend.SPEC["workloads"]]
    assert calls == [(w, s, 12.0) for w in workloads for s in trend.SEEDS] * trend.RUNS
    assert sorted(bench["runs"]) == sorted(f"{w}/{s}" for w in workloads for s in trend.SEEDS)
    assert bench["pr"] == 7
    run = bench["runs"]["run_mixed/1"]
    assert run["runs"] == 3 and run["attempted"] == 3 * 1234 and run["correct"]
    assert run["metrics"]["core.infer_ms"] == pytest.approx(3.5 * 1.1)  # the median
    assert run["range"]["core.infer_ms"] == pytest.approx([3.5, 3.5 * 1.2])


def _bench(*scales: float) -> dict:
    """A record whose three rounds report at ``scales`` (one scale: all three)."""
    bench = trend.record(0, 1.0, run=_stub(scales * trend.RUNS if len(scales) == 1 else scales, []))
    bench.update(src_lines=1000, tests_lines=500, tier1_collected=10)
    return bench


def _verdicts(rows):
    by_metric = {}
    for row in rows[1:]:
        fields = row.split()
        by_metric.setdefault(fields[1], row)
    return by_metric


def test_diff_flags_only_changes_beyond_the_bound():
    by_metric = _verdicts(trend.diff(_bench(1.0), _bench(1.5)))
    # Lower-is-better metrics grew by 50%, every run beyond every
    # baseline run: WORSE.
    assert "WORSE" in by_metric["latency_p50_ms"]
    # Higher-is-better throughput grew: an improvement.
    assert "WORSE" not in by_metric["throughput_rps"]
    assert "within 0.25" in by_metric["throughput_rps"]
    assert "1.500" in by_metric["core.infer_ms"]
    assert "WORSE" not in by_metric["core.infer_ms"]  # per-layer: no bound
    rows = trend.diff(_bench(1.0), _bench(1.5))
    assert any(row.startswith("repository") and "src_lines" in row for row in rows)
    small = trend.diff(_bench(1.0), _bench(1.1))
    assert not any("WORSE" in row or "unresolved" in row for row in small)


def test_diff_is_unresolved_when_ranges_overlap():
    # B's median is 50% worse, but its fastest run is as fast as A's
    # slowest: the three verdicts side by side.
    by_metric = _verdicts(trend.diff(_bench(0.9, 1.0, 1.1), _bench(1.1, 1.5, 1.6)))
    assert by_metric["latency_p50_ms"].endswith("unresolved")
    assert "within 0.25" in by_metric["throughput_rps"]
    disjoint = _verdicts(trend.diff(_bench(0.9, 1.0, 1.1), _bench(1.2, 1.5, 1.6)))
    assert "WORSE" in disjoint["latency_p50_ms"]


def test_diff_reads_single_run_records():
    # A record without ranges (one run per workload and seed) compares
    # as a zero-width range.
    old = _bench(1.0)
    for run in old["runs"].values():
        del run["range"]
    assert "WORSE" in _verdicts(trend.diff(old, _bench(1.5)))["latency_p50_ms"]
    assert _verdicts(trend.diff(old, _bench(0.9, 1.5, 1.6)))["latency_p50_ms"].endswith("unresolved")


def test_diff_command_reads_two_files(tmp_path, capsys):
    a, b = tmp_path / "BENCH_1.json", tmp_path / "BENCH_2.json"
    a.write_text(json.dumps(_bench(1.0)))
    b.write_text(json.dumps(_bench(0.5)))
    assert trend.main(["--diff", str(a), str(b)]) == 0
    out = capsys.readouterr().out
    assert "throughput_rps" in out and "WORSE" in out  # throughput halved


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda p: p.name)
def test_committed_records_parse(path):
    bench = json.loads(path.read_text())
    assert set(END_TO_END) <= set(bench["runs"]["run_mixed/1"]["metrics"])
    assert trend.diff(bench, bench)
