"""Record the end-to-end benchmark as one ``BENCH_<pr>.json`` per change,
and diff two such files.

Run from the repository root::

    python3 benchmarks/trend.py --pr N             # writes BENCH_N.json
    python3 benchmarks/trend.py --diff BENCH_A.json BENCH_B.json

A record runs ``e2ebench/run.py --trace 1`` :data:`RUNS` times, round-robin,
for every workload of ``BENCHMARK.json`` on each of :data:`SEEDS`, for
``run_seconds`` seconds, and keeps every printed metric (end-to-end and
per-layer) as the median with its ``[min, max]`` range, beside the
``src/`` and ``tests/`` line counts, the tier-1 test count and the
commit.  ``--diff`` prints each median ratio B/A; an end-to-end metric
whose median is worse than its bound is WORSE when the two ranges are
disjoint and ``unresolved`` when they overlap (a one-run record has a
zero-width range).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
BOUNDS = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
SEEDS = (1, 7919)
#: Runs per workload and seed in one record.
RUNS = 3

#: A metric line of run.py's report: two spaces, name, value, unit.
_METRIC = re.compile(r"^  (\S+)\s+(-?[0-9.]+(?:e[-+]?\d+)?)\s+(\S+)$")


def run_e2ebench(workload: str, seed: int, seconds: float) -> str:
    """Standard output of one traced e2ebench run."""
    command = [sys.executable, "e2ebench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    return subprocess.run(command, cwd=ROOT, check=True, capture_output=True, text=True).stdout


def parse_run(stdout: str) -> Dict:
    """The metrics, unit-tagged, and the verdict of one run's report."""
    lines = stdout.strip().splitlines()
    verdict = json.loads(lines[-1])
    metrics = {}
    for line in lines[:-1]:
        match = _METRIC.match(line)
        if match:
            metrics[match.group(1)] = float(match.group(2))
    return {"correct": verdict["correct"], "attempted": verdict["attempted"],
            "failed": verdict["failed"], "metrics": metrics}


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def line_count(directory: str) -> int:
    return sum(len(path.read_text().splitlines()) for path in (ROOT / directory).rglob("*.py"))


def tier1_collected() -> int:
    command = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-o", "addopts=",
               "-p", "no:cacheprovider"]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, env=env).stdout
    return int(re.search(r"(\d+) tests? collected", out).group(1))


def record(pr: int, seconds: float, run: Callable[[str, int, float], str] = run_e2ebench) -> Dict:
    keys = [(w["name"], seed) for w in SPEC["workloads"] for seed in SEEDS]
    parsed: Dict[str, List[Dict]] = {f"{w}/{seed}": [] for w, seed in keys}
    for _ in range(RUNS):
        for workload, seed in keys:
            parsed[f"{workload}/{seed}"].append(parse_run(run(workload, seed, seconds)))
    return {"pr": pr, "seconds": seconds, "runs": {key: summarize(done) for key, done in parsed.items()}}


def summarize(done: List[Dict]) -> Dict:
    """One workload/seed's runs: the verdicts combined, every metric's median and range."""
    names = [n for n in done[0]["metrics"] if all(n in d["metrics"] for d in done)]
    values = {n: [d["metrics"][n] for d in done] for n in names}
    return {"correct": all(d["correct"] for d in done), "attempted": sum(d["attempted"] for d in done),
            "failed": sum(d["failed"] for d in done), "runs": len(done),
            "metrics": {n: statistics.median(v) for n, v in values.items()},
            "range": {n: [min(v), max(v)] for n, v in values.items()}}


def annotate(bench: Dict) -> Dict:
    """Add the repository facts to a record taken on this checkout."""
    bench.update(
        commit=_git("rev-parse", "HEAD"),
        dirty=bool(_git("status", "--porcelain", "--untracked-files=no", "--", "src", "tests")),
        src_lines=line_count("src"),
        tests_lines=line_count("tests"),
        tier1_collected=tier1_collected(),
    )
    return bench


def verdict(name: str, old: Dict, new: Dict) -> str:
    """An end-to-end metric's verdict: within its bound, WORSE, or
    ``unresolved`` when the median is worse but the ranges overlap."""
    better, bound = BOUNDS[name]
    ratio = new["metrics"][name] / old["metrics"][name]
    if (ratio - 1 if better == "lower" else 1 - ratio) <= bound:
        return f"within {bound:.2f}"
    (lo_a, hi_a), (lo_b, hi_b) = (run.get("range", {}).get(name, [run["metrics"][name]] * 2)
                                  for run in (old, new))
    return "unresolved" if lo_b <= hi_a and lo_a <= hi_b else f"WORSE than the {bound:.2f} bound"


def diff(a: Dict, b: Dict) -> List[str]:
    """One line per metric present in both records: A, B, B/A (medians)
    and, for end-to-end metrics, the :func:`verdict`."""
    rows = [f"{'run':<20} {'metric':<28} {'A':>12} {'B':>12} {'B/A':>7}  verdict"]
    for key in sorted(set(a["runs"]) & set(b["runs"])):
        old, new = a["runs"][key], b["runs"][key]
        for name in [n for n in old["metrics"] if n in new["metrics"]]:
            x, y = old["metrics"][name], new["metrics"][name]
            ratio = y / x if x else float("nan")
            shown = verdict(name, old, new) if name in BOUNDS and x else ""
            rows.append(f"{key:<20} {name:<28} {x:>12.4f} {y:>12.4f} {ratio:>7.3f}  {shown}")
    for fact in ("src_lines", "tests_lines", "tier1_collected"):
        if fact in a and fact in b:
            rows.append(f"{'repository':<20} {fact:<28} {a[fact]:>12} {b[fact]:>12} {b[fact] / a[fact]:>7.3f}")
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--pr", type=int, help="record BENCH_<pr>.json at the repository root")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two records")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    args = parser.parse_args(argv)
    if args.diff:
        a, b = (json.loads(Path(path).read_text()) for path in args.diff)
        print("\n".join(diff(a, b)))
        return 0
    bench = annotate(record(args.pr, args.seconds))
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    bad = [key for key, run in bench["runs"].items() if not run["correct"]]
    print(f"wrote {out.name}" + (f"; runs not correct: {', '.join(bad)}" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
