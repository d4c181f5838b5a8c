"""Record the end-to-end benchmark as one ``BENCH_<pr>.json`` per change,
and diff two such files.

Run from the repository root::

    python3 benchmarks/trend.py --pr N             # writes BENCH_N.json
    python3 benchmarks/trend.py --diff BENCH_A.json BENCH_B.json

A record runs ``e2ebench/run.py --trace 1`` once for every workload of
``BENCHMARK.json`` on each of :data:`SEEDS`, for ``run_seconds`` seconds,
and keeps every metric the run prints: the host-normalised end-to-end
metrics and the per-layer metrics of the traced replay.  Beside them it
stores the ``src/`` and ``tests/`` line counts, the number of tier-1
tests collected and the commit.  ``--diff`` prints each metric's ratio
B/A; end-to-end metrics are flagged when they get worse by more than
their ``BENCHMARK.json`` bound.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEEDS = (1, 7919)

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
    runs = {}
    for workload in (w["name"] for w in SPEC["workloads"]):
        for seed in SEEDS:
            runs[f"{workload}/{seed}"] = parse_run(run(workload, seed, seconds))
    return {"pr": pr, "seconds": seconds, "runs": runs}


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


def diff(a: Dict, b: Dict) -> List[str]:
    """One line per metric present in both records: A, B, B/A and, for
    end-to-end metrics, whether the change stays within its bound."""
    bounds = {m["name"]: (m["better"], m["bound"]) for m in SPEC["end_to_end"]}
    rows = [f"{'run':<20} {'metric':<28} {'A':>12} {'B':>12} {'B/A':>7}  verdict"]
    for key in sorted(set(a["runs"]) & set(b["runs"])):
        old, new = a["runs"][key]["metrics"], b["runs"][key]["metrics"]
        for name in [n for n in old if n in new]:
            ratio = new[name] / old[name] if old[name] else float("nan")
            verdict = ""
            if name in bounds:
                better, bound = bounds[name]
                worse = ratio - 1 if better == "lower" else 1 - ratio
                verdict = f"WORSE than the {bound:.2f} bound" if worse > bound else f"within {bound:.2f}"
            rows.append(f"{key:<20} {name:<28} {old[name]:>12.4f} {new[name]:>12.4f} {ratio:>7.3f}  {verdict}")
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
