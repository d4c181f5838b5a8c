"""The service under test: a real ``minibsml serve`` process.

The server is started exactly as a user starts it, at its defaults apart
from ``--port 0``, and is observed from outside: its CPU time and peak
resident set come from ``/proc/<pid>``, its own counters from the
``/v1/stats`` and ``/v1/metrics`` endpoints.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional

_LISTENING = re.compile(r"serving mini-BSML on http://([0-9.]+):(\d+)")
_CLOCK_TICKS = os.sysconf("SC_CLK_TCK")

#: The server's threads share one interpreter lock, so it computes on one
#: core at a time.  Given two or more CPUs, the server gets the last one
#: and the load generator the others: lock hand-offs between the server's
#: threads then stay on one core, and the two processes never compete.
_CPUS = sorted(os.sched_getaffinity(0))
SERVER_CPUS = {_CPUS[-1]} if len(_CPUS) >= 2 else set()
CLIENT_CPUS = set(_CPUS[:-1]) if SERVER_CPUS else set()

#: String hashing is randomized per process unless PYTHONHASHSEED is set,
#: and the order it gives to sets and dicts of names moved the server's CPU
#: time per request by up to a fifth between runs of the same code on the
#: same inputs.  The server runs with one fixed hash seed, so two runs of
#: the same code measure the same layout and a change shows as a change.
HASH_SEED = "0"

#: Requests answered before a server counts as set up: one typecheck and
#: one run, so imports, the prelude environment and the evaluator are all
#: loaded.  Neither program occurs in any workload.
WARMUP = (
    ("/v1/typecheck", {"program": "let warm = 1 ;; bcast 0 (mkpar (fun i -> i + warm))"}),
    ("/v1/run", {"program": "let warm = 2 ;; fold (fun ab -> fst ab + snd ab) (mkpar (fun i -> i * warm))"}),
)


class ServerError(RuntimeError):
    pass


class ServerProcess:
    """One ``minibsml serve --port 0`` child process."""

    def __init__(self, root: Path, log_path: Path) -> None:
        self.root = root
        self.log_path = log_path
        self.process: Optional[subprocess.Popen] = None
        self.port = 0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the server and answer the warm-up requests; returns the
        seconds from spawn until the last warm-up answer."""
        env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
        env["PYTHONPATH"] = str(self.root / "src")
        env["PYTHONHASHSEED"] = HASH_SEED
        self.log_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.log_path, "w") as log:
            started = time.perf_counter()
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0"],
                cwd=self.root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.DEVNULL,
                stderr=log,
            )
        if SERVER_CPUS:
            os.sched_setaffinity(self.process.pid, SERVER_CPUS)
        deadline = started + timeout
        while True:
            match = _LISTENING.search(self.log_path.read_text())
            if match:
                self.port = int(match.group(2))
                break
            if self.process.poll() is not None or time.perf_counter() > deadline:
                raise ServerError(f"server did not start:\n{self.log_path.read_text()}")
            time.sleep(0.002)
        connection = self.connect()
        try:
            for path, payload in WARMUP:
                status, _ = post(connection, path, json.dumps(payload).encode())
                if status != 200:
                    raise ServerError(f"warm-up {path} answered {status}")
        finally:
            connection.close()
        return time.perf_counter() - started

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)

    def stop(self) -> None:
        if self.process is None:
            return
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process = None

    # -- observation from outside ---------------------------------------------

    def cpu_seconds(self) -> float:
        """utime + stime of the server process (all its threads)."""
        stat = Path(f"/proc/{self.process.pid}/stat").read_text()
        fields = stat[stat.rindex(")") + 2 :].split()
        return (int(fields[11]) + int(fields[12])) / _CLOCK_TICKS

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.process.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise ServerError("no VmHWM in /proc status")

    def scrape(self) -> Dict[str, Any]:
        """``/v1/stats`` and the parsed ``/v1/metrics`` exposition."""
        from repro.obs.metrics import parse_prometheus

        connection = self.connect()
        try:
            connection.request("GET", "/v1/stats")
            stats = json.loads(connection.getresponse().read())
            connection.request("GET", "/v1/metrics")
            metrics = parse_prometheus(connection.getresponse().read().decode())
        finally:
            connection.close()
        return {"stats": stats, "metrics": metrics}


def post(connection: http.client.HTTPConnection, path: str, body: bytes):
    connection.request("POST", path, body=body, headers={"Content-Type": "application/json"})
    response = connection.getresponse()
    return response.status, response.read()


def metric_sum(scrape: Dict[str, Any], family: str, sample: str, **labels: str) -> float:
    """Sum of the ``sample`` series of ``family`` whose labels include
    ``labels`` (0 when the family has no such series yet)."""
    total = 0.0
    for name, sample_labels, value in scrape["metrics"].get(family, {}).get("samples", ()):
        if name == sample and all(sample_labels.get(k) == v for k, v in labels.items()):
            total += value
    return total
