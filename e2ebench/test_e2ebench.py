"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    python3 -m pytest e2ebench -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
from workloads import (  # noqa: E402
    LAYERS,
    RUN,
    TYPECHECK,
    WORKLOAD_NAMES,
    Template,
    Workload,
    attach_oracle,
    build,
    check_answer,
    describe,
    why_line,
)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_same_requests(name):
    first, again, other = build(name, 3, ROOT), build(name, 3, ROOT), build(name, 4, ROOT)
    assert first.digest() == again.digest()
    assert [first.request(i) for i in range(200)] == [again.request(i) for i in range(200)]
    assert first.digest() != other.digest()


def test_typecheck_cold_never_repeats_a_program():
    workload = build("typecheck_cold", 1, ROOT)
    bodies = [workload.request(i).body for i in range(500)]
    assert len(set(bodies)) == len(bodies)


def test_run_mixed_working_set_exceeds_the_response_cache():
    workload = build("run_mixed", 1, ROOT)
    assert 2 * 1024 <= len(workload.items) <= 3 * 1024
    assert len(set(workload.items)) == len(workload.items)


def _small_workload() -> Workload:
    workload = Workload("probe", 0)
    workload.templates = [
        Template(RUN, "bcast 1 (mkpar (fun i -> i * 3))"),
        Template(TYPECHECK, "let f = fun x -> (x, x) in f 2"),
        Template(TYPECHECK, "mkpar (fun pid -> mkpar (fun i -> i))"),
    ]
    workload.draws = [0, 1, 2]
    attach_oracle(workload)
    return workload


def _answer_for(workload: Workload, index: int) -> bytes:
    expected = workload.expected[index]
    body = dict(expected.fields)
    if expected.status == 200:
        body["digest"] = "0" * 64
    return json.dumps(body).encode()


def test_expected_answers_come_from_the_oracle():
    workload = _small_workload()
    run_answer, typecheck_answer, rejected = workload.expected
    assert run_answer.status == 200 and run_answer.fields["value"] == "<3, 3, 3, 3>"
    assert run_answer.fields["cost"]["S"] == 1
    assert typecheck_answer.fields["type"] == "int * int"
    assert rejected.status == 422 and rejected.fields["error"]["kind"] == "type"


def test_the_nonce_does_not_change_the_answer():
    from repro.service.handlers import ServiceConfig, ServiceCore
    from workloads import _answer, _call, with_nonce

    core = ServiceCore(ServiceConfig(infer_engine="w", trace_summaries=False))
    for source in ("bcast 1 (mkpar (fun i -> i * 3))", "mkpar (fun pid -> mkpar (fun i -> i))"):
        answers = {
            repr(_answer(*_call(core.handle_run, {"program": with_nonce(source, nonce)})))
            for nonce in (0, 1, 987654)
        }
        assert len(answers) == 1


def test_a_corrupted_response_is_a_failure():
    workload = _small_workload()
    good = _answer_for(workload, 0)
    assert check_answer(workload.expected[0], 200, good) is None
    corrupted = json.loads(good)
    corrupted["value"] = "<3, 3, 3, 4>"
    assert check_answer(workload.expected[0], 200, json.dumps(corrupted).encode())
    corrupted = json.loads(good)
    corrupted["cost"]["W"] += 1
    assert check_answer(workload.expected[0], 200, json.dumps(corrupted).encode())
    assert check_answer(workload.expected[0], 200, good[:-1])
    assert check_answer(workload.expected[0], 500, good)
    assert check_answer(workload.expected[0], 429, good)
    # An expected 422 is a correct answer; a 200 in its place is not.
    assert check_answer(workload.expected[2], 422, _answer_for(workload, 2)) is None
    assert check_answer(workload.expected[2], 200, _answer_for(workload, 1))
    wrong_type = json.loads(_answer_for(workload, 1))
    wrong_type["type"] = "int"
    assert check_answer(workload.expected[1], 200, json.dumps(wrong_type).encode())


def test_metric_names_and_units_match_the_benchmark_file():
    spec = _spec()
    declared = {
        "end_to_end": [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]],
        "per_layer": [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
    }
    assert declared["end_to_end"] == list(run.END_TO_END)
    assert declared["per_layer"] == list(run.PER_LAYER)
    names = [name for name, _, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name


def test_each_workload_records_its_reason_and_predicted_layers():
    spec = _spec()
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOAD_NAMES)
    for entry in spec["workloads"]:
        reason, moves, unchanged = describe(entry["name"])
        assert reason and moves
        assert set(moves) | set(unchanged) <= set(LAYERS)
        assert not set(moves) & set(unchanged)
        assert entry["why"] == why_line(entry["name"])
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
