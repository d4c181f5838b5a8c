"""Protocol-level tests of the HTTP front end: routing, keep-alive,
caching headers, error mapping, admission control, sessions."""

from __future__ import annotations

import json
import socket
import threading
import time

import pytest

from repro.lang.limits import RECURSION_LIMIT
from repro.service import ServiceCore, start_in_background
from repro.service.handlers import MAX_P, RequestError


class TestBasics:
    def test_healthz(self, client):
        status, body, _ = client.request("GET", "/healthz")
        assert (status, body) == (200, {"status": "ok"})

    def test_unknown_route_is_404(self, client):
        status, body, _ = client.request("POST", "/v1/nope", {})
        assert status == 404
        assert body["error"]["kind"] == "not-found"

    def test_typecheck(self, client):
        status, body, _ = client.request(
            "POST", "/v1/typecheck", {"program": "fun x -> x"}
        )
        assert status == 200
        assert body["type"] == "'a -> 'a"
        assert body["constraints"] == "True"
        assert body["scheme"].startswith("forall")
        assert len(body["digest"]) == 64

    def test_run_reports_type_value_cost(self, client):
        status, body, _ = client.request(
            "POST",
            "/v1/run",
            {"program": "bcast 2 (mkpar (fun i -> i * i))", "p": 4},
        )
        assert status == 200
        assert body["type"] == "int par"
        assert body["value"] == "<4, 4, 4, 4>"
        assert body["cost"]["p"] == 4
        assert body["cost"]["S"] >= 1
        assert body["cost"]["total"] == pytest.approx(
            body["cost"]["W"] + body["cost"]["H"] * 1.0 + body["cost"]["S"] * 20.0
        )
        assert "trace_summary" in body

    def test_keep_alive_serves_multiple_requests(self, client):
        conn = client.connect()
        try:
            for value in ("1 + 1", "2 + 2", "3 + 3"):
                status, body, headers = client.request(
                    "POST", "/v1/run", {"program": value}, conn=conn
                )
                assert status == 200
                assert headers.get("connection") == "keep-alive"
        finally:
            conn.close()

    def test_stats_endpoint_shape(self, client):
        client.request("POST", "/v1/run", {"program": "1 + 1"})
        status, body, _ = client.request("GET", "/v1/stats")
        assert status == 200
        for key in (
            "requests",
            "response_cache",
            "solver_caches",
            "intern_pools",
            "server",
        ):
            assert key in body
        assert body["server"]["max_concurrency"] == 8
        assert body["response_cache"]["capacity"] >= 4096

    def test_stats_lists_locality_and_satisfiable_caches(self, client):
        client.request("POST", "/v1/typecheck", {"program": "mkpar (fun i -> i)"})
        _, body, _ = client.request("GET", "/v1/stats")
        for name in ("constraints.locality", "constraints.is_satisfiable"):
            assert name in body["solver_caches"]
            assert "hits" in body["solver_caches"][name]


class TestCliIntegration:
    def test_serve_subcommand_is_registered(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["serve", "--port", "0"])
        assert args.handler.__name__ == "_command_serve"
        assert args.max_concurrency == 8
        assert args.max_queue == 32


class TestCaching:
    def test_replay_is_byte_identical_and_flagged(self, client):
        request = {"program": "scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i))", "p": 4}
        s1, body1, h1 = client.request("POST", "/v1/run", request)
        s2, body2, h2 = client.request("POST", "/v1/run", request)
        assert (s1, s2) == (200, 200)
        assert h1["x-repro-cache"] == "miss"
        assert h2["x-repro-cache"] == "hit"
        assert body1 == body2  # byte-identical serialization parses equal

    def test_whitespace_variants_share_an_entry(self, client):
        s1, body1, _ = client.request(
            "POST", "/v1/run", {"program": "let x = 41 in x + 1"}
        )
        s2, body2, h2 = client.request(
            "POST", "/v1/run", {"program": "let x = 41 in\n  x + 1"}
        )
        assert body1["digest"] == body2["digest"]
        assert h2["x-repro-cache"] == "hit"

    def test_parameters_split_entries(self, client):
        base = {"program": "mkpar (fun i -> i + 1)"}
        _, body4, _ = client.request("POST", "/v1/run", {**base, "p": 4})
        _, body8, _ = client.request("POST", "/v1/run", {**base, "p": 8})
        assert body4["digest"] != body8["digest"]
        assert body4["value"] != body8["value"]


def _nested(levels: int) -> str:
    """``1`` inside ``levels`` pairs of parentheses."""
    return "(" * levels + "1" + ")" * levels


class TestNestingDepth:
    """A program nested past the parser's recursion headroom is a 422,
    not a 500: through the core as through HTTP."""

    @pytest.mark.parametrize("handler", ["handle_typecheck", "handle_run"])
    def test_core_maps_recursion_to_422(self, handler):
        core = ServiceCore()
        with pytest.raises(RequestError) as error:
            getattr(core, handler)({"program": _nested(RECURSION_LIMIT + 20_000)})
        assert (error.value.status, error.value.kind) == (422, "recursion")
        status, _, _ = getattr(core, handler)({"program": _nested(10_000)})
        assert status == 200


class TestErrorMapping:
    def test_parse_error_is_400(self, client):
        status, body, _ = client.request("POST", "/v1/run", {"program": "let = in"})
        assert status == 400
        assert body["error"]["kind"] == "parse"

    @pytest.mark.parametrize("program", ["é", "(* open", "12abc", "²", "٣ + 1"])
    @pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
    def test_lex_error_is_400(self, client, route, program):
        status, body, _ = client.request("POST", route, {"program": program})
        assert status == 400
        assert body["error"]["kind"] == "parse"

    @pytest.mark.parametrize("program", ["let 'a = 1 in 'a + 1", "fun 'x -> 'x"])
    @pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
    def test_type_variable_as_a_name_is_400(self, client, route, program):
        status, body, _ = client.request("POST", route, {"program": program})
        assert (status, body["error"]["kind"]) == (400, "parse")

    def test_type_variable_in_an_annotation_is_accepted(self, client):
        status, body, _ = client.request(
            "POST", "/v1/typecheck", {"program": "(fun x -> x : 'a -> 'a)"}
        )
        assert status == 200

    @pytest.mark.parametrize("program", ["é", "(* open", "12abc"])
    def test_lex_error_in_a_session_is_400(self, client, program):
        _, body, _ = client.request("POST", "/v1/session", {})
        sid = body["session"]
        status, body, _ = client.request(
            "POST", f"/v1/session/{sid}/define", {"name": "f", "source": program}
        )
        assert (status, body["error"]["kind"]) == (400, "parse")
        status, body, _ = client.request(
            "POST", f"/v1/session/{sid}/run", {"program": program}
        )
        assert (status, body["error"]["kind"]) == (400, "parse")

    def test_type_error_is_422(self, client):
        status, body, _ = client.request(
            "POST", "/v1/run", {"program": "mkpar (fun i -> mkpar (fun j -> j))"}
        )
        assert status == 422
        assert body["error"]["kind"] == "type"

    @pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
    def test_nesting_beyond_the_recursion_limit_is_422(self, client, route):
        # Deeper than any parser can go in RECURSION_LIMIT frames, and
        # still well under the 1 MiB body cap.
        levels = RECURSION_LIMIT + 20_000
        status, body, _ = client.request("POST", route, {"program": _nested(levels)})
        assert (status, body["error"]["kind"]) == (422, "recursion")
        status, body, _ = client.request("POST", route, {"program": _nested(10_000)})
        assert status == 200, body

    def test_missing_program_is_400(self, client):
        status, body, _ = client.request("POST", "/v1/run", {})
        assert status == 400

    def test_bad_parameter_is_400(self, client):
        for bad in (
            {"p": "four"},
            {"p": True},
            {"g": False},
            {"l": True},
            {"g": float("nan")},
            {"l": float("inf")},
            {"g": float("-inf")},
        ):
            status, body, _ = client.request(
                "POST", "/v1/run", {"program": "1", **bad}
            )
            assert status == 400, bad
            assert body["error"]["kind"] == "bad-request", bad

    @pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
    def test_oversized_p_is_400_before_any_work(self, client, route):
        # Refused before any work: a full run at this p takes seconds.
        started = time.perf_counter()
        status, body, _ = client.request(
            "POST", route, {"program": "mkpar (fun i -> i)", "p": 100_000}
        )
        elapsed = time.perf_counter() - started
        assert status == 400
        assert body["error"] == {
            "kind": "bad-request",
            "message": f"p must be at most {MAX_P}, got 100000",
        }
        assert elapsed < 1.0, f"rejection took {elapsed:.2f} s"
        status, _, _ = client.request(
            "POST", route, {"program": "mkpar (fun i -> i)", "p": MAX_P}
        )
        assert status == 200

    def test_malformed_json_is_400(self, client):
        conn = client.connect()
        try:
            conn.request("POST", "/v1/run", body="{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
            assert response.status == 400
            assert body["error"]["kind"] == "json"
        finally:
            conn.close()

    def test_malformed_request_line_is_rejected(self, service):
        with socket.create_connection(("127.0.0.1", service.port), timeout=10) as sock:
            sock.sendall(b"NONSENSE\r\n\r\n")
            data = sock.recv(4096)
        assert b"400" in data.split(b"\r\n", 1)[0]

    @pytest.mark.parametrize(
        "extras",
        [
            [{"backend": bad} for bad in (5, None, ["seq"], "process", "zzz")],
            [{"faults": "bogus=1"}],
            [{"faults": "seed=1,crash=0.95"}],
            [{"backend": "zzz", "faults": "bogus"}],
        ],
        ids=["bad-backend", "bad-fault-spec", "fatal-fault-plan", "both"],
    )
    @pytest.mark.parametrize("route", ["/v1/typecheck", "/v1/run"])
    def test_retired_run_fields_are_ignored(self, client, route, extras):
        """``backend`` and ``faults`` no longer select anything: a body
        naming them gets the bytes of the same body without them."""

        def post(payload):
            conn = client.connect()
            try:
                conn.request("POST", route, body=json.dumps(payload))
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()

        plain = {"program": "bcast 2 (mkpar (fun i -> i * i))", "p": 3}
        status, body = post(plain)
        assert status == 200, body
        for extra in extras:
            assert post({**plain, **extra}) == (200, body), extra


class TestSessions:
    def test_incremental_editing_lifecycle(self, client):
        _, body, _ = client.request("POST", "/v1/session", {})
        sid = body["session"]

        _, body, _ = client.request(
            "POST",
            f"/v1/session/{sid}/define",
            {"name": "square", "source": "fun x -> x * x"},
        )
        assert body["definitions"][-1]["type"] == "int -> int"

        _, body, _ = client.request(
            "POST",
            f"/v1/session/{sid}/define",
            {"name": "quad", "source": "fun x -> square (square x)"},
        )
        # Upstream definition re-served from the chain cache.
        assert body["definitions"][0]["reused"] is True
        assert body["definitions"][1]["reused"] is False

        status, body, _ = client.request(
            "POST", f"/v1/session/{sid}/run", {"program": "quad 3"}
        )
        assert status == 200
        assert body["value"] == "81"

        # Edit the downstream definition only: square stays cached.
        _, body, _ = client.request(
            "POST",
            f"/v1/session/{sid}/define",
            {"name": "quad", "source": "fun x -> square x"},
        )
        assert [d["reused"] for d in body["definitions"]] == [True, False]

        status, _, _ = client.request("DELETE", f"/v1/session/{sid}")
        assert status == 200
        status, _, _ = client.request("GET", f"/v1/session/{sid}")
        assert status == 404

    def test_ill_typed_edit_is_rejected_and_rolled_back(self, client):
        _, body, _ = client.request("POST", "/v1/session", {})
        sid = body["session"]
        client.request(
            "POST",
            f"/v1/session/{sid}/define",
            {"name": "f", "source": "fun x -> x + 1"},
        )
        status, body, _ = client.request(
            "POST",
            f"/v1/session/{sid}/define",
            {"name": "bad", "source": "f true"},
        )
        assert status == 422
        _, body, _ = client.request("GET", f"/v1/session/{sid}")
        assert body["definitions"] == ["f"]

    def test_unknown_session_is_404(self, client):
        status, body, _ = client.request(
            "POST", "/v1/session/s999999/run", {"program": "1"}
        )
        assert status == 404


class TestAdmissionControl:
    def test_queue_overflow_answers_429(self):
        handle = start_in_background(
            ServiceCore(), max_concurrency=1, max_queue=0
        )
        try:
            from tests.service.conftest import Client

            client = Client(handle.port)
            barrier = threading.Barrier(6)
            results = []
            lock = threading.Lock()

            def fire(index: int) -> None:
                barrier.wait(timeout=10)
                # Distinct programs -> no cache hits -> real work each.
                status, body, headers = client.request(
                    "POST",
                    "/v1/run",
                    {"program": f"scan (fun ab -> fst ab + snd ab) (mkpar (fun i -> i + {index}))", "p": 16},
                )
                with lock:
                    results.append((status, headers.get("retry-after")))

            threads = [threading.Thread(target=fire, args=(i,)) for i in range(6)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            statuses = sorted(status for status, _ in results)
            assert statuses.count(200) >= 1
            assert statuses.count(429) >= 1, statuses
            assert all(
                retry == "1" for status, retry in results if status == 429
            )
            assert handle.server.rejected >= 1
        finally:
            handle.stop()
