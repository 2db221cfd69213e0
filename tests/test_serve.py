"""Serving stack: CacheMindService, the JSON-lines server, RemoteClient.

The flagship acceptance test proves byte-identical answers across all three
entry points — legacy ``CacheMind.ask``, ``CacheMindService.ask`` and the
JSON server round-trip — for every intent type.
"""

import asyncio
import json
import socket
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro import CacheMind
from repro.core.pipeline import SimulationCache
from repro.serve import CacheMindServer, CacheMindService, RemoteClient
from repro.serve.client import RemoteError, parse_address
from repro.serve.service import percentile
from repro.tracedb.table import LazyColumn

from conftest import SESSION_KWARGS

#: one question per CacheMindBench intent type (plus the premise-violation
#: trick and the general fallback) — the equivalence matrix.
INTENT_QUESTIONS = [
    "Is the access at PC 0x4008a0 address 0xaff500406999 a hit or a miss "
    "in astar under lru?",                                     # hit_miss
    "What is the miss rate of lru on astar?",                  # miss_rate
    "Which policy has the lowest miss rate on astar?",         # policy_comparison
    "How many accesses are there in astar under lru?",         # count
    "What is the average reuse distance in astar under lru?",  # arithmetic
    "What is the miss rate for PC 0xdead00 in astar under lru?",  # trick
    "How does increasing associativity affect conflict misses?",  # concept
    "Write code to compute the miss rate for lbm.",            # code_generation
    "Why does belady outperform lru on astar?",                # policy_analysis
    "Which workload has the highest miss rate under lru?",     # workload_analysis
    "Why is PC 0x4008a0 missing so often in astar? Examine the assembly.",
                                                               # semantic_analysis
    "List all unique PCs in astar under lru.",                 # pc_list
    "Which cache sets are hot and cold in astar under lru?",   # set_analysis
    "Why do caches use replacement policies?",                 # general
]


def fresh_session() -> CacheMind:
    return CacheMind(simulation_cache=SimulationCache(), **SESSION_KWARGS)


@pytest.fixture()
def service():
    with CacheMindService(session=fresh_session()) as service:
        yield service


@pytest.fixture()
def server():
    with CacheMindServer(CacheMindService(session=fresh_session()),
                         host="127.0.0.1", port=0).start() as server:
        yield server


# ----------------------------------------------------------------------
# the acceptance criterion: three entry points, byte-identical answers
# ----------------------------------------------------------------------
def test_three_entry_points_byte_identical_for_every_intent(server):
    legacy = fresh_session()
    service = CacheMindService(session=fresh_session())
    host, port = server.address
    with RemoteClient(host, port) as client:
        for question in INTENT_QUESTIONS:
            expected = json.dumps(legacy.ask(question).to_dict(),
                                  sort_keys=True)
            via_service = json.dumps(service.ask(question).answer.to_dict(),
                                     sort_keys=True)
            via_server = json.dumps(client.ask(question).answer.to_dict(),
                                    sort_keys=True)
            assert via_service == expected, f"service diverged on {question!r}"
            assert via_server == expected, f"server diverged on {question!r}"


def test_intent_questions_cover_the_taxonomy():
    # The equivalence matrix must actually exercise every question type.
    session = fresh_session()
    covered = {session.plan(question).intent.question_type
               for question in INTENT_QUESTIONS}
    assert covered >= {
        "hit_miss", "miss_rate", "policy_comparison", "count", "arithmetic",
        "concept", "code_generation", "policy_analysis", "workload_analysis",
        "semantic_analysis", "pc_list", "set_analysis", "general"}


# ----------------------------------------------------------------------
# CacheMindService
# ----------------------------------------------------------------------
def test_served_set_analysis_leaves_snapshot_columns_lazy(service):
    response = service.ask("Which cache sets are hot and cold in astar under lru?")
    assert response.answer.retriever == "ranger"
    assert response.answer.category == "set_analysis"
    table = service.session.database.get("astar", "lru").data_frame
    assert all(isinstance(table.sequence(name), LazyColumn)
               for name in ("current_cache_lines", "recent_access_history",
                            "cache_line_eviction_scores",
                            "current_cache_line_addresses"))


def test_service_assigns_request_ids(service):
    first = service.ask("What is the miss rate of lru on astar?")
    second = service.ask("What is the miss rate of belady on astar?")
    assert first.request_id == "req-1"
    assert second.request_id == "req-2"
    explicit = service.ask_batch(
        ["What is the miss rate of lru on lbm?"])[0]
    assert explicit.request_id == "req-3"


def test_service_stats_telemetry(service):
    service.ask_batch(["What is the miss rate of lru on astar?",
                       "What is the miss rate of belady on astar?"])
    stats = service.stats()
    assert stats["requests"] == 2
    assert stats["batches"] == 1
    assert stats["errors"] == 0
    assert stats["qps"] > 0
    assert stats["latency_ms"]["count"] == 2
    assert stats["latency_ms"]["p95"] >= stats["latency_ms"]["p50"] >= 0
    assert stats["simulation_cache_delta"]["misses"] == len(
        SESSION_KWARGS["workloads"]) * len(SESSION_KWARGS["policies"])
    assert stats["session"]["workloads"] == list(SESSION_KWARGS["workloads"])


def test_service_counts_errors(service):
    with pytest.raises(Exception):
        service.ask("What is the miss rate of lru on astar?",
                    retriever="no-such-retriever")
    assert service.stats()["errors"] == 1


def test_service_concurrent_threads_consistent(service):
    question = "Which policy has the lowest miss rate on astar?"
    expected = fresh_session().ask(question).to_dict()
    with ThreadPoolExecutor(max_workers=8) as pool:
        responses = list(pool.map(
            lambda _: service.ask(question), range(16)))
    assert all(response.answer.to_dict() == expected
               for response in responses)
    stats = service.stats()
    assert stats["requests"] == 16
    # One shared session: the database was built exactly once.
    assert stats["database_builds"] == 1


def test_service_async_gather(service):
    questions = ["What is the miss rate of lru on astar?",
                 "What is the miss rate of belady on astar?",
                 "How many accesses are there in astar under lru?"]
    expected = [answer.to_dict()
                for answer in fresh_session().ask_many(questions)]

    async def main():
        return await asyncio.gather(
            *[service.ask_async(question) for question in questions])

    responses = asyncio.run(main())
    assert [response.answer.to_dict() for response in responses] == expected


def test_service_rejects_session_plus_kwargs():
    with pytest.raises(ValueError):
        CacheMindService(session=fresh_session(), workloads=["astar"])


def test_service_ask_async_after_close_raises():
    service = CacheMindService(session=fresh_session())
    service.close()

    async def main():
        await service.ask_async("What is the miss rate of lru on astar?")

    with pytest.raises(RuntimeError):
        asyncio.run(main())


def test_remote_client_drops_connection_on_non_json_reply():
    import socketserver
    import threading

    class GarbageHandler(socketserver.StreamRequestHandler):
        def handle(self):
            self.rfile.readline()
            self.wfile.write(b"HTTP/1.1 400 not the protocol\r\n")

    class GarbageServer(socketserver.ThreadingTCPServer):
        daemon_threads = True
        allow_reuse_address = True

    with GarbageServer(("127.0.0.1", 0), GarbageHandler) as tcp:
        threading.Thread(target=tcp.serve_forever, daemon=True).start()
        host, port = tcp.server_address[:2]
        client = RemoteClient(host, port, timeout=5)
        with pytest.raises(ValueError):
            client.request({"op": "ping"})
        # The poisoned connection was dropped, not left desynchronized.
        assert client._sock is None
        tcp.shutdown()


def test_service_batch_dedup_visible_in_response(service):
    responses = service.ask_batch(
        ["What is the miss rate of lru on astar?"] * 4)
    matrix = len(SESSION_KWARGS["workloads"]) * len(SESSION_KWARGS["policies"])
    assert responses[0].batch_unique_jobs == matrix
    assert responses[0].batch_duplicate_jobs == 3 * matrix


def test_percentile_nearest_rank():
    values = [0.01, 0.02, 0.03, 0.04, 0.1]
    assert percentile(values, 0.5) == 0.03
    assert percentile(values, 0.95) == 0.1
    assert percentile([], 0.5) == 0.0


# ----------------------------------------------------------------------
# JSON-lines server + RemoteClient
# ----------------------------------------------------------------------
def test_server_ask_batch_and_stats_ops(server):
    host, port = server.address
    with RemoteClient(host, port) as client:
        assert client.ping()
        response = client.ask("What is the miss rate of lru on astar?",
                              request_id="my-id")
        assert response.request_id == "my-id"
        assert response.server.get("transport") == "json-lines/tcp"
        batch = client.ask_batch(["What is the miss rate of lru on astar?",
                                  "What is the miss rate of belady on lbm?"])
        assert len(batch) == 2
        assert batch[0].answer.grounded
        stats = client.stats()
        assert stats["requests"] == 3


def test_server_concurrent_clients(server):
    host, port = server.address
    questions = INTENT_QUESTIONS[:8]
    expected = {question: json.dumps(answer.to_dict(), sort_keys=True)
                for question, answer in zip(
                    questions, fresh_session().ask_many(questions))}

    def remote_ask(question):
        with RemoteClient(host, port) as client:
            return question, client.ask(question)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(remote_ask, questions))
    assert len(results) == 8
    for question, response in results:
        assert (json.dumps(response.answer.to_dict(), sort_keys=True)
                == expected[question])


def test_server_protocol_errors_keep_connection_alive(server):
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        raw.sendall(b"this is not json\n")
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "malformed" in reply["error"]
        raw.sendall(b'{"op": "nope"}\n')
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "unknown op" in reply["error"]
        raw.sendall(b'{"op": "ask"}\n')
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "question" in reply["error"]
        raw.sendall(b'[1, 2, 3]\n')
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "JSON object" in reply["error"]
        # The same connection still answers real requests afterwards.
        raw.sendall(b'{"op": "ping"}\n')
        reply = json.loads(reader.readline())
        assert reply["ok"] is True and reply["result"]["pong"] is True


def test_server_bad_batch_retriever_keeps_connection_alive(server):
    # Regression: an unvalidated non-string retriever used to raise
    # AttributeError past the dispatch catch and silently kill the
    # connection instead of answering {"ok": false}.
    host, port = server.address
    with socket.create_connection((host, port), timeout=10) as raw:
        reader = raw.makefile("rb")
        raw.sendall(b'{"op": "batch", "questions": ["q"], "retriever": 42}\n')
        reply = json.loads(reader.readline())
        assert reply["ok"] is False and "retriever" in reply["error"]
        raw.sendall(b'{"op": "ping"}\n')
        assert json.loads(reader.readline())["ok"] is True


def test_server_close_without_serving_returns():
    # Regression: close() on a never-started server used to block forever
    # in BaseServer.shutdown().
    server = CacheMindServer(CacheMindService(session=fresh_session()),
                             host="127.0.0.1", port=0)
    server.close()  # must return promptly
    # And serve_forever after close is a no-op rather than an OSError on
    # the closed socket.
    server.serve_forever()


def test_conversation_memory_and_history_are_bounded():
    from repro.llm.memory import ConversationMemory

    memory = ConversationMemory(max_items=10, max_summaries=2)
    for turn in range(50):
        memory.add_turn("user", f"question {turn}")
    assert len(memory) == 10
    assert len(memory.summaries()) <= 2
    session = fresh_session()
    session.MAX_HISTORY = 3
    for _ in range(5):
        session.ask("What is the miss rate of lru on astar?")
    assert len(session.history) == 3


def test_server_unknown_retriever_is_client_error(server):
    host, port = server.address
    with RemoteClient(host, port) as client:
        with pytest.raises(RemoteError):
            client.ask("What is the miss rate of lru on astar?",
                       retriever="bogus")
        assert client.ping()  # connection survives


def test_remote_client_wait_ready(server):
    host, port = server.address
    assert RemoteClient.wait_ready(host, port, timeout=10)
    # A dead port raises on timeout, carrying the last probe failure
    # instead of a bare False.
    with pytest.raises(ConnectionError, match=r"127\.0\.0\.1:1") as excinfo:
        RemoteClient.wait_ready("127.0.0.1", 1, timeout=0.5)
    assert excinfo.value.__cause__ is not None


def test_parse_address():
    assert parse_address("example.com:9000") == ("example.com", 9000)
    assert parse_address("example.com") == ("example.com", 9178)
    with pytest.raises(ValueError):
        parse_address("host:notaport")
    with pytest.raises(ValueError):
        parse_address("")
