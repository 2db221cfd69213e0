"""The ``serve-warm`` workload: a settled warm read-only replica under a
closed loop.

Set-up fills a store with ``python -m repro store save`` (untimed), then
starts ``python -m repro serve --store-read-only`` several times: each start
gives one ``setup_s`` sample (spawn -> ready line) and one ``cold_s``
sample (its first answer on each retriever route).  The last server takes
the load.  Untimed ``batch`` requests first fill its conversation memory to
the cap, asking every question of the pool on the way: every ask adds two
turns and each request scans the memory, so until the cap latency climbs
with every request, while a long-lived server always runs full.  Then
``clients`` ``RemoteClient`` connections on as many threads walk a fixed
interleaving of all 14 question kinds ``passes`` times, each client sending
its next request only after the previous reply arrived.  Every reply is
checked against an in-process ``CacheMind.ask`` over the same store, and
the trace-grounded ones against the direct-replay oracle.

With ``--trace 1`` the passes are split: half against a plain server, half
against one started through ``serve_launcher.py``, which records spans;
both are filled first.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from typing import Any, Dict, List, Optional

import layers
import oracles
import tracing
from common import (HERE, BenchError, Run, answer_dict, child_env, others,
                    p95, pin, pin_fastest_cpu)

#: Questions per untimed ``batch`` request while the memory fills.
FILL_BATCH = 64
#: The closed loop gives up after this long (a hung server, not a result).
LOOP_LIMIT_S = 120.0


def session_args(params: Dict[str, Any], seed: int) -> List[str]:
    return ["--workloads", ",".join(params["workloads"]),
            "--policies", ",".join(params["policies"]),
            "--accesses", str(params["num_accesses"]),
            "--config", params["config"], "--seed", str(seed)]


class Server:
    """One server process; ``setup_s`` is spawn -> ready line."""

    def __init__(self, run: Run, argv: List[str]):
        self.log = open(os.path.join(run.fresh_dir("server-"), "stderr.log"),
                        "w", encoding="utf-8")
        cpu = pin_fastest_cpu()
        spawned = time.monotonic()
        self.process = subprocess.Popen(
            argv, env=child_env(), stdout=subprocess.PIPE, stderr=self.log,
            text=True)
        os.sched_setaffinity(0, others(cpu))
        self.port = None
        for line in self.process.stdout:
            if line.startswith("serving CacheMind on "):
                self.port = int(line.split()[3].rsplit(":", 1)[1])
                break
        self.setup_s = time.monotonic() - spawned
        if self.port is None:
            self.stop()
            raise BenchError("server exited before its ready line")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server process")

    def repin(self) -> None:
        """Move the server to the fastest CPU and this process, with its
        clients, off it (see ``common.pin_fastest_cpu``)."""
        cpu = pin_fastest_cpu()
        if cpu is not None:
            pin(self.process.pid, {cpu})
            os.sched_setaffinity(0, others(cpu))

    def stop(self) -> None:
        """SIGINT (the CLI drains and exits), then wait; kill if stuck."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self.log.close()


def closed_loop(port: int, schedule, clients: int) -> Dict[str, Any]:
    """Walk ``schedule`` once over ``clients`` closed-loop connections:
    request ``n`` asks item ``n`` and goes to whichever client is free.
    Every reply is kept as ``(n, sent, done, answer)``.  Clients never
    retry, so a shed or failed request counts as an error."""
    from repro import RemoteClient, RemoteError

    requests = len(schedule)
    replies: List[list] = [[] for _ in range(clients)]
    errors = [0] * clients
    retries = [0] * clients
    issued = [0]
    issue_lock = threading.Lock()
    started = time.monotonic()

    def take() -> Optional[int]:
        with issue_lock:
            if (issued[0] >= requests
                    or time.monotonic() - started >= LOOP_LIMIT_S):
                return None
            issued[0] += 1
            return issued[0] - 1

    def worker(index: int) -> None:
        client = RemoteClient("127.0.0.1", port, timeout=30.0, retries=0)
        try:
            while (number := take()) is not None:
                sent = time.monotonic()
                try:
                    response = client.ask(schedule[number]["q"])
                except (RemoteError, OSError, ValueError):
                    errors[index] += 1
                    continue
                replies[index].append((number, sent, time.monotonic(),
                                       answer_dict(response.answer)))
        finally:
            retries[index] = client.retries_used
            client.close()

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=LOOP_LIMIT_S + 30.0)
    if any(thread.is_alive() for thread in threads):
        raise BenchError("a closed-loop client did not finish")
    if issued[0] < requests:
        raise BenchError(f"the closed loop sent {issued[0]} of {requests} "
                         f"requests in {LOOP_LIMIT_S:.0f} s")
    merged = sorted(reply for items in replies for reply in items)
    finished = max((reply[2] for reply in merged), default=started)
    return {"replies": merged, "errors": sum(errors),
            "retries": sum(retries), "started": started,
            "wall_s": finished - started}


def loop_passes(server: Server, schedule, passes: int,
                clients: int) -> Dict[str, Any]:
    """``passes`` closed loops over ``schedule``, the server moved to the
    fastest CPU before each; request ``n`` of pass ``p`` is numbered
    ``p * len(schedule) + n``, so it asks item ``n % len(schedule)``."""
    loads = []
    for index in range(passes):
        server.repin()
        load = closed_loop(server.port, schedule, clients)
        loads.append(dict(load, replies=[
            (number + index * len(schedule), *rest)
            for number, *rest in load["replies"]]))
    return {"replies": [reply for load in loads for reply in load["replies"]],
            "errors": sum(load["errors"] for load in loads),
            "retries": sum(load["retries"] for load in loads),
            "started": loads[0]["started"],
            "wall_s": sum(load["wall_s"] for load in loads)}


def load_figures(load, schedule, clients: int) -> Dict[str, float]:
    """Latency and throughput of a closed loop that lost no request.

    Each item's latency is its fastest over the passes (see
    ``cold._metrics``); the median and tail are over the items, so they follow what the questions cost rather
    than how often a neighbour on the host got in the way.  A closed loop
    with no think time answers ``clients`` requests per mean latency
    (Little's law), which gives the throughput at those latencies.
    """
    if load["errors"]:
        raise BenchError(f"{load['errors']} requests raised or were refused")
    latencies: Dict[int, List[float]] = {}
    for number, sent, done, _reply in load["replies"]:
        latencies.setdefault(number % len(schedule), []).append(done - sent)
    items = [min(values) for values in latencies.values()]
    return {"warm_ms": statistics.median(items) * 1000.0,
            "warm_p95_ms": p95(items) * 1000.0,
            "throughput_per_s": clients / statistics.mean(items)}


def check_reply(run: Run, question, reference, reply) -> None:
    run.attempted += 1
    expected = reference[question["q"]]
    if reply != expected:
        run.problem(f"served {reply!r} != in-process {expected!r} for "
                    f"{question['q']!r}")


def check_load(run: Run, schedule, reference, load) -> None:
    for number, _sent, _done, reply in load["replies"]:
        check_reply(run, schedule[number % len(schedule)], reference, reply)
    run.attempted += load["errors"]
    for _ in range(load["errors"]):
        run.problem("a request raised or was refused")


def fill_memory(run: Run, port: int, first, cycle, reference) -> None:
    """Untimed: ask ``first`` once, then ``cycle`` in turn, in batches,
    until the server's conversation memory is at its cap (two turns per
    ask); every reply is checked like a timed one."""
    from repro import RemoteClient, RemoteError
    from repro.llm.memory import ConversationMemory

    asks = ConversationMemory().max_items // 2
    questions = list(first) + [cycle[index % len(cycle)]
                               for index in range(asks - len(first))]
    with RemoteClient("127.0.0.1", port, timeout=120.0,
                      retries=0) as client:
        for start in range(0, asks, FILL_BATCH):
            batch = questions[start:start + FILL_BATCH]
            try:
                responses = client.ask_batch([item["q"] for item in batch])
            except (RemoteError, OSError, ValueError) as error:
                raise BenchError(f"filling the memory failed: {error}") \
                    from error
            if len(responses) != len(batch):
                run.problem(f"{len(responses)} replies to a batch of "
                            f"{len(batch)}")
            for question, response in zip(batch, responses):
                check_reply(run, question, reference,
                            answer_dict(response.answer))


def start_server(run: Run, argv, firsts, reference) -> Server:
    """Start a server and time its first answer on each retriever route
    (each route builds its retriever lazily on first use)."""
    from repro import RemoteClient

    server = Server(run, argv)
    try:
        with RemoteClient("127.0.0.1", server.port, retries=0) as client:
            replies, server.first_answers_s = [], []
            for question in firsts:
                began = time.monotonic()
                replies.append(answer_dict(client.ask(question["q"]).answer))
                server.first_answers_s.append(time.monotonic() - began)
    except BaseException:
        server.stop()
        raise
    for question, reply in zip(firsts, replies):
        check_reply(run, question, reference, reply)
    return server


def serve_warm(run: Run, params) -> Dict[str, Any]:
    from repro import CacheMind
    from repro.sim.config import resolve_config

    store = run.fresh_dir("store-")
    args = session_args(params, run.seed)
    # Untimed set-up: the store fills while this process computes the
    # oracle.
    saver = subprocess.Popen(
        [sys.executable, "-m", "repro", "store", "save", "--dir", store]
        + args, env=child_env(), stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE, text=True)
    try:
        config = resolve_config(params["config"])
        oracle = oracles.matrix_oracle(params["workloads"],
                                       params["policies"],
                                       params["num_accesses"], run.seed,
                                       config)
    finally:
        _, errors = saver.communicate(timeout=150)
    if saver.returncode != 0:
        raise BenchError("store save failed:\n" + errors[-2000:])
    pool = oracles.serve_questions(oracle, params["workloads"],
                                   params["policies"], run.seed,
                                   params["questions_per_kind"])
    # The fixed interleaving: one question of every kind in turn, each
    # kind contributing ``questions_per_kind`` questions spread evenly over
    # its pool (the trace-grounded pools run through every pair and PC
    # popularity stratum in order).
    per_kind = params["questions_per_kind"]
    schedule = [questions[index * len(questions) // per_kind]
                for index in range(per_kind) for questions in pool.values()]
    unique = {question["q"]: question
              for questions in pool.values() for question in questions}
    session = CacheMind(workloads=params["workloads"],
                        policies=params["policies"],
                        num_accesses=params["num_accesses"], config=config,
                        seed=run.seed, store_dir=store, store_read_only=True)
    # A JSON round trip makes the reference compare like wire replies.
    reference = {text: json.loads(json.dumps(answer_dict(session.ask(text))))
                 for text in unique}
    del session
    # Every pool question is served during the fill and served replies
    # must equal the reference, so the reference answers carry the served
    # accuracy over every trace-grounded question.
    grounded = [question for question in unique.values()
                if question["grounded"]]
    accuracy = run.score_answers(grounded, [reference[question["q"]]
                                            for question in grounded])
    firsts = [pool[kind][0] for kind in ("miss_rate", "count", "concept")]
    # The fill asks every pool question once, then -- since the memory's
    # cost depends on how many turns it holds, not on what they say -- the
    # cheap whole-trace questions until the cap.
    fill = (list(unique.values()),
            pool["miss_rate"] + pool["policy_comparison"])

    serve_argv = ["serve", "--port", "0", "--store-dir", store,
                  "--store-read-only"] + args
    setups, colds = [], []
    starts = 1 if run.trace else params["server_starts"]
    passes = params["passes"] // 2 if run.trace else params["passes"]
    server = None
    try:
        for start in range(starts):
            server = start_server(run, [sys.executable, "-m", "repro"]
                                  + serve_argv, firsts, reference)
            setups.append(server.setup_s)
            colds.append(server.first_answers_s)
            if start < starts - 1:
                server.stop()
                server = None
        fill_memory(run, server.port, *fill, reference)
        load = loop_passes(server, schedule, passes, params["clients"])
        rss = server.peak_rss_mb()
    finally:
        if server is not None:
            server.stop()
    check_load(run, schedule, reference, load)
    run.samples = {"setup_s": setups, "cold_s": colds,
                   "latency_s": [(number, done - sent) for number, sent, done,
                                 _reply in load["replies"]],
                   "unique_questions": len(unique)}
    metrics = {
        "setup_s": statistics.median(setups),
        # Every start does identical work: each route's first answer at its
        # fastest over the starts (see cold._metrics).
        "cold_s": sum(min(start[route] for start in colds)
                      for route in range(len(firsts))),
        "grounded_accuracy": accuracy,
        "peak_rss_mb": rss,
    }
    metrics.update(load_figures(load, schedule, params["clients"]))
    table = (traced_layers(run, serve_argv, schedule, reference, firsts,
                           fill, load, passes, params)
             if run.trace else None)
    return {"metrics": metrics, "layers": table}


def traced_layers(run: Run, serve_argv, schedule, reference, firsts, fill,
                  plain_load, passes, params) -> Dict[str, float]:
    """A traced server, filled the same way, under the same loop: request
    figures per request, store-read figures per server start."""
    from repro import RemoteClient

    spans = run.span_file("server.jsonl")
    server = start_server(run, [sys.executable,
                                os.path.join(HERE, "serve_launcher.py"),
                                spans] + serve_argv, firsts, reference)
    try:
        fill_memory(run, server.port, *fill, reference)
        with RemoteClient("127.0.0.1", server.port, retries=0) as client:
            before = client.stats()["simulation_cache"]
            load = loop_passes(server, schedule, passes,
                               params["clients"])
            after = client.stats()["simulation_cache"]
            shed = client.health()["shed"]
    finally:
        server.stop()
    check_load(run, schedule, reference, load)

    tree = tracing.SpanTree(tracing.read_spans(spans))
    # The load's requests only: not the first answers, which build the
    # retrievers, nor the fill.
    requests_ops = [op for op in tree.roots("serve.dispatch")
                    if op["start"] >= load["started"] * 1e9
                    and any(span["name"] == "serve.ask_batch"
                            for span in tree.descendants(op))]
    count = len(requests_ops)
    if count == 0:
        raise BenchError("the traced server recorded no requests")
    delta = {key: after[key] - before[key]
             for key in ("hits", "misses", "store_hits")}
    table = {name: value if name in layers.RATIOS else value / count
             for name, value in layers.figures(
                 tracing.layer_totals(tree, requests_ops), [delta]).items()}
    startup = layers.figures(
        tracing.layer_totals(tree, tree.roots("serve.warm_up")),
        [dict(before, hits=0, misses=0)])
    for name in layers.STORE_READ + ("simcache.store_hits",):
        table[name] = startup[name]
    table["serve.handler_s"] = (sum(tree.self_ns(op) for op in requests_ops)
                                / 1e9 / count)
    table["serve.shed"] = shed / count
    table["client.retries"] = load["retries"] / count
    client_s = sum(done - sent for _item, sent, done, _reply
                   in load["replies"])
    table["trace.coverage"] = (sum(tree.layer_covered_ns(op)
                                   for op in requests_ops) / 1e9 / client_s)
    table["trace.overhead_ratio"] = (
        (len(plain_load["replies"]) / plain_load["wall_s"])
        / (len(load["replies"]) / load["wall_s"]))
    return table
