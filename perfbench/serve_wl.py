"""``serve_mixed``: two closed-loop clients against a real daemon.

Each job boots ``repro.cli serve`` on loopback (through
``serve_launcher.py``) over an SO-like graph written as CSV files, creates
a filtered view and a small window collection with one GVDL ``/query``,
then runs two client threads in this process, each sending its next
request only after the previous reply:

* the reader sends cacheable ``/run`` requests over the base graph, the
  view and the collection;
* the writer sends ``/mutate`` with a small edge batch, then a ``/run``.

This is the only workload through HTTP, the result cache, admission and
the compute lock, and through mutate -> re-materialize. Every ``/run``
answer is checked against the oracle at the answer's ``epoch``, rebuilt
by replaying the writer's mutation log on the generated graph.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import serve_launcher
from common import Job, check
from tracing import SpanRecorder, span_layers

from repro.core.resilience import decode_diff
from repro.datasets import stackoverflow_like
from repro.datasets.temporal import ts_after
from repro.verify.oracles import ALGORITHMS, describe_map_mismatch, output_map

HERE = Path(__file__).resolve().parent
GRAPH = "stackoverflow"
VIEW = "recent"
COLLECTION = "bench"
BOOT_TIMEOUT = 60.0
REQUEST_TIMEOUT = 60.0


@dataclass
class Shape:
    nodes: int
    edges: int
    windows: int
    reader_runs: int
    mutations: int
    instances: int


SERVE = Shape(nodes=80, edges=320, windows=3, reader_runs=100,
              mutations=8, instances=5)
SERVE_QUICK = Shape(nodes=30, edges=90, windows=3, reader_runs=12,
                    mutations=3, instances=2)


@dataclass
class Instance:
    """A generated graph, its GVDL text and both clients' scripts."""

    edges: List[Tuple[int, int, int]]
    nodes: int
    view_from: int
    window_bounds: List[int]
    reads: List[Tuple[str, str]]
    mutations: List[dict]
    expected: Dict[tuple, dict] = field(default_factory=dict)

    @property
    def gvdl(self) -> str:
        windows = ", ".join(f"[w{i}: ts < {bound}]"
                            for i, bound in enumerate(self.window_bounds))
        return (f"create view {VIEW} on {GRAPH} edges where "
                f"ts >= {self.view_from}; "
                f"create view collection {COLLECTION} on {GRAPH} {windows};")


def make_instance(seed: int, shape: Shape) -> Instance:
    graph = stackoverflow_like(shape.nodes, shape.edges, seed=seed)
    edges = [(e.src, e.dst, e.properties["ts"]) for e in graph.edges]
    rng = random.Random(seed)
    # Window bounds sit at fixed shares of the edges (40%, 55%, ...) and
    # the view holds the newest 30%, so every seed's views are the same
    # size and the cost of answering them varies less between seeds.
    stamps = sorted(ts for _s, _d, ts in edges)
    bounds = [stamps[len(stamps) * (40 + 15 * i) // 100]
              for i in range(shape.windows)]
    # Between two mutations the reader asks every request of the mix at
    # least once, so each epoch computes each of them exactly once and
    # the rest are cache hits. One computation on three targets keeps the
    # work-bearing requests in three clusters (mutates; graph and view;
    # collection) with the median and the 90th percentile well inside
    # the second and the third.
    mix = [("wcc", GRAPH), ("wcc", VIEW), ("wcc", COLLECTION)]
    reads = [mix[i % len(mix)] for i in range(shape.reader_runs)]
    live = list(edges)
    mutations = []
    for _ in range(shape.mutations):
        adds = []
        while len(adds) < 3:
            src, dst = rng.randrange(shape.nodes), rng.randrange(shape.nodes)
            if src != dst:
                adds.append((src, dst, ts_after(years=rng.uniform(5, 8))))
        src, dst, _ts = live[rng.randrange(len(live))]
        live = [e for e in live if (e[0], e[1]) != (src, dst)] + adds
        mutations.append({
            "graph": GRAPH,
            "add_edges": [[s, d, {"ts": ts}] for s, d, ts in adds],
            "retract_edges": [[src, dst]]})
    return Instance(edges=edges, nodes=shape.nodes,
                    view_from=stamps[len(stamps) * 70 // 100],
                    window_bounds=bounds,
                    reads=reads, mutations=mutations)


def write_csv(instance: Instance, directory: Path) -> Tuple[Path, Path]:
    directory.mkdir(parents=True, exist_ok=True)
    nodes = directory / "nodes.csv"
    edges = directory / "edges.csv"
    nodes.write_text("id\n" + "".join(f"{n}\n"
                                      for n in range(instance.nodes)))
    edges.write_text("src,dst,ts:int\n" + "".join(
        f"{s},{d},{ts}\n" for s, d, ts in instance.edges))
    return nodes, edges


# -- the oracle side ------------------------------------------------------


def edges_at(instance: Instance, epoch: int) -> List[Tuple[int, int, int]]:
    """The graph's (src, dst, ts) edges after the first ``epoch`` mutations."""
    live = list(instance.edges)
    for body in instance.mutations[:epoch]:
        gone = {tuple(pair) for pair in body["retract_edges"]}
        live = [e for e in live if (e[0], e[1]) not in gone]
        live += [(s, d, props["ts"]) for s, d, props in body["add_edges"]]
    return live


def expected_views(instance: Instance, name: str, target: str,
                   epoch: int) -> List[dict]:
    """Oracle outputs per view of ``target`` at ``epoch`` (memoized)."""
    key = (name, target, epoch)
    if key not in instance.expected:
        live = edges_at(instance, epoch)
        if target == GRAPH:
            views = [live]
        elif target == VIEW:
            views = [[e for e in live if e[2] >= instance.view_from]]
        else:
            views = [[e for e in live if e[2] < bound]
                     for bound in instance.window_bounds]
        oracle = ALGORITHMS[name].oracle
        instance.expected[key] = [
            oracle([(s, d, 1) for s, d, _ts in view]) for view in views]
    return instance.expected[key]


def check_run(instance: Instance, name: str, target: str,
              payload: dict) -> None:
    check(not payload.get("stale"), f"/run {name} {target} served stale")
    want = expected_views(instance, name, target, payload["epoch"])
    got = payload["views"]
    check(len(got) == len(want),
          f"/run {name} {target}: {len(got)} views, expected {len(want)}")
    for view, expected in zip(got, want):
        mismatch = describe_map_mismatch(
            output_map(decode_diff(view["output"])), expected)
        check(mismatch is None, f"/run {name} {target} view "
                                f"{view['view']} epoch "
                                f"{payload['epoch']}: {mismatch}")


# -- the client side ------------------------------------------------------


def request(port: int, method: str, path: str,
            body: Optional[dict] = None) -> Tuple[int, dict]:
    connection = http.client.HTTPConnection("127.0.0.1", port,
                                            timeout=REQUEST_TIMEOUT)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        connection.request(method, path, body=data, headers=headers)
        response = connection.getresponse()
        raw = response.read()
        return response.status, json.loads(raw.decode() or "{}")
    finally:
        connection.close()


class Daemon:
    """One ``repro.cli serve`` process and its output lines."""

    def __init__(self, work: Path, instance: Instance,
                 spans_out: Optional[Path]):
        nodes, edges = write_csv(instance, work)
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "serve_launcher.py"),
             str(spans_out) if spans_out else "-",
             "--load", f"{GRAPH}={nodes},{edges}",
             "serve", "--port", "0", "--drain-timeout", "10"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            cwd=str(work))
        self.lines: List[str] = []
        self._reader = threading.Thread(
            target=lambda: self.lines.extend(
                iter(self.process.stdout.readline, "")), daemon=True)
        self._reader.start()
        self.port = self._wait_for_port()

    def _wait_for_port(self) -> int:
        deadline = time.monotonic() + BOOT_TIMEOUT
        while time.monotonic() < deadline:
            for line in list(self.lines):
                if line.startswith("listening on "):
                    return int(line.rsplit(":", 1)[1])
            if self.process.poll() is not None:
                break
            time.sleep(0.005)
        self.stop()
        raise RuntimeError("daemon did not start: " + "".join(self.lines))

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)
        self.process.stdout.close()


def run_job(instance: Instance, index: int, work: Path,
            recorder_path: Optional[Path] = None) -> Job:
    """One job: boot a daemon, drive both clients, check every answer."""
    started = time.perf_counter()
    daemon = Daemon(work, instance, recorder_path)
    try:
        status, _ = request(daemon.port, "GET", "/readyz")
        check(status == 200, f"/readyz answered {status}")
        status, created = request(daemon.port, "POST", "/query",
                                  {"gvdl": instance.gvdl})
        check(status == 200, f"/query answered {status}: {created}")
        # Build every resident dataflow once before timing: a cold build
        # is paid once per daemon, not per request.
        warm_ups = sorted(set(instance.reads))
        for name, target in warm_ups:
            status, payload = request(daemon.port, "POST", "/run",
                                      {"computation": name,
                                       "target": target})
            check(status == 200, f"warm-up /run answered {status}")
            check_run(instance, name, target, payload)
        setup = time.perf_counter() - started
        if recorder_path is not None:
            request(daemon.port, "POST", serve_launcher.RESET_PATH)

        log: List[tuple] = []

        def send(kind, method, path, body):
            tick = time.perf_counter()
            try:
                status, payload = request(daemon.port, method, path, body)
            except OSError as error:
                status, payload = 0, {"error": str(error)}
            log.append((kind, 1000.0 * (time.perf_counter() - tick),
                        status, body, payload))

        # The clients take turns: a block of reads, then one mutation and
        # its run, and so on. Left to race, they made the cache's hit
        # sequence, and with it every percentile, depend on timing (the
        # quartile spread of op_p50_ms reached 75% of its median).
        reader_turn = threading.Semaphore(1)
        writer_turn = threading.Semaphore(0)
        blocks = len(instance.mutations) + 1

        def reader():
            for block in range(blocks):
                reader_turn.acquire()
                for name, target in instance.reads[block::blocks]:
                    send("run", "POST", "/run",
                         {"computation": name, "target": target})
                writer_turn.release()

        def writer():
            for body in instance.mutations:
                writer_turn.acquire()
                send("mutate", "POST", "/mutate", body)
                send("run", "POST", "/run",
                     {"computation": "wcc", "target": COLLECTION})
                reader_turn.release()

        begin = time.perf_counter()
        clients = [threading.Thread(target=reader),
                   threading.Thread(target=writer)]
        for client in clients:
            client.start()
        for client in clients:
            client.join()
        finished = time.perf_counter()
        _status, health = request(daemon.port, "GET", "/healthz")
    finally:
        daemon.stop()
    check(daemon.process.returncode == 0,
          f"daemon exited {daemon.process.returncode}: "
          + "".join(daemon.lines[-20:]))

    failed = 0
    for kind, _ms, status, body, payload in log:
        if status != 200:
            failed += 1
        elif kind == "run":
            check_run(instance, body["computation"], body["target"], payload)
    runs = [entry for entry in log if entry[0] == "run"]
    mutates = [entry for entry in log if entry[0] == "mutate"]
    computed = [e for e in runs if e[2] == 200 and not e[4]["cached"]]
    hits = [e for e in runs if e[2] == 200 and e[4]["cached"]]
    working = [e for e in log if e[2] != 200 or e[0] == "mutate"
               or not e[4]["cached"]]

    def ms(entries):
        # A failed request misses every latency limit.
        return [e[1] if e[2] == 200 else float("inf") for e in entries]

    job = Job(instance=index)
    job.scalars = {"setup_s": setup, "job_s": finished - begin,
                   "requests": len(log)}
    # An op is a request that does work: a /mutate or a /run the cache
    # could not answer. A cache hit costs one loopback round trip (~2 ms),
    # which host scheduling moves by 2x between runs; hits are reported
    # on their own line instead.
    job.samples = {"op_ms": ms(working),
                   "run_ms": ms(runs), "hit_ms": ms(hits),
                   "mutate_ms": ms(mutates)}
    job.attempted = len(warm_ups) + len(log)
    job.failed = failed
    work = sum(e[4]["total_work"] for e in computed)
    parallel = sum(e[4]["total_parallel_time"] for e in computed)
    cache = health["cache"]
    lookups = cache["hits"] + cache["misses"]
    # The turn-taking clients make the request sequence, and so the work
    # and the cache hits, a function of the input.
    job.counters = (work, parallel, cache["hits"])
    job.layers = {
        "serve.cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "serve.shed": health["admission"]["shed"],
        "differential.trace_records":
            health["resident_memory"]["total_records"],
        "meter.work": work,
        "meter.parallel_time": parallel,
    }
    if recorder_path is not None:
        recorder = SpanRecorder.from_dict(
            json.loads(recorder_path.read_text()))
        job.layers.update(span_layers(recorder))
    return job


def instances_for(seeds: List[int], quick: bool) -> List[Instance]:
    shape = SERVE_QUICK if quick else SERVE
    return [make_instance(seed, shape) for seed in seeds[:shape.instances]]
