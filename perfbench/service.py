"""service-mix: a closed loop of clients against an in-process server.

One pass starts a :class:`ServerThread` over a fresh temporary
:class:`ResultCache`, lets ``CLIENTS`` threads work through the seeded
request stream with blocking ``submit`` -> ``wait`` -> ``run_result``
calls, reads ``/stats`` and ``/metrics``, and stops the server and its
worker processes.  A repeat request is only sent once the first request
for its point has returned, so every repeat must be answered without a
simulation.
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
import statistics
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.metrics import names
from repro.metrics.exposition import (
    histogram_buckets,
    histogram_quantile,
    parse_exposition,
    sum_samples,
)
from repro.harness.resultcache import ResultCache
from repro.serve.client import ServeClient
from repro.serve.server import ServerThread

from inputs import Request
from simpoints import fingerprint
from spans import SpanRecorder

#: closed-loop clients, and the scheduler's worker cap (both <= nproc)
CLIENTS = 2
WORKERS = min(2, os.cpu_count() or 1)
REQUEST_TIMEOUT_S = 120.0


@dataclass
class RequestRun:
    index: int
    request: Request
    seconds: float = 0.0
    record: Optional[Dict] = None
    error: Optional[str] = None


@dataclass
class ServicePass:
    wall: float
    runs: List[RequestRun]
    stats: Dict
    samples: Dict = field(repr=False, default_factory=dict)
    results: Dict[str, object] = field(repr=False, default_factory=dict)


def _one_request(client: ServeClient, run: RequestRun,
                 recorder: Optional[SpanRecorder], run_id: str,
                 results: Dict[str, object]) -> None:
    payload = run.request.payload

    def call(name, fn, *args, **kwargs):
        if recorder is None:
            return fn(*args, **kwargs)
        with recorder.span(name):
            return fn(*args, **kwargs)

    job = call("serve.ServeClient.submit", client.submit, **payload)
    if run.request.repeat and job["state"] != "done":
        raise RuntimeError(f"repeat admitted as {job['state']}, not a hit")
    status = call("serve.ServeClient.wait", client.wait, job["job_id"],
                  timeout_s=REQUEST_TIMEOUT_S)
    if status["state"] != "done":
        raise RuntimeError(f"job {status['state']}: {status.get('error')}")
    result = call("serve.ServeClient.run_result", client.run_result,
                  job["job_id"])
    run.record = fingerprint(result)
    if not run.request.repeat:
        results[run.request.key] = result


def _client_loop(port: int, runs: List[RequestRun], cursor: List[int],
                 lock: threading.Lock, returned: Dict[str, threading.Event],
                 recorder: Optional[SpanRecorder], pass_id: str,
                 results: Dict[str, object]) -> None:
    client = ServeClient("127.0.0.1", port, timeout_s=REQUEST_TIMEOUT_S)
    while True:
        with lock:
            if cursor[0] >= len(runs):
                return
            run = runs[cursor[0]]
            cursor[0] += 1
        first = returned[run.request.key]
        if run.request.repeat:
            first.wait(REQUEST_TIMEOUT_S)
        run_id = f"{pass_id}.r{run.index}"
        start = time.perf_counter()
        try:
            if recorder is None:
                _one_request(client, run, None, run_id, results)
            else:
                with recorder.span("serve.request", run_id):
                    _one_request(client, run, recorder, run_id, results)
        except Exception as exc:  # every failure is counted, not raised
            run.error = repr(exc)
        finally:
            run.seconds = time.perf_counter() - start
            if not run.request.repeat:
                first.set()


def reap_children() -> None:
    """Wait for every child process (pool workers) to end."""
    for child in multiprocessing.active_children():
        child.join(timeout=60)
        if child.is_alive():
            child.terminate()
            child.join(timeout=10)


def start_and_stop(scratch: str) -> None:
    """Boot and stop a server over a fresh cache (the set-up cost)."""
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        with ServerThread(cache=ResultCache(cache_dir), jobs=WORKERS):
            pass
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def run_pass(stream: List[Request], scratch: str,
             recorder: Optional[SpanRecorder], pass_id: str) -> ServicePass:
    runs = [RequestRun(index, request) for index, request in
            enumerate(stream)]
    returned = {request.key: threading.Event() for request in stream}
    results: Dict[str, object] = {}
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=scratch)
    try:
        with ServerThread(cache=ResultCache(cache_dir),
                          jobs=WORKERS) as server:
            cursor, lock = [0], threading.Lock()
            threads = [threading.Thread(
                target=_client_loop, name=f"client{n}",
                args=(server.port, runs, cursor, lock, returned, recorder,
                      pass_id, results)) for n in range(CLIENTS)]
            start = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            wall = time.perf_counter() - start
            client = ServeClient("127.0.0.1", server.port)
            stats = client.stats()
            samples = parse_exposition(client.metrics_text())
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
        reap_children()
    return ServicePass(wall, runs, stats, samples, results)


def check_pass(service_pass: ServicePass, reference: Dict[str, Dict]
               ) -> List[Tuple[int, str]]:
    """Failures as (request index, reason): errors, results that differ
    from the in-process reference, warm results that differ from cold
    ones, and simulation/dedupe counts that break exactly-once."""
    problems = []
    cold: Dict[str, Dict] = {}
    for run in service_pass.runs:
        if run.error is not None:
            problems.append((run.index, run.error))
            continue
        expected = reference.get(run.request.key)
        if run.record != expected:
            problems.append((run.index, f"{run.request.key}: service "
                             f"{run.record} != in-process {expected}"))
        if not run.request.repeat:
            cold[run.request.key] = run.record
    for run in service_pass.runs:
        if (run.request.repeat and run.error is None
                and run.record != cold.get(run.request.key)):
            problems.append((run.index, f"{run.request.key}: warm result "
                             f"differs from cold"))
    distinct = sum(1 for run in service_pass.runs if not run.request.repeat)
    repeats = len(service_pass.runs) - distinct
    stats = service_pass.stats
    if (stats["simulations_run"] != distinct
            or stats["dedupe"]["completed_hits"] != repeats):
        problems.append((-1, f"simulations_run {stats['simulations_run']} "
                         f"/ completed dedupe {stats['dedupe']} for "
                         f"{distinct} points and {repeats} repeats"))
    return problems


def serve_metrics(last: ServicePass, previous: Dict,
                  recorder: SpanRecorder) -> Dict[str, float]:
    """Service-side per-layer numbers of one pass.

    Counters come from the pass's own ``/stats``; cache counters are the
    ``/metrics`` deltas over the pass (*previous* is the scrape before
    it); latency quantiles are read from the ``/metrics`` histograms,
    which accumulate over every pass of this process.
    """
    samples = last.samples

    def delta(name: str) -> float:
        return sum_samples(samples, name) - sum_samples(previous, name)

    hits, misses = delta(names.CACHE_HITS), delta(names.CACHE_MISSES)
    lookups = hits + misses
    metrics = {
        "serve.simulations_run": last.stats["simulations_run"],
        "serve.dedup_hits": (last.stats["dedupe"]["completed_hits"]
                             + last.stats["dedupe"]["inflight_hits"]),
        "harness.cache_puts": delta(names.CACHE_PUTS),
        "harness.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "serve.job_wall_s_p50": histogram_quantile(histogram_buckets(
            samples, names.JOB_WALL_SECONDS), 0.5) or 0.0,
        "serve.http_request_s_p50": histogram_quantile(histogram_buckets(
            samples, names.HTTP_REQUEST_SECONDS), 0.5) or 0.0,
    }
    for call in ("submit", "wait"):
        metrics[f"serve.{call}_s_p50"] = statistics.median(
            [span.seconds for span in recorder.spans
             if span.name == f"serve.ServeClient.{call}"])
    return metrics


def latency_split(passes: List[ServicePass]) -> Dict[str, List[float]]:
    """Submit->result seconds of cold (simulated) and warm requests."""
    split: Dict[str, List[float]] = {"cold": [], "warm": []}
    for service_pass in passes:
        for run in service_pass.runs:
            if run.error is None:
                split["warm" if run.request.repeat else "cold"].append(
                    run.seconds)
    return split
