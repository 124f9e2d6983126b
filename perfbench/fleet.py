"""``fleet_mlp_b1_open``: the Figure 4 MLP (64-150-150-14) behind
``PumaFleet`` with one spawned worker, batch-1 JSON requests over HTTP.

The gateway and this load generator share the benchmark process, so the
gateway process and the worker process are the two programs running.
Requests arrive open-loop over at most ``CONNECTIONS`` keep-alive
connections.  Host time sits in the fleet's HTTP/JSON handling and
gateway dispatch, the worker's window batching and per-call engine
overhead; execution is a small share.

One request in every round of 200 carries a non-finite input (``NaN`` in
even rounds, ``null`` in odd ones).  The correct answer is a 4xx
refusal.  A 200 for it is counted as a failed operation: the replay and
optimized paths skip the interpreter's fixed-point range check, so
``quantize(NaN)`` serves a wrong answer today.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import time
from pathlib import Path

import numpy as np

from checks import (CheckFailed, check_bitwise, check_float, check_stats,
                    fixed_point_tolerance, self_test)
from common import (Run, cpu_s, latency_metrics, layer_metrics_from_engine,
                    median, modelled_metrics, peak_rss_mb)
from loadgen import (ROUND, cap_executor_threads, closed_loop, open_loop,
                     percentile, poisson_offsets, rounded)
from lstm import continuous_layer
from tracing import install_program_spans

DIMS = [64, 150, 150, 14]
MODEL = "mlp"
# Keep-alive connections from the load generator (never more than CPUs).
CONNECTIONS = max(1, min(2, os.cpu_count() or 1))
# Fixed for every run, never re-derived.
FIXED_RATE = 100.0
MIN_REQUESTS = 1000
# The fixed-rate phase runs in chunks, each followed by a saturated
# segment of back-to-back requests.
CHUNK = ROUND
SEGMENT = 2 * ROUND
SEQUENTIAL_LANES = 3
REF_CHUNK = 64
SERIAL_CALLS = 200
WARM_TRIES = 50
HTTP_TIMEOUT_S = 60.0


def _spec():
    from repro.fleet import FleetModelSpec

    return FleetModelSpec(MODEL, "mlp", {"dims": DIMS})


class Traffic:
    """Seeded request bodies: whole rounds, one non-finite per round."""

    def __init__(self, seed: int) -> None:
        self.rng_x = np.random.default_rng([seed, 0])
        self.rng_t = np.random.default_rng([seed, 1])
        self.inputs: list[np.ndarray] = []
        self.nonfinite: list[bool] = []
        self.bodies: list[bytes] = []

    def take(self, count: int) -> range:
        """Append ``count`` (whole rounds of) requests; their indices."""
        first = len(self.inputs)
        for _ in range(count // ROUND):
            bad = int(self.rng_x.integers(ROUND))
            for j in range(ROUND):
                x = self.rng_x.uniform(-1.0, 1.0, size=DIMS[0])
                values: list = x.tolist()
                if j == bad:
                    odd = (len(self.inputs) // ROUND) % 2
                    values[int(self.rng_x.integers(DIMS[0]))] = \
                        None if odd else float("nan")
                self.inputs.append(x)
                self.nonfinite.append(j == bad)
                self.bodies.append(json.dumps(
                    {"model": MODEL, "inputs": {"x": values}}).encode())
        return range(first, len(self.inputs))

    def valid(self, indices) -> list[int]:
        return [i for i in indices if not self.nonfinite[i]]


class Client:
    """A fixed set of keep-alive connections to the gateway."""

    def __init__(self, port: int, tracer=None) -> None:
        from repro.fleet.http import HttpConnection

        self.free: asyncio.Queue = asyncio.Queue()
        self.connections = [HttpConnection("127.0.0.1", port)
                            for _ in range(CONNECTIONS)]
        for connection in self.connections:
            self.free.put_nowait(connection)
        self.tracer = tracer

    async def post(self, body: bytes, request_id=None):
        """``(status, words or None)`` for one predict request."""
        connection = await self.free.get()
        try:
            if self.tracer is not None:
                with self.tracer.span("fleet.client_request", request_id):
                    response = await self._send(connection, body)
            else:
                response = await self._send(connection, body)
        finally:
            self.free.put_nowait(connection)
        if response.status != 200:
            return response.status, None
        return 200, np.asarray(response.json()["words"]["out"],
                               dtype=np.int64)

    @staticmethod
    async def _send(connection, body: bytes):
        return await connection.request(
            "POST", "/v1/predict", body,
            {"Content-Type": "application/json"}, timeout=HTTP_TIMEOUT_S)

    async def close(self) -> None:
        for connection in self.connections:
            await connection.close()


def _worker_server_stats(metrics: dict) -> dict:
    (worker,) = metrics["workers"].values()
    (model,) = worker["metrics"]["models"].values()
    return model["server"]


async def setup(work: Path, traffic: Traffic, tracer=None):
    """Start the fleet, get a first reply, then warm every batch size.

    Returns ``(fleet, client, (index, words), seconds, marks)`` where
    ``marks`` are the start, fleet-ready and first-reply times.
    """
    from repro.fleet import PumaFleet

    start = time.perf_counter()
    fleet = PumaFleet([_spec()], num_workers=1, work_dir=work,
                      replicas_per_model=1, max_batch_size=CONNECTIONS)
    client = None
    try:
        await fleet.start()
        spawn_done = time.perf_counter()
        client = Client(fleet.http.port, tracer)
        (index,) = traffic.valid(traffic.take(ROUND))[:1]
        status, first = await client.post(traffic.bodies[index])
        if status != 200:
            raise CheckFailed(f"fleet set-up request got HTTP {status}")
        first_reply = time.perf_counter()
        # Each batch size pays a first-use probe and stats derivation on
        # the worker; with CONNECTIONS clients at most that many lanes
        # can form.
        for _ in range(WARM_TRIES if CONNECTIONS > 1 else 0):
            await asyncio.gather(*(client.post(traffic.bodies[index])
                                   for _ in range(CONNECTIONS)))
            stats = _worker_server_stats(await fleet.metrics())
            if stats["lanes_simulated"] > stats["batches_formed"]:
                break
    except BaseException:
        await _stop(fleet, client)
        raise
    seconds = time.perf_counter() - start
    return fleet, client, (index, first), seconds, (start, spawn_done,
                                                    first_reply)


async def probe(seed: int, workload: str) -> float:
    work = Path(__file__).resolve().parent / ".work" / f"probe-{os.getpid()}"
    try:
        fleet, client, _first, seconds, _marks = await setup(work,
                                                             Traffic(seed))
        await _stop(fleet, client)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return seconds


async def _stop(fleet, client) -> None:
    """Close the client's connections and stop the fleet and its worker."""
    try:
        if client is not None:
            await client.close()
    finally:
        await fleet.stop()


async def run(run: Run, tracer=None, side: bool = False) -> None:
    """Serve the workload; with ``side`` (traced runs of another
    workload) serve only ``MIN_REQUESTS`` per phase and report the fleet's
    own layers, leaving the engine, serve and modelled figures to the
    calling workload."""
    from repro.fleet.manager import WorkerManager

    cap_executor_threads()
    traffic = Traffic(run.seed)
    replies: dict[int, np.ndarray] = {}
    if tracer is not None:
        tracer.wrap(WorkerManager, "spawn", "fleet.worker_spawn")
    fleet, client, (first_index, first_words), setup_s, marks = await setup(
        run.work / "fleet", traffic, tracer)
    if not side:
        run.put("setup_s", setup_s)
    replies[first_index] = first_words
    if tracer is not None:
        tracer.uninstall()

    def record(load, indices) -> None:
        """Count outcomes; valid requests must succeed."""
        run.attempted += len(indices)
        for outcome in load.outcomes:
            index = indices[outcome.index]
            if not outcome.ok:
                raise CheckFailed(f"fleet request {index} failed: "
                                  f"{outcome.error}")
            status, words = outcome.value
            if traffic.nonfinite[index]:
                # Correct: a typed 4xx refusal.  A 200 is a wrong answer.
                if not 400 <= status < 500:
                    run.failed += 1
            elif status != 200:
                raise CheckFailed(f"fleet request {index} got HTTP "
                                  f"{status}")
            else:
                replies[index] = words

    def valid_latencies(load, indices) -> np.ndarray:
        keep = [k for k, i in enumerate(indices)
                if not traffic.nonfinite[i]]
        return load.latencies_ms(keep)

    async def serve_open(rate: float, count: int):
        indices = traffic.take(count)
        offsets = poisson_offsets(traffic.rng_t, rate, len(indices))
        load = await open_loop(
            offsets, lambda k: client.post(traffic.bodies[indices[k]],
                                           indices[k]))
        record(load, indices)
        return load, valid_latencies(load, indices)

    async def saturated(count: int) -> float:
        """Inferences per second, ``count`` requests back to back."""
        indices = traffic.take(count)
        closed = await closed_loop(
            len(indices), CONNECTIONS,
            lambda k, _c: client.post(traffic.bodies[indices[k]]))
        record(closed, indices)
        return len(traffic.valid(indices)) / (closed.finished
                                              - closed.started)

    chunks = rounded(MIN_REQUESTS if side else max(
        MIN_REQUESTS, int(FIXED_RATE * run.seconds))) // CHUNK

    async def fixed_phase(count: int):
        """``count`` chunks at the fixed offered rate, each followed by a
        saturated segment, so both figures sample the whole run."""
        latencies, lateness, rates = [], [], []
        for _ in range(count):
            load, valid = await serve_open(FIXED_RATE, CHUNK)
            latencies.append(valid)
            lateness.append(load.lateness_ms())
            rates.append(await saturated(SEGMENT))
        return latencies, np.concatenate(lateness), rates

    local = None
    try:
        worker_pid = next(iter(fleet.manager.workers.values())).process.pid
        cpu_before, sent_before = cpu_s([worker_pid]), run.attempted
        latencies, _lateness, rates = await fixed_phase(chunks)
        if tracer is None:
            # CPU of the gateway (and load generator) and of the worker.
            run.put("cpu_ms_per_inf", (cpu_s([worker_pid]) - cpu_before)
                    * 1e3 / (run.attempted - sent_before))
            latency_metrics(run, latencies)
            run.notes.update(throughput_inf_s=median(rates),
                             saturated_rates=rates)
            run.put("peak_rss_mb", peak_rss_mb([worker_pid]))
        else:
            local = await _traced_layers(
                run, tracer, fleet, client, traffic,
                np.concatenate(latencies), lambda: fixed_phase(chunks),
                marks, side)
    finally:
        await _stop(fleet, client)
    _check(run, traffic, replies, first_index, local, modelled=not side)


async def _traced_layers(run, tracer, fleet, client, traffic, untraced,
                         fixed_phase, marks, side):
    """Per-layer numbers; returns the local engine it built.  With
    ``side`` only the fleet's own layers, the batch-1 ladder, the store
    and the continuous layer."""
    from repro.fleet import build_engine
    from repro.fleet.http import HttpConnection
    from repro.serve import PumaServer

    _start, spawn_done, first_reply = marks
    run.put("fleet.worker_spawn_s",
            sum(tracer.durations("fleet.worker_spawn")))
    run.put("fleet.first_reply_s", first_reply - spawn_done)
    before = _worker_server_stats(await fleet.metrics())
    install_program_spans(tracer)
    tracer.wrap(HttpConnection, "request", "fleet.http_request")
    traced_lat, lateness, _rates = await fixed_phase()
    traced_lat = np.concatenate(traced_lat)
    metrics = await fleet.metrics()
    after = _worker_server_stats(metrics)
    run.put("loadgen.lateness_p50_ms", percentile(lateness, 50))
    run.put("loadgen.lateness_p99_ms", percentile(lateness, 99))
    if not side:
        untraced_p50 = percentile(untraced, 50)
        traced_p50 = percentile(traced_lat, 50)
        run.put("trace.untraced_p50_ms", untraced_p50)
        run.put("trace.traced_p50_ms", traced_p50)
        run.put("trace.overhead_ms", traced_p50 - untraced_p50)
        batches = after["batches_formed"] - before["batches_formed"]
        lanes = after["lanes_simulated"] - before["lanes_simulated"]
        run.put("serve.batches_formed", batches)
        run.put("serve.mean_batch_size", lanes / batches if batches else 0)
        run.put("serve.early_closes", after["scheduler"]["early_closes"]
                - before["scheduler"]["early_closes"])
        run.put("serve.scheduler.shed", after["scheduler"]["shed"]
                - before["scheduler"]["shed"])
    (model,) = metrics["fleet"]["models"].values()
    run.put("fleet.retries", model["retries"])
    run.put("fleet.rejections", model["rejections"])
    run.put("fleet.breaker_opens", metrics["fleet"]["breaker_opens"])

    # The batch-1 ladder: HTTP through the fleet, a local PumaServer with
    # the worker's settings, and a bare engine call — serial, one at a
    # time, on the same input.
    (index,) = traffic.valid(traffic.take(ROUND))[:1]
    http = []
    for _ in range(SERIAL_CALLS):
        t0 = time.perf_counter()
        await client.post(traffic.bodies[index])
        http.append(time.perf_counter() - t0)
    local = build_engine(_spec())
    single = {"x": traffic.inputs[index]}
    local.predict(single)            # records the tape (interpreter)
    local.predict(single)            # first optimized batch-1: probe
    mark = len(tracer.spans)
    server = PumaServer(local, max_batch_size=CONNECTIONS)
    await server.start()
    submits = []
    for _ in range(SERIAL_CALLS):
        t0 = time.perf_counter()
        await server.submit(single)
        submits.append(time.perf_counter() - t0)
    await server.stop()
    if not side:
        run.put("serve.queue_wait_ms",
                median(_queue_waits(tracer.spans[mark:])) * 1e3)
    predicts = []
    for _ in range(SERIAL_CALLS):
        t0 = time.perf_counter()
        local.predict(single)
        predicts.append(time.perf_counter() - t0)
    p_http, p_submit, p_predict = (median(http) * 1e3, median(submits) * 1e3,
                                   median(predicts) * 1e3)
    run.put("fleet.http_b1_p50_ms", p_http)
    run.put("serve.submit_b1_p50_ms", p_submit)
    run.put("engine.predict_b1_p50_ms", p_predict)
    run.put("ladder.serve_increment_ms", p_submit - p_predict)
    run.put("ladder.fleet_increment_ms", p_http - p_submit)
    if not side:
        layer_metrics_from_engine(run, local, tracer)
    artifact = run.work / "artifact"
    t0 = time.perf_counter()
    local.save_artifacts(artifact)
    run.put("store.save_s", time.perf_counter() - t0)
    run.put("store.artifact_bytes", sum(p.stat().st_size
                                        for p in artifact.rglob("*")
                                        if p.is_file()))
    await continuous_layer(run, tracer)
    return local


def _queue_waits(spans) -> list[float]:
    """Serial submits: each waits from ``submit`` to its engine call."""
    submits = sorted(s.start for s in spans if s.name == "serve.submit")
    calls = sorted(s.start for s in spans if s.name == "engine.predict")
    waits, cursor = [], 0
    for submitted in submits:
        while cursor < len(calls) and calls[cursor] < submitted:
            cursor += 1
        if cursor < len(calls):
            waits.append(calls[cursor] - submitted)
            cursor += 1
    return waits


def _check(run: Run, traffic: Traffic, replies: dict, first_index: int,
           local, modelled: bool = True) -> None:
    """Fleet words against a single engine built here, the per-lane
    interpreter and the float reference; stats across paths."""
    from repro.fleet import build_engine
    from repro.workloads.mlp import mlp_reference, mlp_spec

    engine = local if local is not None else build_engine(_spec())
    single = {"x": traffic.inputs[first_index]}
    interpreted = engine.run_sequential(
        {"x": engine.quantize(single["x"][np.newaxis])})
    optimized = engine.predict(single)
    optimized = engine.predict(single)
    check_stats("fleet optimized vs interpreter stats", optimized.stats,
                interpreted.stats)
    if modelled:
        modelled_metrics(run, optimized, engine.compiled, engine.config,
                         mlp_spec(MODEL, DIMS), end_to_end=not run.trace)
    indices = sorted(replies)
    served = np.stack([replies[i] for i in indices])
    xs = np.stack([traffic.inputs[i] for i in indices])
    expected = []
    for lo in range(0, len(indices), REF_CHUNK):
        chunk = xs[lo:lo + REF_CHUNK]
        pad = np.zeros((REF_CHUNK - len(chunk), DIMS[0]))
        expected.append(engine.predict(
            {"x": np.concatenate([chunk, pad])})["out"][:len(chunk)])
    expected = np.concatenate(expected)
    check_bitwise("fleet words vs single engine", served, expected)
    tolerance = fixed_point_tolerance(DIMS[:-1], engine.fmt.frac_bits)
    reference = mlp_reference(DIMS, xs)
    error = check_float("fleet outputs vs float reference",
                        engine.dequantize(served), reference, tolerance)
    rng = np.random.default_rng([run.seed, 2])
    lanes = sorted(rng.choice(len(indices), size=SEQUENTIAL_LANES,
                              replace=False))
    sequential = engine.run_sequential({"x": engine.quantize(xs[lanes])})
    check_bitwise("fleet words vs per-lane interpreter", served[lanes],
                  sequential["out"])
    self_test(lambda w: (
        check_float("fleet self-test", engine.dequantize(w), reference,
                    tolerance),
        check_bitwise("fleet self-test", w, expected)), served)
    run.notes.update(checked_replies=len(indices), max_float_error=error,
                     float_tolerance=tolerance,
                     nonfinite_attempted=sum(
                         traffic.nonfinite[i] for i in range(
                             len(traffic.nonfinite))),
                     sequential_lanes=[int(i) for i in lanes])
