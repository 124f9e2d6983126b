"""``lstm_serve_b64_closed``: the Figure 4 LSTM (26-120-61) unrolled over
16 steps behind ``PumaServer(max_batch_size=64)`` with window batching.

``CLIENTS`` callers in this process each submit a batch-1 request as soon
as their previous one is answered, so the server closes full windows of
64 and every pass is one optimized batch-64 replay.  Host time sits in
``serve.server`` (submit, windowing, the scheduler, result fan-out), the
engine's per-call work and ``sim.tapeopt`` replay of the recurrent plan.

The requests are one seeded pool of ``SEGMENT`` requests, served again in
every segment of the run; every answer must equal the pool's first
answer bitwise.  One request in every round of 200 carries a NaN in one
of its steps.  The correct outcome is a refusal (the interpreter enforces
the fixed-point range); an answer with numbers is counted as a failed
operation: the replay and optimized paths skip that check, so
``quantize(NaN)`` serves a wrong answer today.

The traced run also measures the fleet layers: :func:`fleet.run` serves
the Figure 4 MLP through ``PumaFleet`` as a side phase (``side=True``).
"""

from __future__ import annotations

import bisect
import time

import numpy as np

import fleet
from checks import (CheckFailed, check_bitwise, check_float, check_stats,
                    self_test)
from common import (Run, cpu_s, latency_metrics, layer_metrics_from_engine,
                    median, modelled_metrics, peak_rss_mb)
from loadgen import ROUND, cap_executor_threads, closed_loop, percentile
from lstm import (INPUT, SEQ_LEN, _build_model, _float_reference, _requests,
                  _spec, _tolerance)
from tracing import install_program_spans

MAX_BATCH = 64
CLIENTS = MAX_BATCH
# One segment: whole rounds and whole passes of 64 (8 rounds, 25 passes).
SEGMENT = 8 * ROUND
SEQUENTIAL_LANES = 3
NAMES = [f"x{t}" for t in range(SEQ_LEN)]


class Pool:
    """The seeded requests of one segment, one non-finite per round."""

    def __init__(self, seed: int) -> None:
        rng = np.random.default_rng([seed, 0])
        self.requests = _requests(rng, SEGMENT)
        self.nonfinite = np.zeros(SEGMENT, dtype=bool)
        for first in range(0, SEGMENT, ROUND):
            index = first + int(rng.integers(ROUND))
            name = NAMES[int(rng.integers(SEQ_LEN))]
            step = np.array(self.requests[index][name], copy=True)
            step[int(rng.integers(INPUT))] = np.nan
            self.requests[index] = {**self.requests[index], name: step}
            self.nonfinite[index] = True
        self.valid = np.flatnonzero(~self.nonfinite)


async def setup(first_request: dict):
    """Build and start the server, warm the pass sizes the closed loop
    forms (1 and 64), serve one request.

    Returns ``(engine, server, first, seconds)``.
    """
    from repro import InferenceEngine, PumaServer

    start = time.perf_counter()
    engine = InferenceEngine(_build_model())
    server = PumaServer(engine, max_batch_size=MAX_BATCH)
    await server.start()
    for batch in (1, MAX_BATCH):
        engine.warm(batch=batch)
        engine.predict({name: np.zeros((batch, INPUT)) for name in NAMES})
    first = await server.submit(first_request)
    return engine, server, first, time.perf_counter() - start


async def probe(seed: int, workload: str) -> float:
    cap_executor_threads()
    pool = Pool(seed)
    request = pool.requests[pool.valid[0]]
    engine, server, first, seconds = await setup(request)
    await server.stop()
    check_float("lstm serve set-up result", first.outputs["out"],
                _float_reference(request), _tolerance(engine.fmt))
    return seconds


async def run(run: Run, tracer=None) -> None:
    cap_executor_threads()
    pool = Pool(run.seed)
    first_request = pool.requests[pool.valid[0]]
    engine, server, first, setup_s = await setup(first_request)
    run.put("setup_s", setup_s)
    if tracer is not None:
        tracer.uninstall()
    words: dict[int, np.ndarray] = {}

    async def segments(seconds: float):
        """Serve the pool back to back until ``seconds`` have passed.

        Returns the valid requests' latencies (submit to answer, ms) per
        segment, and each segment's valid answers per second and CPU
        milliseconds per valid answer.
        """
        windows, rates, costs = [], [], []
        start = time.perf_counter()
        while not windows or time.perf_counter() - start < seconds:
            cpu_before = cpu_s()
            load = await closed_loop(
                SEGMENT, CLIENTS,
                lambda i, _c: server.submit(pool.requests[i]))
            costs.append((cpu_s() - cpu_before) * 1e3 / len(pool.valid))
            run.attempted += SEGMENT
            latencies = []
            for outcome in load.outcomes:
                i = outcome.index
                if pool.nonfinite[i]:
                    # Correct: a refusal.  Numbers are a wrong answer.
                    if outcome.ok:
                        run.failed += 1
                    continue
                if not outcome.ok:
                    raise CheckFailed(f"lstm serve request {i} failed: "
                                      f"{outcome.error}")
                out = outcome.value["out"]
                if i in words:
                    check_bitwise(f"lstm serve request {i} repeat", out,
                                  words[i])
                else:
                    words[i] = np.array(out, copy=True)
                latencies.append((outcome.done - outcome.woke) * 1e3)
            windows.append(np.array(latencies))
            rates.append(len(pool.valid) / (load.finished - load.started))
        return windows, rates, costs

    try:
        if tracer is None:
            windows, rates, costs = await segments(run.seconds)
            latency_metrics(run, windows)
            run.put("cpu_ms_per_inf", median(costs))
            run.notes.update(throughput_inf_s=median(rates),
                             segment_rates=rates, segment_cpu_ms=costs)
            run.put("peak_rss_mb", peak_rss_mb())
        else:
            untraced, _rates, _costs = await segments(run.seconds / 2)
            await _traced_layers(run, tracer, engine, server,
                                 np.concatenate(untraced),
                                 lambda: segments(run.seconds / 2))
    finally:
        await server.stop()
    run.notes["server"] = {k: v for k, v in server.stats().items()
                           if isinstance(v, (int, float))}
    _check(run, engine, pool, first, words)
    if tracer is not None:
        # The fleet layers, from a side phase of the Figure 4 MLP.
        await fleet.run(run, tracer, side=True)


async def _traced_layers(run, tracer, engine, server, untraced,
                         segments) -> None:
    before = server.stats()
    install_program_spans(tracer)
    mark = len(tracer.spans)
    traced, _rates, _costs = await segments()
    after = server.stats()
    spans = tracer.spans[mark:]
    untraced_p50 = percentile(untraced, 50)
    traced_p50 = percentile(np.concatenate(traced), 50)
    run.put("trace.untraced_p50_ms", untraced_p50)
    run.put("trace.traced_p50_ms", traced_p50)
    run.put("trace.overhead_ms", traced_p50 - untraced_p50)
    run.put("serve.queue_wait_ms", median(queue_waits(spans)) * 1e3)
    batches = after["batches_formed"] - before["batches_formed"]
    lanes = after["lanes_simulated"] - before["lanes_simulated"]
    run.put("serve.batches_formed", batches)
    run.put("serve.mean_batch_size", lanes / batches if batches else 0)
    run.put("serve.early_closes", after["scheduler"]["early_closes"]
            - before["scheduler"]["early_closes"])
    run.put("serve.scheduler.shed", after["scheduler"]["shed"]
            - before["scheduler"]["shed"])
    layer_metrics_from_engine(run, engine, tracer)
    tracer.uninstall()


def queue_waits(spans) -> list[float]:
    """Each submit's wait until the next engine pass starts."""
    passes = sorted(s.start for s in spans if s.name == "engine.predict")
    waits = []
    for span in spans:
        if span.name == "serve.submit":
            k = bisect.bisect_left(passes, span.start)
            if k < len(passes):
                waits.append(passes[k] - span.start)
    return waits


def _check(run: Run, engine, pool: Pool, first, words: dict) -> None:
    """Served words against an independently built engine, the
    interpreter per lane and the float reference; stats across paths."""
    from repro import InferenceEngine
    from repro.workloads.lstm import lstm_spec

    # A fresh model object misses the compile cache: its own compile,
    # programming, tape and plan.
    reference = InferenceEngine(_build_model())
    request = pool.requests[pool.valid[0]]
    one = reference.predict({n: request[n][np.newaxis] for n in NAMES})
    check_stats("lstm serve served vs interpreter stats", first.stats,
                one.stats)
    indices = [int(i) for i in pool.valid]
    missing = [i for i in indices if i not in words]
    if missing:
        raise CheckFailed(f"lstm serve: {len(missing)} requests unanswered")
    served = np.stack([words[i] for i in indices])
    expected, result = [], None
    for lo in range(0, len(indices), MAX_BATCH):
        chunk = indices[lo:lo + MAX_BATCH]
        pad = MAX_BATCH - len(chunk)
        batch = {n: np.stack([pool.requests[i][n] for i in chunk]
                             + [np.zeros(INPUT)] * pad) for n in NAMES}
        done = reference.predict(batch)
        if result is None:
            result = done
        expected.append(done["out"][:len(chunk)])
    expected = np.concatenate(expected)
    check_bitwise("lstm serve words vs single engine", served, expected)
    modelled_metrics(run, result, reference.compiled, reference.config,
                     _spec(lstm_spec), end_to_end=not run.trace)
    tolerance = _tolerance(engine.fmt)
    reference_out = np.stack([_float_reference(pool.requests[i])
                              for i in indices])
    error = check_float("lstm serve outputs vs float reference",
                        engine.dequantize(served), reference_out, tolerance)
    rng = np.random.default_rng([run.seed, 2])
    lanes = sorted(rng.choice(len(indices), size=SEQUENTIAL_LANES,
                              replace=False))
    sequential = engine.run_sequential({
        n: engine.quantize(np.stack([pool.requests[indices[k]][n]
                                     for k in lanes])) for n in NAMES})
    check_bitwise("lstm serve words vs per-lane interpreter", served[lanes],
                  sequential["out"])
    self_test(lambda w: (
        check_float("lstm serve self-test", engine.dequantize(w),
                    reference_out, tolerance),
        check_bitwise("lstm serve self-test", w, expected)), served)
    run.notes.update(checked_replies=len(indices), max_float_error=error,
                     float_tolerance=tolerance,
                     nonfinite_per_segment=int(pool.nonfinite.sum()),
                     sequential_lanes=[int(k) for k in lanes])
