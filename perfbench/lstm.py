"""``lstm_continuous_open``: the Figure 4 LSTM (26-120-61) unrolled over
16 steps behind ``PumaServer(continuous=True, max_batch_size=8)``.

Requests arrive open-loop on a seeded Poisson schedule from one asyncio
loop in this process.  Host time sits in ``serve.continuous``: lane-sliced
binders and scheduler refills, which never run optimized plans.

A reference workload, not one of ``BENCHMARK.json``'s: its figures spread
beyond any allowed bound on a small shared host (README.md).  The fleet
workload's traced run measures the continuous layer through
:func:`continuous_layer`.  ``lstm_windowed_open`` serves the same model
and schedules with windowed batching, for comparison.
"""

from __future__ import annotations

import time

import numpy as np

from checks import (CheckFailed, check_bitwise, check_float, check_stats,
                    fixed_point_tolerance, self_test)
from common import (Run, cpu_s, latency_metrics, layer_metrics_from_engine,
                    median, modelled_metrics, peak_rss_mb)
from loadgen import (ROUND, cap_executor_threads, capacity_search,
                     closed_loop, open_loop, percentile, poisson_offsets,
                     rounded, score_ms)
from tracing import install_program_spans

INPUT, HIDDEN, OUTPUT, SEQ_LEN = 26, 120, 61, 16
MAX_BATCH = 8
# Fixed for every run, never re-derived: the latency limit on p99 and the
# offered rate the latency metrics are taken at (below today's capacity).
LATENCY_LIMIT_MS = 250.0
FIXED_RATE = 20.0
MIN_REQUESTS = 1000          # so that ten requests lie beyond p99
# Capacity search: TRIAL requests at each offered rate
# CAPACITY_START * STEP**k.  Every rung is a trial of the same length, so
# the long fixed-rate phase is not one of them.
CAPACITY_START = 50.0
STEP = 1.25
TRIAL = ROUND
# The fixed-rate phase runs in chunks; after each, a burst of BURST
# requests queued at once measures the drain rate.
CHUNK = ROUND
BURST = ROUND
SEQUENTIAL_LANES = 3
REF_CHUNK = 64
SERIAL_CALLS = 40


def _requests(rng: np.random.Generator, count: int) -> list[dict]:
    xs = rng.uniform(-1.0, 1.0, size=(count, SEQ_LEN, INPUT))
    return [{f"x{t}": xs[i, t] for t in range(SEQ_LEN)} for i in range(count)]


def _build_model():
    from repro.workloads.lstm import build_lstm_model

    return build_lstm_model(INPUT, HIDDEN, OUTPUT, seq_len=SEQ_LEN,
                            name="lstm")


async def setup(first_request: dict, continuous: bool):
    """Build and start the server, derive stats for every cohort size,
    serve one request.  Returns ``(engine, server, first, seconds)``."""
    from repro import InferenceEngine, PumaServer

    start = time.perf_counter()
    engine = InferenceEngine(_build_model())
    server = PumaServer(engine, continuous=continuous,
                        max_batch_size=MAX_BATCH)
    await server.start()
    for batch in range(1, MAX_BATCH + 1):
        engine.warm(batch=batch)
    if not continuous:
        # Windowed passes also probe the optimized plan per batch size.
        for batch in range(1, MAX_BATCH + 1):
            engine.predict({name: np.zeros((batch, INPUT))
                            for name in first_request})
    first = await server.submit(first_request)
    return engine, server, first, time.perf_counter() - start


def _tolerance(fmt) -> float:
    return fixed_point_tolerance(
        [INPUT + HIDDEN] * SEQ_LEN + [HIDDEN], fmt.frac_bits)


def _float_reference(request: dict) -> np.ndarray:
    from repro.workloads.lstm import lstm_reference

    return lstm_reference(INPUT, HIDDEN, OUTPUT,
                          [request[f"x{t}"] for t in range(SEQ_LEN)])


async def probe(seed: int, workload: str) -> float:
    cap_executor_threads()
    request = _requests(np.random.default_rng([seed, 0]), 1)[0]
    engine, server, first, seconds = await setup(
        request, workload != "lstm_windowed_open")
    await server.stop()
    check_float("lstm set-up result", first.outputs["out"],
                _float_reference(request), _tolerance(engine.fmt))
    return seconds


async def run(run: Run, tracer=None) -> None:
    from repro.workloads.lstm import lstm_spec

    continuous = run.workload != "lstm_windowed_open"
    cap_executor_threads()
    rng_x = np.random.default_rng([run.seed, 0])
    rng_t = np.random.default_rng([run.seed, 1])
    served: list[tuple[dict, np.ndarray]] = []
    first_request = _requests(rng_x, 1)[0]
    engine, server, first, setup_s = await setup(first_request, continuous)
    run.put("setup_s", setup_s)
    served.append((first_request, np.array(first["out"], copy=True)))
    if tracer is not None:
        tracer.uninstall()

    async def serve(count: int, offsets=None):
        """Serve ``count`` new requests: open loop on ``offsets``, or all
        queued at once; every one must succeed."""
        requests = _requests(rng_x, count)
        if offsets is None:
            load = await closed_loop(count, count,
                                     lambda i, _c: server.submit(requests[i]))
        else:
            load = await open_loop(offsets,
                                   lambda i: server.submit(requests[i]))
        run.attempted += count
        for outcome in load.outcomes:
            if not outcome.ok:
                run.failed += 1
                raise CheckFailed(f"lstm request {outcome.index} failed: "
                                  f"{outcome.error}")
            served.append((requests[outcome.index],
                           np.array(outcome.value["out"], copy=True)))
        return load

    async def serve_open(rate: float, count: int):
        return await serve(count, poisson_offsets(rng_t, rate, count))

    async def fixed_phase(bursts: bool):
        """The fixed offered rate in chunks; with ``bursts`` each chunk is
        followed by a burst queued at once, so that both figures sample
        the whole run.  Returns latencies (one array per chunk), lateness
        and burst rates."""
        count = rounded(max(MIN_REQUESTS, int(FIXED_RATE * run.seconds)))
        latencies, lateness, rates = [], [], []
        for _ in range(count // CHUNK):
            load = await serve_open(FIXED_RATE, CHUNK)
            latencies.append(load.latencies_ms())
            lateness.append(load.lateness_ms())
            if bursts:
                burst = await serve(BURST)
                rates.append(BURST / (burst.finished - burst.started))
        return latencies, np.concatenate(lateness), rates

    if tracer is None:
        cpu_before, served_before = cpu_s(), run.attempted
        latencies, _lateness, rates = await fixed_phase(bursts=True)
        run.put("cpu_ms_per_inf", (cpu_s() - cpu_before) * 1e3
                / (run.attempted - served_before))
        latency_metrics(run, latencies)
        run.notes["throughput_inf_s"] = median(rates)

        async def trial(rate: float) -> float:
            load = await serve_open(rate, TRIAL)
            return score_ms(load, load.latencies_ms())

        rps, rungs = await capacity_search(
            trial, CAPACITY_START, await trial(CAPACITY_START), STEP,
            LATENCY_LIMIT_MS)
        run.notes.update(capacity_rps=rps, capacity_rungs=rungs,
                         burst_rates=rates)
        run.put("peak_rss_mb", peak_rss_mb())
        modelled_metrics(run, first, engine.compiled, engine.config,
                         _spec(lstm_spec), end_to_end=True)
    else:
        latencies, _lateness, _rates = await fixed_phase(False)
        await _traced_layers(run, tracer, engine, server,
                             np.concatenate(latencies),
                             fixed_phase, rng_x)
        modelled_metrics(run, first, engine.compiled, engine.config,
                         _spec(lstm_spec), end_to_end=False)
    await server.stop()
    _check(run, engine, first, served)


def _spec(lstm_spec):
    return lstm_spec("lstm", "DeepLSTM", 1, INPUT, HIDDEN, vocab=OUTPUT,
                     seq_len=SEQ_LEN)


async def _traced_layers(run, tracer, engine, server, untraced, fixed_phase,
                         rng_x) -> None:
    untraced_p50 = percentile(untraced, 50)
    before = dict(server.stats())
    refills_before = server.scheduler.counters.refills
    install_program_spans(tracer)
    mark = len(tracer.spans)
    traced, lateness, _rates = await fixed_phase(False)
    traced = np.concatenate(traced)
    after = server.stats()
    traced_p50 = percentile(traced, 50)
    run.put("trace.untraced_p50_ms", untraced_p50)
    run.put("trace.traced_p50_ms", traced_p50)
    run.put("trace.overhead_ms", traced_p50 - untraced_p50)
    run.put("loadgen.lateness_p50_ms", percentile(lateness, 50))
    run.put("loadgen.lateness_p99_ms", percentile(lateness, 99))
    spans = tracer.spans[mark:]
    run.put("serve.queue_wait_ms", median(_queue_waits(spans)) * 1e3)
    continuous_metrics(run, spans,
                       server.scheduler.counters.refills - refills_before)
    batches = after["batches_formed"] - before["batches_formed"]
    lanes_sim = after["lanes_simulated"] - before["lanes_simulated"]
    run.put("serve.batches_formed", batches)
    run.put("serve.mean_batch_size", lanes_sim / batches if batches else 0)
    run.put("serve.early_closes", after["scheduler"]["early_closes"]
            - before["scheduler"]["early_closes"])
    run.put("serve.scheduler.shed", after["scheduler"]["shed"]
            - before["scheduler"]["shed"])
    single = _requests(rng_x, 1)[0]
    submits = []
    for _ in range(SERIAL_CALLS):
        t0 = time.perf_counter()
        await server.submit(single)
        submits.append(time.perf_counter() - t0)
    run.put("serve.submit_b1_p50_ms", median(submits) * 1e3)
    stacked = {name: value[np.newaxis, :] for name, value in single.items()}
    engine.predict(stacked)            # first batch-1 predict: probe
    predicts = []
    for _ in range(SERIAL_CALLS):
        t0 = time.perf_counter()
        engine.predict(stacked)
        predicts.append(time.perf_counter() - t0)
    run.put("engine.predict_b1_p50_ms", median(predicts) * 1e3)
    run.put("ladder.serve_increment_ms",
            (median(submits) - median(predicts)) * 1e3)
    layer_metrics_from_engine(run, engine, tracer)


def continuous_metrics(run: Run, spans, refills: int) -> None:
    """``serve.continuous.*`` from the tick and cohort spans of a phase."""
    ticks = [s for s in spans if s.name == "serve.continuous.tick"]
    if ticks:
        run.put("serve.continuous.tick_ms",
                median([s.end - s.start for s in ticks]) * 1e3)
        run.put("serve.continuous.tick_ms_per_cohort",
                median([(s.end - s.start) / len(s.request_id)
                        for s in ticks if s.request_id]) * 1e3)
        lanes = sum(len(ids) for s in ticks for ids in s.request_id)
        available = len(ticks) * MAX_BATCH
        run.put("serve.continuous.lane_occupancy", lanes / available)
        run.put("serve.continuous.lane_steps_available", available)
    run.put("serve.continuous.cohorts",
            sum(1 for s in spans if s.name == "serve.continuous.cohort"))
    run.put("serve.continuous.refills", refills)


async def continuous_layer(run: Run, tracer) -> None:
    """Measure the continuous-batching layer from another workload's
    traced run: the LSTM behind ``PumaServer(continuous=True)`` serves one
    chunk at the fixed rate, traced, and every answer is checked."""
    rng_x = np.random.default_rng([run.seed, 3])
    rng_t = np.random.default_rng([run.seed, 4])
    first_request = _requests(rng_x, 1)[0]
    engine, server, first, _seconds = await setup(first_request, True)
    requests = _requests(rng_x, CHUNK)
    refills_before = server.scheduler.counters.refills
    mark = len(tracer.spans)
    load = await open_loop(poisson_offsets(rng_t, FIXED_RATE, CHUNK),
                           lambda i: server.submit(requests[i]))
    continuous_metrics(run, tracer.spans[mark:],
                       server.scheduler.counters.refills - refills_before)
    await server.stop()
    served = [(first_request, np.array(first["out"], copy=True))]
    for outcome in load.outcomes:
        if not outcome.ok:
            raise CheckFailed(f"lstm request {outcome.index} failed: "
                              f"{outcome.error}")
        served.append((requests[outcome.index],
                       np.array(outcome.value["out"], copy=True)))
    _check(run, engine, first, served)


def _queue_waits(spans) -> list[float]:
    """Submit-to-cohort-start wait of each request, matched by id."""
    waiting: dict[int, float] = {}
    waits = []
    for span in sorted(spans, key=lambda s: s.start):
        if span.name == "serve.submit":
            waiting[span.request_id] = span.start
        elif span.name == "serve.continuous.cohort":
            for rid in span.request_id:
                if rid in waiting:
                    waits.append(span.start - waiting.pop(rid))
    return waits


def _check(run: Run, engine, first, served) -> None:
    """Served words against an independent engine, the interpreter per
    lane and the float reference; stats across execution paths."""
    from repro import InferenceEngine

    # A fresh model object misses the compile cache: its own compile,
    # programming, tape and plan.
    reference = InferenceEngine(_build_model())
    names = [f"x{t}" for t in range(SEQ_LEN)]
    one = reference.predict({n: served[0][0][n][np.newaxis] for n in names})
    check_stats("lstm continuous vs interpreter stats", first.stats,
                one.stats)
    check_bitwise("lstm first request vs single engine", served[0][1],
                  one["out"])
    expected = []
    for lo in range(0, len(served), REF_CHUNK):
        chunk = served[lo:lo + REF_CHUNK]
        pad = REF_CHUNK - len(chunk)
        batch = {n: np.stack([req[n] for req, _ in chunk]
                             + [np.zeros(INPUT)] * pad) for n in names}
        expected.extend(reference.predict(batch)["out"][:len(chunk)])
    for index, ((_req, words), want) in enumerate(zip(served, expected)):
        check_bitwise(f"lstm request {index} served vs single engine",
                      words, want)
    tolerance = _tolerance(engine.fmt)
    errors = [check_float(f"lstm request {i}", engine.dequantize(words),
                          _float_reference(req), tolerance)
              for i, (req, words) in enumerate(served)]
    rng = np.random.default_rng([run.seed, 2])
    lanes = sorted(rng.choice(len(served), size=SEQUENTIAL_LANES,
                              replace=False))
    sequential = engine.run_sequential({
        n: engine.quantize(np.stack([served[i][0][n] for i in lanes]))
        for n in names})
    check_bitwise("lstm served vs per-lane interpreter",
                  np.stack([served[i][1] for i in lanes]),
                  sequential["out"])
    request0, words0 = served[0]
    self_test(lambda w: (
        check_float("lstm self-test", engine.dequantize(w),
                    _float_reference(request0), tolerance),
        check_bitwise("lstm self-test", w, expected[0])), words0)
    run.notes["lstm_checks"] = dict(
        checked_requests=len(served), max_float_error=max(errors),
        float_tolerance=tolerance, sequential_lanes=[int(i) for i in lanes])
