"""``mlpl4_offline_b64``: Table 5 MLPL4 (5M synapses), offline, batch 64.

``InferenceEngine.predict`` is called in a closed loop on batches of 64.
Steady-state host time sits in optimized plan replay (``sim.tapeopt``);
set-up covers compile, crossbar programming, the recording interpreter
pass, the dependence-graph check, optimization and the bitwise probe.
"""

from __future__ import annotations

import time

import numpy as np

from checks import (check_bitwise, check_float, check_stats,
                    fixed_point_tolerance, self_test)
from common import (Run, cpu_s, latency_metrics, layer_metrics_from_engine,
                    median, modelled_metrics, peak_rss_mb)
from loadgen import percentile
from tracing import install_program_spans

BATCH = 64
# Distinct input batches cycled through by the closed loop.
POOL = 4
# Lanes re-run one at a time through the interpreter as a cross-check.
SEQUENTIAL_LANES = 2
# Batch-1 calls timed in the traced run (after one warm-up call).
B1_CALLS = 40


def _inputs(seed: int) -> np.ndarray:
    from repro.workloads.mlp import MLPL4_DIMS

    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(POOL, BATCH, MLPL4_DIMS[0]))


def setup(seed: int):
    """Build, record, optimize and probe; return the first result.

    Returns ``(engine, recorded, first, seconds)``: the interpreter's
    recording pass and the first optimized (probed) result on batch 0.
    """
    from repro import InferenceEngine
    from repro.workloads.mlp import MLPL4_DIMS, build_mlp_model

    xs = _inputs(seed)
    start = time.perf_counter()
    engine = InferenceEngine(build_mlp_model(MLPL4_DIMS, name="mlpl4"))
    recorded = engine.predict({"x": xs[0]})
    first = engine.predict({"x": xs[0]})
    return engine, recorded, first, time.perf_counter() - start


def _reference(xs: np.ndarray):
    from repro.workloads.mlp import MLPL4_DIMS, mlp_reference

    return [mlp_reference(MLPL4_DIMS, batch) for batch in xs]


def _tolerance(engine) -> float:
    from repro.workloads.mlp import MLPL4_DIMS

    return fixed_point_tolerance(MLPL4_DIMS[:-1], engine.fmt.frac_bits)


def probe(seed: int, workload: str) -> float:
    engine, _recorded, first, seconds = setup(seed)
    check_float("mlpl4 set-up result", first.outputs["out"],
                _reference(_inputs(seed)[:1])[0], _tolerance(engine))
    return seconds


def _closed_loop(engine, xs, seconds: float):
    """Predict batches back to back for ``seconds``; per-call records."""
    latencies, words = [], {}
    start = time.perf_counter()
    calls = 0
    while True:
        index = calls % POOL
        t0 = time.perf_counter()
        result = engine.predict({"x": xs[index]})
        latencies.append(time.perf_counter() - t0)
        calls += 1
        # Every repeat of an input batch must give the same words.
        if index in words:
            check_bitwise(f"mlpl4 call {calls} repeat of batch {index}",
                          result["out"], words[index])
        else:
            words[index] = np.array(result["out"], copy=True)
        if time.perf_counter() - start >= seconds and calls >= POOL:
            break
    return latencies, words, time.perf_counter() - start


def run(run: Run, tracer=None) -> None:
    from repro.workloads.mlp import MLPL4_DIMS, mlp_spec

    engine, recorded, first, setup_s = setup(run.seed)
    xs = _inputs(run.seed)
    run.put("setup_s", setup_s)
    reference = _reference(xs)
    tolerance = _tolerance(engine)

    def check_batch(index: int, words: np.ndarray) -> float:
        return check_float(f"mlpl4 batch {index}",
                           engine.dequantize(words), reference[index],
                           tolerance)

    # The interpreter's recording pass and the optimized replay must agree
    # on words and on every modelled statistic.
    check_bitwise("mlpl4 optimized vs interpreter", first["out"],
                  recorded["out"])
    check_stats("mlpl4 optimized vs interpreter stats", first.stats,
                recorded.stats)
    if tracer is not None:
        tracer.uninstall()       # the first loop runs untraced
    cpu_before = cpu_s()
    latencies, words, elapsed = _closed_loop(engine, xs, run.seconds)
    cpu_used = cpu_s() - cpu_before
    calls = len(latencies)
    run.attempted = calls
    if tracer is None:
        run.put("cpu_ms_per_inf", cpu_used * 1e3 / (calls * BATCH))
        run.notes["throughput_inf_s"] = calls * BATCH / elapsed
        latency_metrics(run, [np.array(latencies) * 1e3])
        run.put("peak_rss_mb", peak_rss_mb())
        modelled_metrics(run, first, engine.compiled, engine.config,
                         mlp_spec("MLPL4", MLPL4_DIMS), end_to_end=True)
    else:
        untraced_p50 = percentile(np.array(latencies) * 1e3, 50)
        install_program_spans(tracer)
        traced, _w, _e = _closed_loop(engine, xs, run.seconds)
        traced_p50 = percentile(np.array(traced) * 1e3, 50)
        run.put("trace.untraced_p50_ms", untraced_p50)
        run.put("trace.traced_p50_ms", traced_p50)
        run.put("trace.overhead_ms", traced_p50 - untraced_p50)
        single = {"x": xs[0][0]}
        engine.predict(single)          # first batch-1 use: probe + stats
        b1 = []
        for _ in range(B1_CALLS):
            t0 = time.perf_counter()
            engine.predict(single)
            b1.append(time.perf_counter() - t0)
        run.put("engine.predict_b1_p50_ms", median(b1) * 1e3)
        layer_metrics_from_engine(run, engine, tracer)
        modelled_metrics(run, first, engine.compiled, engine.config,
                         mlp_spec("MLPL4", MLPL4_DIMS), end_to_end=False)

    errors = [check_batch(i, w) for i, w in sorted(words.items())]
    run.notes["max_float_error"] = max(errors)
    run.notes["float_tolerance"] = tolerance
    rng = np.random.default_rng(run.seed + 1)
    lanes = sorted(rng.choice(BATCH, size=SEQUENTIAL_LANES, replace=False))
    sequential = engine.run_sequential({"x": engine.quantize(xs[0][lanes])})
    check_bitwise("mlpl4 batched vs per-lane interpreter",
                  words[0][lanes], sequential["out"])
    self_test(lambda w: (check_batch(0, w),
                         check_bitwise("mlpl4 repeat", w, words[0])),
              words[0])
    slowest = np.argsort(latencies)[::-1][:5]
    run.notes.update(calls=calls, elapsed_s=elapsed,
                     slowest_calls=[(int(i), latencies[i] * 1e3)
                                    for i in slowest],
                     sequential_lanes=[int(i) for i in lanes])
