"""Metric names, the per-run record, and measurements every workload shares."""

from __future__ import annotations

import os
import platform
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np

from loadgen import percentile

END_TO_END = {
    "setup_s": "s",
    "cpu_ms_per_inf": "ms",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "puma_cycles_per_inf": "cycles",
    "puma_energy_nj_per_inf": "nJ",
}

ENERGY_PARTS = ("mvm", "vfu", "sfu", "register_file", "rom",
                "shared_memory", "network", "fetch_decode")

# Every traced run reports all of these; a layer a workload does not
# reach reads 0 there (see README.md for which workload moves which).
PER_LAYER = {
    "compiler.compile_s": "s",
    "compiler.static_instructions": "count",
    "compiler.cores_used": "count",
    "arch.program_crossbars_s": "s",
    "sim.interpret_s": "s",
    "sim.interpret_instr_per_s": "1/s",
    "analysis.validate_tape_s": "s",
    "tapeopt.optimize_s": "s",
    "tapeopt.source_steps": "count",
    "tapeopt.plan_ops": "count",
    "tapeopt.mvm_groups": "count",
    "tapeopt.mvms_batched": "count",
    "tapeopt.fused_steps": "count",
    "tapeopt.stores_eliminated": "count",
    "tapeopt.loads_forwarded": "count",
    "tape.replay_ms": "ms",
    "tape.probe_s": "s",
    "tape.derive_stats_s": "s",
    "engine.call_overhead_ms": "ms",
    "engine.predict_b1_p50_ms": "ms",
    "engine.optimized_per_replay": "ratio",
    "engine.replays": "count",
    "engine.fallbacks": "count",
    "serve.submit_b1_p50_ms": "ms",
    "serve.queue_wait_ms": "ms",
    "serve.mean_batch_size": "lanes",
    "serve.batches_formed": "count",
    "serve.early_closes": "count",
    "serve.scheduler.shed": "count",
    "serve.continuous.tick_ms": "ms",
    "serve.continuous.tick_ms_per_cohort": "ms",
    "serve.continuous.cohorts": "count",
    "serve.continuous.refills": "count",
    "serve.continuous.lane_occupancy": "ratio",
    "serve.continuous.lane_steps_available": "count",
    "store.save_s": "s",
    "store.artifact_bytes": "B",
    "fleet.http_b1_p50_ms": "ms",
    "fleet.worker_spawn_s": "s",
    "fleet.first_reply_s": "s",
    "fleet.retries": "count",
    "fleet.rejections": "count",
    "fleet.breaker_opens": "count",
    "ladder.serve_increment_ms": "ms",
    "ladder.fleet_increment_ms": "ms",
    **{f"puma.energy.{part}_nj_per_inf": "nJ" for part in ENERGY_PARTS},
    "puma.mvmu_utilization": "ratio",
    "puma.stall_events_per_inf": "count",
    "puma.noc_flit_hops_per_inf": "count",
    "perf.sim_vs_analytic_cycles": "ratio",
    "perf.sim_vs_analytic_energy": "ratio",
    "loadgen.lateness_p50_ms": "ms",
    "loadgen.lateness_p99_ms": "ms",
    "trace.untraced_p50_ms": "ms",
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


class Run:
    """What one benchmark run measured, counted and checked."""

    def __init__(self, workload: str, seed: int, seconds: float,
                 trace: bool, root: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = root / "perfbench" / ".work" / f"run-{os.getpid()}"
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: dict = {}

    def put(self, name: str, value: float) -> None:
        if name not in END_TO_END and name not in PER_LAYER:
            raise KeyError(f"unknown metric {name}")
        self.metrics[name] = float(value)

    def result(self, correct: bool) -> dict:
        names = PER_LAYER if self.trace else END_TO_END
        missing = [n for n in END_TO_END if n not in self.metrics]
        if not self.trace and missing:
            raise RuntimeError(f"end-to-end metrics not measured: {missing}")
        return {
            "correct": correct,
            "attempted": int(self.attempted),
            "failed": int(self.failed),
            "metrics": {name: {"value": self.metrics.get(name, 0.0),
                               "unit": unit}
                        for name, unit in names.items()},
        }


def median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


def cpu_s(extra_pids=()) -> float:
    """CPU seconds used so far by this process (every thread) plus
    ``extra_pids``.

    Time the hypervisor stole from the VM is not charged to a process, so
    on a shared host this moves far less between runs than wall time.
    """
    usage = resource.getrusage(resource.RUSAGE_SELF)
    total = usage.ru_utime + usage.ru_stime
    for pid in extra_pids:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
        total += (int(fields[11]) + int(fields[12])) / os.sysconf(
            "SC_CLK_TCK")
    return total


def peak_rss_mb(extra_pids=()) -> float:
    """Peak resident memory of this process plus ``extra_pids`` (MB)."""
    total_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for pid in extra_pids:
        total_kb += _vm_hwm_kb(pid)
    return total_kb / 1024.0


def _vm_hwm_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmHWM for pid {pid}")


def cpu_steal_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks since boot, from ``/proc/stat``.

    Steal is time the hypervisor ran something else on this VM's CPUs;
    it slows host timings without any change to the program.
    """
    with open("/proc/stat", encoding="ascii") as stat:
        fields = [int(v) for v in stat.readline().split()[1:]]
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fingerprint(root: Path) -> dict:
    """Host and software identity recorded with every run."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    blas = {}
    try:
        config = numpy.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {"name": info.get("name"), "version": info.get("version")}
    except (TypeError, KeyError):
        pass
    threads = {var: os.environ[var] for var in
               ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
               if var in os.environ}
    return {
        "cpus": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": blas,
        "blas_threads": threads,
        "git_sha": sha or "unknown (not a git checkout)",
    }


def layer_metrics_from_engine(run: Run, engine, tracer) -> None:
    """Compiler, interpreter, analysis, optimizer and engine counters."""
    from repro.engine import tape_cache_info
    from repro.sim.tapeopt import OptimizedTape

    def first(name: str) -> float:
        spans = tracer.durations(name)
        return spans[0] if spans else 0.0

    program = engine.program
    run.put("compiler.compile_s", first("compiler.compile_model"))
    run.put("compiler.static_instructions", program.total_instructions())
    run.put("compiler.cores_used", engine.compiled.num_cores_used)
    run.put("arch.program_crossbars_s", first("arch.program_crossbars"))
    interpret_s = first("sim.interpret")
    run.put("sim.interpret_s", interpret_s)
    tape = engine.compiled.execution_tapes.get(engine._fingerprint)
    if tape is not None and interpret_s > 0:
        run.put("sim.interpret_instr_per_s",
                tape.instruction_count / interpret_s)
    run.put("analysis.validate_tape_s", first("analysis.validate_tape"))
    run.put("tapeopt.optimize_s", first("tapeopt.optimize_tape"))
    if tape is not None and isinstance(tape.optimized, OptimizedTape):
        report = tape.optimized.report
        for field in ("source_steps", "plan_ops", "mvm_groups",
                      "mvms_batched", "fused_steps", "stores_eliminated",
                      "loads_forwarded"):
            run.put(f"tapeopt.{field}", getattr(report, field))
    replays = tracer.durations("tape.replay_optimized")
    if replays:
        run.put("tape.replay_ms", median(replays) * 1e3)
    run.put("tape.probe_s", sum(tracer.durations("tape.probe")))
    run.put("tape.derive_stats_s", sum(tracer.durations("tape.derive_stats")))
    overhead = tracer.self_times("engine.run_batch")
    if overhead:
        run.put("engine.call_overhead_ms", median(overhead) * 1e3)
    info = tape_cache_info()
    run.put("engine.replays", info.replays)
    run.put("engine.optimized_per_replay",
            info.optimized / info.replays if info.replays else 0.0)
    run.put("engine.fallbacks", info.fallbacks + info.optimizer_fallbacks)


def modelled_metrics(run: Run, result, compiled, config, spec,
                     end_to_end: bool) -> None:
    """PUMA cycles and energy from a ``RunResult``'s stats.

    ``spec`` is the layer spec the analytic ``estimate_puma`` model
    prices, for the simulated-versus-analytic ratios.
    """
    from repro.energy.components import MW, mvmu_power_mw
    from repro.perf.pipeline_model import estimate_puma

    stats = result.stats
    batch = result.batch
    if end_to_end:
        run.put("puma_cycles_per_inf", result.cycles_per_inference)
        run.put("puma_energy_nj_per_inf",
                result.energy_per_inference_j * 1e9)
        return
    parts = stats.energy.as_dict()
    for part in ENERGY_PARTS:
        run.put(f"puma.energy.{part}_nj_per_inf",
                parts[part] / batch * 1e9)
    core = config.core
    # MVM energy is MVMU power times MVMU-busy time (energy/model.py).
    mvmu_busy_s = stats.energy.mvm / (
        mvmu_power_mw(core.mvmu_dim, core.bits_per_cell) * MW)
    run.put("puma.mvmu_utilization",
            mvmu_busy_s / (stats.time_s * compiled.num_mvmus_used))
    run.put("puma.stall_events_per_inf",
            sum(stats.stall_events.values()) / batch)
    run.put("puma.noc_flit_hops_per_inf", stats.noc_flit_hops / batch)
    estimate = estimate_puma(spec, config, batch=batch)
    run.put("perf.sim_vs_analytic_cycles",
            stats.time_s / estimate.latency_s)
    run.put("perf.sim_vs_analytic_energy",
            stats.total_energy_j / estimate.energy_j)


def latency_metrics(run: Run, windows) -> None:
    """p50 over every latency of the run, consecutive ``windows`` of it.

    The tail goes to the report only: p99 follows how much CPU the
    shared host stole during a run, not the program (README.md), so it
    cannot hold a bound.  The whole-run p99 and the p99 of each window
    are kept there.
    """
    windows = [np.asarray(w, dtype=np.float64) for w in windows]
    latencies = np.concatenate(windows)
    run.put("latency_p50_ms", percentile(latencies, 50))
    run.notes["latency_p99_ms"] = percentile(latencies, 99)
    run.notes["latency_p99_windows_ms"] = [percentile(w, 99)
                                           for w in windows]
