#!/usr/bin/env python3
"""Benchmark of the PUMA reproduction: host and modelled performance.

Run from the repository root::

    python3 perfbench/run.py --workload mlpl4_offline_b64 --seed 1 \\
        --seconds 30 --trace 0

One workload per process.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``).  A fuller report of each run —
host fingerprint, check details, spans — goes to ``perfbench/.out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("mlpl4_offline_b64", "lstm_serve_b64_closed")
# Runnable for reference figures, not part of BENCHMARK.json: too noisy on
# small shared hosts to gate on (see README.md).
REFERENCE_WORKLOADS = ("fleet_mlp_b1_open", "lstm_continuous_open",
                       "lstm_windowed_open")
# Fresh set-ups per run whose median is reported: short set-ups are
# repeated so that one slow process start cannot decide the figure.
SETUP_REPEATS = {"mlpl4_offline_b64": 3, "lstm_serve_b64_closed": 5,
                 "lstm_continuous_open": 3, "fleet_mlp_b1_open": 5}
PROBE_TIMEOUT_S = 120
# The simulator's matmuls are small; extra BLAS threads only contend with
# the serving loop's thread and the fleet's second process on small hosts.
# Set before numpy loads; spawned workers and set-up probes inherit it.
BLAS_THREADS = "1"


def _module(workload: str):
    if workload == "mlpl4_offline_b64":
        import mlpl4
        return mlpl4
    if workload == "lstm_serve_b64_closed":
        import serve_lstm
        return serve_lstm
    if workload == "fleet_mlp_b1_open":
        import fleet
        return fleet
    import lstm
    return lstm


def _call(value):
    return asyncio.run(value) if asyncio.iscoroutine(value) else value


def _setup_probes(args, count: int) -> list[float]:
    """Time ``count`` set-ups, each in a fresh interpreter.

    Each probe runs in a session of its own, so that on a timeout the
    whole group (the probe and any worker it spawned) is killed.
    """
    samples = []
    for _ in range(count):
        probe = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, start_new_session=True)
        try:
            stdout, stderr = probe.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if probe.poll() is None:
                os.killpg(probe.pid, signal.SIGKILL)
                probe.communicate()
        if probe.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{stderr[-2000:]}")
        samples.append(json.loads(stdout.strip().splitlines()[-1])
                       ["setup_s"])
    return samples


def _child_pids() -> list[int]:
    """Processes whose parent is this one, from ``/proc``."""
    me, pids = os.getpid(), []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii") as stat:
                # The command name is parenthesised and may hold spaces.
                ppid = int(stat.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry))
    return pids


def _reap(pids, grace_s: float) -> None:
    """Terminate ``pids`` (children of this process) and wait for each;
    kill what is still running after ``grace_s``."""
    for pid in pids:
        try:
            os.kill(pid, signal.SIGTERM)
        except ProcessLookupError:
            pass
    deadline = time.monotonic() + grace_s
    pending = set(pids)
    while pending:
        for pid in list(pending):
            try:
                if os.waitpid(pid, os.WNOHANG)[0] == pid:
                    pending.discard(pid)
            except ChildProcessError:
                pending.discard(pid)
        if pending and time.monotonic() > deadline:
            for pid in pending:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            for pid in pending:
                try:
                    os.waitpid(pid, 0)
                except ChildProcessError:
                    pass
            return
        time.sleep(0.02)


def stop_children(grace_s: float = 5.0) -> None:
    """Stop every process this one started and wait until each has ended.

    Fleet workers are stopped by the workloads themselves; this catches
    whatever an error path left behind, and the multiprocessing resource
    tracker that spawning a worker starts, which would otherwise outlive
    this process by a moment.
    """
    tracker = sys.modules.get("multiprocessing.resource_tracker")
    tracker_pid = (getattr(tracker._resource_tracker, "_pid", None)
                   if tracker is not None else None)
    _reap([pid for pid in _child_pids() if pid != tracker_pid], grace_s)
    if tracker_pid is not None:
        # Closing its pipe ends it; _stop waits for it.
        tracker._resource_tracker._stop()
    _reap(_child_pids(), grace_s)


def _exit_on_sigterm(signum, _frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + REFERENCE_WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="time one set-up in this fresh process only")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    try:
        return _main(args)
    finally:
        stop_children()


def _main(args) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src'}; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, BLAS_THREADS)
    import numpy  # noqa: F401  (imports are not part of set-up time)
    import repro  # noqa: F401

    module = _module(args.workload)
    if args.setup_probe:
        seconds = _call(module.probe(args.seed, args.workload))
        print(json.dumps({"setup_s": seconds}))
        return 0

    from checks import CheckFailed
    from common import Run, cpu_steal_ticks, fingerprint

    run = Run(args.workload, args.seed, args.seconds, bool(args.trace), ROOT)
    tracer = None
    if run.trace:
        from tracing import Tracer, install_program_spans

        tracer = Tracer()
        install_program_spans(tracer)
    started = time.perf_counter()
    steal_before = cpu_steal_ticks()
    probes = []
    correct = True
    try:
        if not run.trace:
            probes = _setup_probes(args, SETUP_REPEATS.get(args.workload,
                                                           1) - 1)
        _call(module.run(run, tracer))
        if probes:
            from common import median

            run.notes["setup_samples_s"] = [run.metrics["setup_s"]] + probes
            run.put("setup_s", median(run.notes["setup_samples_s"]))
    except CheckFailed as failure:
        print(f"perfbench: CHECK FAILED: {failure}", file=sys.stderr)
        run.notes["check_failed"] = str(failure)
        correct = False
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(run.work, ignore_errors=True)
        try:
            run.work.parent.rmdir()
        except OSError:
            pass
    run.notes["wall_s"] = time.perf_counter() - started
    steal, total = (b - a for a, b in zip(steal_before, cpu_steal_ticks()))
    run.notes["cpu_steal_share"] = steal / total if total else 0.0

    out_dir = HERE / ".out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": fingerprint(ROOT), "notes": run.notes,
              "attempted": run.attempted, "failed": run.failed,
              "metrics": run.metrics}
    (out_dir / f"{stem}.json").write_text(
        json.dumps(report, indent=1, default=str))
    if tracer is not None:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    print("# host " + json.dumps(report["host"]))
    if not correct:
        print(json.dumps({"correct": False, "attempted": run.attempted,
                          "failed": run.failed, "metrics": {}}))
        return 1
    print(json.dumps(run.result(correct=True)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
