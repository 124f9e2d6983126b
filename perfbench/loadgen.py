"""Open-loop and closed-loop request generators for the serving workloads.

Open loop: arrivals follow a seeded Poisson schedule and are sent on
time whatever the system does, so a stall delays every later request.
Each request's latency is timed from when it was *due*, and the
generator's own lateness (wake-up time minus due time) is kept apart so
a late generator cannot pass for a slow server.  Everything runs on the
caller's one asyncio loop; connections, when the caller uses them, are
bounded by the caller.
"""

from __future__ import annotations

import asyncio
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Awaitable, Callable

import numpy as np

# Requests are sent in rounds of this many, so a workload's share of
# deliberately invalid requests is the same in every run.
ROUND = 200


@dataclass
class Outcome:
    """What happened to one request."""

    index: int
    due: float
    woke: float
    done: float
    ok: bool
    value: Any = None
    error: str | None = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lateness_s(self) -> float:
        return self.woke - self.due


@dataclass
class LoadResult:
    outcomes: list[Outcome] = field(default_factory=list)
    started: float = 0.0
    finished: float = 0.0

    def latencies_ms(self, indices=None) -> np.ndarray:
        """Latency per request in ms; failed requests count as infinite."""
        chosen = (self.outcomes if indices is None
                  else [self.outcomes[i] for i in indices])
        return np.array([o.latency_s * 1e3 if o.ok else np.inf
                         for o in chosen])

    def lateness_ms(self) -> np.ndarray:
        return np.array([o.lateness_s * 1e3 for o in self.outcomes])

    @property
    def drain_lag_s(self) -> float:
        """Time from the last due arrival to the last completion."""
        last_due = max(o.due for o in self.outcomes)
        return max(o.done for o in self.outcomes) - last_due


def cap_executor_threads() -> None:
    """Cap the running loop's executor threads at the CPU count."""
    asyncio.get_running_loop().set_default_executor(
        ThreadPoolExecutor(max_workers=os.cpu_count() or 1))


def rounded(count: int) -> int:
    """``count`` rounded up to whole rounds."""
    return -(-max(count, 1) // ROUND) * ROUND


def poisson_offsets(rng: np.random.Generator, rate: float,
                    count: int) -> np.ndarray:
    """Arrival times (s from start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


async def open_loop(offsets: np.ndarray,
                    send: Callable[[int], Awaitable[Any]],
                    *, lead_s: float = 0.02) -> LoadResult:
    """Send request ``i`` at ``offsets[i]``; await every reply.

    ``send(i)`` performs request ``i`` and returns its value or raises;
    a raise marks the request failed.
    """
    result = LoadResult()
    result.outcomes = [None] * len(offsets)  # type: ignore[list-item]
    start = time.perf_counter() + lead_s
    result.started = start
    tasks = []

    async def one(index: int, due: float, woke: float) -> None:
        try:
            value = await send(index)
            outcome = Outcome(index, due, woke, time.perf_counter(), True,
                              value)
        except Exception as error:  # noqa: BLE001 - every failure counts
            outcome = Outcome(index, due, woke, time.perf_counter(), False,
                              error=f"{type(error).__name__}: {error}")
        result.outcomes[index] = outcome

    for index, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            one(index, due, time.perf_counter())))
    await asyncio.gather(*tasks)
    result.finished = time.perf_counter()
    return result


async def closed_loop(count: int, clients: int,
                      send: Callable[[int, int], Awaitable[Any]]
                      ) -> LoadResult:
    """``clients`` callers each send their next request on a reply.

    ``send(i, client)`` performs request ``i`` on caller ``client``.
    Every request is due when the run starts, so latency includes the
    wait for a free caller.
    """
    result = LoadResult()
    result.outcomes = [None] * count  # type: ignore[list-item]
    start = time.perf_counter()
    result.started = start
    cursor = iter(range(count))

    async def client(slot: int) -> None:
        for index in cursor:
            woke = time.perf_counter()
            try:
                value = await send(index, slot)
                result.outcomes[index] = Outcome(
                    index, start, woke, time.perf_counter(), True, value)
            except Exception as error:  # noqa: BLE001 - every failure counts
                result.outcomes[index] = Outcome(
                    index, start, woke, time.perf_counter(), False,
                    error=f"{type(error).__name__}: {error}")

    await asyncio.gather(*(client(slot) for slot in range(clients)))
    result.finished = time.perf_counter()
    return result


def percentile(values, q: float) -> float:
    """The q-th percentile (linear interpolation); inf-aware."""
    arr = np.sort(np.asarray(values, dtype=np.float64))
    if arr.size == 0:
        return float("nan")
    rank = (arr.size - 1) * q / 100.0
    lo = int(np.floor(rank))
    hi = min(lo + 1, arr.size - 1)
    if not np.isfinite(arr[hi]):
        return float("inf") if rank > lo or not np.isfinite(arr[lo]) \
            else float(arr[lo])
    return float(arr[lo] + (arr[hi] - arr[lo]) * (rank - lo))


def score_ms(load: LoadResult, latencies_ms) -> float:
    """p99 latency, or the drain lag when the backlog outlasted it."""
    return max(percentile(latencies_ms, 99), load.drain_lag_s * 1e3)


async def capacity_search(trial: Callable[[float], Awaitable[float]],
                          start: float, start_score: float, step: float,
                          limit: float, max_rungs: int = 24
                          ) -> tuple[float, list[tuple[float, float]]]:
    """Highest offered rate whose trial score stays within ``limit``.

    ``start_score`` is the score already measured at ``start``.  Trials
    run at ``start * step**k``, upward while they pass, until one passing
    and one failing rate sit next to each other.  A failing start tries
    one rate below it (slower trials, so no further); if that fails too,
    the crossing is extrapolated from it.  ``trial(rate)`` returns the
    score in ms.  Returns the crossing, interpolated on log-log axes
    between the neighbours, and every ``(rate, score)`` tried.
    """
    rungs = [(start, start_score)]
    direction = 1 if rungs[0][1] <= limit else -1
    for k in range(1, max_rungs if direction > 0 else 2):
        rate = start * step ** (direction * k)
        rungs.append((rate, await trial(rate)))
        if (rungs[-1][1] > limit) == (direction > 0):
            break
    passing = max((r for r in rungs if r[1] <= limit), default=None)
    failing = min((r for r in rungs if r[1] > limit), default=None)
    if passing is None:
        return failing[0] * limit / failing[1], rungs
    if failing is None or not math.isfinite(failing[1]):
        return passing[0], rungs
    (r_p, s_p), (r_f, s_f) = passing, failing
    share = math.log(limit / s_p) / math.log(s_f / s_p)
    return r_p * (r_f / r_p) ** share, rungs
