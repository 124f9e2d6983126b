"""Spans around the program's entry points, recorded from outside ``src/``.

A :class:`Tracer` replaces selected functions and methods of the
``repro`` package with wrappers that record one span per call: name,
start, end, parent span and request id.  Nothing inside the program
changes; :meth:`Tracer.uninstall` puts every original back, so the
untraced and traced phases of one run can share a process.

Parents follow :mod:`contextvars`, so a span opened inside an asyncio
task nests under the span that created the task.  Work the program hands
to an executor thread starts a fresh context and records a root span.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import inspect
import json
import time
from pathlib import Path
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int | None
    request_id: Any


_current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
    "perfbench_span", default=None)


class Tracer:
    """In-memory span recorder over monkeypatched entry points."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._originals: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open(self) -> tuple[int, int | None, contextvars.Token]:
        index = len(self.spans)
        parent = _current.get()
        self.spans.append(Span("", 0.0, 0.0, parent, None))
        return index, parent, _current.set(index)

    def _close(self, index: int, parent: int | None, token, name: str,
               start: float, request_id: Any) -> None:
        _current.reset(token)
        self.spans[index] = Span(name, start, time.perf_counter(), parent,
                                 request_id)

    @contextlib.contextmanager
    def span(self, name: str, request_id: Any = None):
        """Record a span around the ``with`` body (e.g. a client call)."""
        index, parent, token = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, parent, token, name, start, request_id)

    # -- patching ----------------------------------------------------------

    def wrap(self, owner: Any, attr: str, name: str | Callable,
             request_id: Callable | None = None) -> None:
        """Record a span around every call of ``owner.attr``.

        ``name`` is a span name, or a callable ``(args, kwargs) -> name``
        returning ``None`` for calls that should not be recorded.
        """
        original = inspect.getattr_static(owner, attr)
        func = getattr(owner, attr)
        namer = name if callable(name) else (lambda _a, _k, _n=name: _n)
        tracer = self

        if inspect.iscoroutinefunction(func):
            @functools.wraps(func)
            async def wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                if span_name is None:
                    return await func(*args, **kwargs)
                rid = request_id(args, kwargs) if request_id else None
                index, parent, token = tracer._open()
                start = time.perf_counter()
                try:
                    return await func(*args, **kwargs)
                finally:
                    tracer._close(index, parent, token, span_name, start, rid)
        else:
            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                span_name = namer(args, kwargs)
                if span_name is None:
                    return func(*args, **kwargs)
                rid = request_id(args, kwargs) if request_id else None
                index, parent, token = tracer._open()
                start = time.perf_counter()
                try:
                    return func(*args, **kwargs)
                finally:
                    tracer._close(index, parent, token, span_name, start, rid)

        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        return [s.end - s.start for s in self.spans if s.name == name]

    def self_times(self, name: str) -> list[float]:
        """Each ``name`` span's duration minus what its children cover."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = []
        for index, span in enumerate(self.spans):
            if span.name != name:
                continue
            covered = 0.0
            cursor = span.start
            for child in sorted(children.get(index, ()),
                                key=lambda s: s.start):
                lo, hi = max(child.start, cursor), min(child.end, span.end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            out.append(span.end - span.start - covered)
        return out

    def write(self, path: Path) -> None:
        """Write every span as JSON lines (times relative to the first)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        base = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as out:
            for index, span in enumerate(self.spans):
                out.write(json.dumps({
                    "id": index, "name": span.name,
                    "start_s": span.start - base, "end_s": span.end - base,
                    "parent": span.parent,
                    "request_id": span.request_id}) + "\n")


def install_program_spans(tracer: Tracer) -> None:
    """Wrap the entry point of each program layer the workloads reach."""
    import repro.engine as engine_mod
    from repro.analysis.depgraph import StaticDependenceGraph
    from repro.engine import InferenceEngine
    from repro.serve.continuous import ContinuousBatcher
    from repro.serve.server import PumaServer
    from repro.sim.simulator import Simulator
    from repro.sim.tape import TapeReplayer
    from repro.sim.tapeopt import OptimizedReplayer

    # The engine calls these through names bound in its own module.
    tracer.wrap(engine_mod, "compile_model", "compiler.compile_model")
    tracer.wrap(engine_mod, "optimize_tape", "tapeopt.optimize_tape")
    # Only the first construction per (model, seed) programs crossbars.
    tracer.wrap(Simulator, "__init__",
                lambda a, k: ("arch.program_crossbars"
                              if k.get("programmed_state") is None else None))
    # The recording pass; shadow-timing passes sit inside derive_stats.
    tracer.wrap(Simulator, "run",
                lambda a, k: ("sim.interpret"
                              if a[0].tape_recorder is not None else None))
    tracer.wrap(StaticDependenceGraph, "validate_tape",
                "analysis.validate_tape")
    tracer.wrap(TapeReplayer, "run",
                lambda a, k: ("tape.replay_optimized"
                              if isinstance(a[0], OptimizedReplayer)
                              else "tape.replay_plain"))
    tracer.wrap(InferenceEngine, "predict", "engine.predict")
    tracer.wrap(InferenceEngine, "run_batch", "engine.run_batch")
    # No public entry covers the first-use probe or stats derivation.
    tracer.wrap(InferenceEngine, "_verify_optimized", "tape.probe")
    tracer.wrap(InferenceEngine, "_stats_for_batch",
                lambda a, k: ("tape.derive_stats"
                              if a[1].stats_for(a[2]) is None else None))
    tracer.wrap(PumaServer, "submit", "serve.submit",
                request_id=lambda a, k: _first_input_id(a[1]))
    tracer.wrap(ContinuousBatcher, "start_cohort", "serve.continuous.cohort",
                request_id=lambda a, k: [_first_input_id(r) for r in a[1]])
    # A tick serves every active cohort: one id list per cohort.
    tracer.wrap(ContinuousBatcher, "tick", "serve.continuous.tick",
                request_id=lambda a, k: [
                    [_first_input_id(p.request.inputs) for p in c.tag[0]]
                    for c in a[0].cohorts()])


def _first_input_id(inputs: dict) -> int:
    """Identity of a request's input arrays, which the server passes on."""
    return id(next(iter(inputs.values())))
