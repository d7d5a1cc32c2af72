"""Spans around the calls a csipla job makes, recorded from outside csipla.

`instrument(sim, tracer)` rebinds, for as long as it is active:

* every function `csipla.sim` imported from a layer module (channel,
  quantizer, polar, authenticator), as span `<module>.<function>`;
* every public function defined in `csipla.sim`, `trial_rng` among them,
  and every public method of `Simulator` plus its constructor, as span
  `sim.<name>`.

Private `Simulator` methods are not wrapped: their time is the self time of
the `sim` span that called them, which is the per-trial orchestration.
The job is single-threaded, so spans nest and nothing waits.
"""

from __future__ import annotations

import functools
import inspect
import time
from contextlib import contextmanager

LAYERS = ("channel", "quantizer", "polar", "authenticator")


class Tracer:
    """Spans kept in memory as (id, parent id, name, start, end).

    Spans are appended as they end, so a span follows all of its children.
    Parent id 0 means no enclosing span.
    """

    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self._stack = [0]
        self._ids = iter(range(1, 1 << 62))

    def wrap(self, name, fn):
        spans, stack, ids, clock = self.spans, self._stack, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end))

        return traced

    @contextmanager
    def span(self, name):
        """A span around the caller's block."""
        sid = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            yield sid
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, start, end))


@contextmanager
def patched(replacements):
    """Set (owner, attribute) -> value for the block, then restore."""
    saved = [(owner, attr, getattr(owner, attr)) for (owner, attr) in replacements]
    try:
        for (owner, attr), value in replacements.items():
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in saved:
            setattr(owner, attr, value)


def sim_targets(sim):
    """{(owner, attribute): span name} for every call the traced run times."""
    targets = {}
    for attr, obj in vars(sim).items():
        if not inspect.isfunction(obj):
            continue
        module = obj.__module__.rpartition(".")[2]
        if module in LAYERS:
            targets[(sim, attr)] = f"{module}.{obj.__name__}"
        elif obj.__module__ == sim.__name__ and not attr.startswith("_"):
            targets[(sim, attr)] = f"sim.{attr}"
    for attr, obj in vars(sim.Simulator).items():
        if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
            name = "Simulator" if attr == "__init__" else attr
            targets[(sim.Simulator, attr)] = f"sim.{name}"
    return targets


def instrument(sim, tracer):
    return patched(
        {key: tracer.wrap(name, getattr(*key)) for key, name in sim_targets(sim).items()}
    )


def job_profile(spans):
    """Per-name call counts and busy time, plus sim self time, for one job.

    `spans` are one job's spans, its root last.  A span's self time is its
    duration minus that of its direct children; children never overlap,
    since the job runs on one thread.
    """
    child_time: dict[int, float] = {}
    for _, parent, _, start, end in spans:
        child_time[parent] = child_time.get(parent, 0.0) + end - start
    calls: dict[str, int] = {}
    busy: dict[str, float] = {}
    sim_self = 0.0
    for sid, _, name, start, end in spans[:-1]:
        calls[name] = calls.get(name, 0) + 1
        busy[name] = busy.get(name, 0.0) + end - start
        if name.startswith("sim.") and name != "sim.trial_rng":
            sim_self += end - start - child_time.get(sid, 0.0)
    root = spans[-1]
    return calls, busy, sim_self, root[4] - root[3]
