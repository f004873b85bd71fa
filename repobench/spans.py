"""Spans recorded from outside the program, and their self time.

:class:`Tracer` wraps a layer's public entry points; every call becomes
a span on a stack.  A span's *self time* is its duration minus the time
its wrapped children cover, so the self times of all spans add up to the
duration of the outermost ones and nothing is counted twice.  The
program under test is single-threaded (the service's event loop, the
simulator's engine), so one stack is enough.

Span clocks read the calling thread's CPU time, not the wall clock: on
a shared host a process also waits on the run queue, and that wait
belongs to no layer.  Spans are not kept one by one: each name accumulates ``count``,
``self`` and ``total`` seconds in memory, and the benchmark reads the
tallies when it ends (or at a mark).
"""

from __future__ import annotations

import functools
import inspect
import time


class Tracer:
    """A stack of open spans plus per-name tallies."""

    def __init__(self, clock=time.thread_time) -> None:
        self.clock = clock
        #: Open spans: ``[name, start, seconds covered by children]``.
        self.stack: list = []
        #: name -> ``[count, self seconds, total seconds]``.
        self.stats: dict = {}

    def enter(self, name: str) -> None:
        self.stack.append([name, self.clock(), 0.0])

    def exit(self) -> float:
        name, start, covered = self.stack.pop()
        duration = self.clock() - start
        tally = self.stats.get(name)
        if tally is None:
            tally = self.stats[name] = [0, 0.0, 0.0]
        tally[0] += 1
        tally[1] += duration - covered
        tally[2] += duration
        if self.stack:
            self.stack[-1][2] += duration
        return duration

    def wrap(self, name: str, fn):
        """``fn`` recorded as span ``name`` on every call."""
        enter, leave = self.enter, self.exit

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()

        return traced

    def patch(self, owner, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by its traced version.

        A class method is unwrapped and rewrapped so it keeps its binding.
        """
        raw = inspect.getattr_static(owner, attribute)
        if isinstance(raw, classmethod):
            setattr(owner, attribute, classmethod(self.wrap(name,
                                                            raw.__func__)))
        else:
            setattr(owner, attribute, self.wrap(name, raw))

    def snapshot(self) -> dict:
        return {name: list(tally) for name, tally in self.stats.items()}


def diff(after: dict, before: dict) -> dict:
    """Per-name tallies accumulated between two snapshots."""
    out = {}
    for name, (count, own, total) in after.items():
        base = before.get(name, (0, 0.0, 0.0))
        if count - base[0]:
            out[name] = [count - base[0], own - base[1], total - base[2]]
    return out


def calls(tallies: dict, name: str) -> int:
    return tallies.get(name, (0, 0.0, 0.0))[0]


def self_seconds(tallies: dict, names) -> float:
    """Self seconds summed over the spans ``names``."""
    return sum(tallies.get(name, (0, 0.0, 0.0))[1] for name in names)


def mean_self(tallies: dict, name: str) -> float:
    """Mean self time per call, in microseconds (0 when never called)."""
    count, own, _total = tallies.get(name, (0, 0.0, 0.0))
    return own / count * 1e6 if count else 0.0


def mean_total(tallies: dict, name: str) -> float:
    """Mean inclusive duration per call, in milliseconds."""
    count, _own, total = tallies.get(name, (0, 0.0, 0.0))
    return total / count * 1e3 if count else 0.0
