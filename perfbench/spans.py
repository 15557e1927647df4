"""Span recording from outside the program, on a speed-normalized clock.

A span is [name, start, end, parent index]. Wrapping replaces a module or
class attribute, so only calls that look the function up under that name
are recorded: wrap `subcubehh.harness.indep_pass1`, not the original in
`subcubehh.independence`, to see the calls the harness makes.

The host this benchmark was written on drifts in speed by up to 2x over
seconds to minutes, and the drift differs between its cores. So while a
repeat runs, SpeedSampler measures the interpreter's own speed every 50 ms,
and every duration is reported in reference seconds: wall seconds times the
mean sampled speed around the span, divided by REF_SPEED. On a host running
at REF_SPEED the two are equal.
"""

from __future__ import annotations

import bisect
import functools
import signal
from contextlib import contextmanager
from time import perf_counter

# Sampler loop speed, in ops/s, that makes one reference second one wall
# second; about the mean speed on the 2-core virtual machine the benchmark
# was tuned on.
REF_SPEED = 8.5e6
# Samples this far outside a span also count towards its speed, so short
# spans get several samples.
MARGIN_S = 0.25


class SpeedSampler:
    """Samples the interpreter's speed from a SIGALRM handler.

    Every INTERVAL_S seconds of wall time the handler runs a fixed loop of
    dict updates and records its speed in ops/s, wherever the program
    happens to be. The samples are evenly spaced in time, so their mean is
    the mean speed over an interval. clock() is wall time minus the time the
    handler took, so spans measured on it exclude the sampling. The loop
    allocates no garbage-collected object (small int keys, one reused dict),
    so it never sets off a collection of the program's heap, whose time
    would wrongly be subtracted from the program's clock.
    """

    OPS = 8_000
    INTERVAL_S = 0.05

    def __init__(self) -> None:
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._prefix = [0.0]
        self._probe: dict[int, int] = {}
        self.spent = 0.0
        self._old = None

    def clock(self) -> float:
        return perf_counter() - self.spent

    def _sample(self, _signum, _frame) -> None:
        t0 = perf_counter()
        d = self._probe
        d.clear()
        for i in range(self.OPS):
            k = i & 255
            d[k] = d.get(k, 0) + 1
        t1 = perf_counter()
        self.times.append(t0 - self.spent)
        self.speeds.append(self.OPS / (t1 - t0))
        self._prefix.append(self._prefix[-1] + self.speeds[-1])
        self.spent += perf_counter() - t0

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._old)

    def speed(self, start: float, end: float) -> float:
        """Mean sampled speed within MARGIN_S of [start, end] on clock();
        the mean of all samples when none falls there."""
        lo = bisect.bisect_left(self.times, start - MARGIN_S)
        hi = bisect.bisect_right(self.times, end + MARGIN_S)
        if hi == lo:
            lo, hi = 0, len(self.speeds)
        return (self._prefix[hi] - self._prefix[lo]) / (hi - lo)

    def ref_seconds(self, start: float, end: float) -> float:
        return (end - start) * self.speed(start, end) / REF_SPEED


class Recorder:
    def __init__(self, sampler: SpeedSampler) -> None:
        self.sampler = sampler
        self.spans: list[list] = []
        self.captured: list[tuple[str, object]] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        t0 = self.sampler.clock()
        try:
            yield
        finally:
            self.spans[idx][1:3] = [t0, self.sampler.clock()]
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, keep=None) -> None:
        """Record a span named `name` around every call of owner.attr. With
        `keep`, also store (name, keep(args, result)) after the span closes,
        for checks made once the timed region is over."""
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if keep is not None:
                self.captured.append((name, keep(args, result)))
            return result

        setattr(owner, attr, wrapper)

    def durations(self, name: str) -> list[float]:
        """Durations of the `name` spans, in reference seconds."""
        return [self.sampler.ref_seconds(s[1], s[2]) for s in self.spans if s[0] == name]

    def total(self, name: str) -> float:
        return sum(self.durations(name))

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s[0] == name)

    def raw_total(self, name: str) -> float:
        """Total wall seconds of the `name` spans, sampling excluded."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def self_time(self, name: str) -> float:
        """Total duration of `name` spans minus the time their direct child
        spans cover (children of one parent never overlap), scaled by the
        speed around each parent span."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                covered[s[3]] += s[2] - s[1]
        return sum(
            (s[2] - s[1] - covered[i]) * self.sampler.speed(s[1], s[2]) / REF_SPEED
            for i, s in enumerate(self.spans)
            if s[0] == name
        )
