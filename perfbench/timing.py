"""Wall-clock time of a measured window, steadied across runs.

On a shared host the same Python code runs in two speed modes, about
1.5x apart, and the share of time spent in the slow one drifts from
second to second and from minute to minute with the neighbours' load.
A median over whole runs follows that drift.  Instead, every run
samples its progress, ``(wall seconds, virtual µs)``, once per
``SAMPLE_S`` of wall time.  All runs of a seed replay the same events,
so a virtual instant marks the same point of the work in each run.
The window is cut into ``SLICES`` equal spans of virtual time, each
run's wall time per span is interpolated from its samples, and the
window's time is the sum over spans of the fastest run's time: the
time the work takes when the core is not shared, which is what a code
change moves.
"""

from __future__ import annotations

import signal
import time

#: wall seconds between progress samples
SAMPLE_S = 0.001
#: equal spans of virtual time the window is cut into
SLICES = 200

_active: list = []


def _tick(_signum, _frame) -> None:
    for sampler in _active:
        sampler.sample()


class ProgressSampler:
    """Samples ``(perf_counter(), progress())`` on a wall-clock timer
    from ``start`` to ``stop``.  ``progress`` returns virtual time; it is
    only read, so the run's virtual outputs do not change."""

    def __init__(self, progress):
        self.progress = progress
        self.samples: list[tuple[float, float]] = []

    def sample(self) -> None:
        self.samples.append((time.perf_counter(), self.progress()))

    def start(self) -> "ProgressSampler":
        # The handler stays installed: restoring the default action
        # could let a late tick end the process.
        if signal.getsignal(signal.SIGALRM) is not _tick:
            signal.signal(signal.SIGALRM, _tick)
        self.sample()
        _active.append(self)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def stop(self) -> list:
        """Stop the timer; safe to call twice.  Returns the samples."""
        if self in _active:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            _active.remove(self)
            self.sample()
        return self.samples


def slice_seconds(samples: list) -> list[float]:
    """Wall seconds the run spent in each of the ``SLICES`` spans of
    virtual time between its first and last sample."""
    start, end = samples[0][1], samples[-1][1]
    marks = [min(end, start + (end - start) * k / SLICES)
             for k in range(SLICES)] + [end]
    walls = []
    j = 0
    for mark in marks:
        while samples[j][1] < mark:
            j += 1
        if j == 0:
            walls.append(samples[0][0])
            continue
        (w0, v0), (w1, v1) = samples[j - 1], samples[j]
        walls.append(w0 + (w1 - w0) * (mark - v0) / (v1 - v0))
    return [b - a for a, b in zip(walls, walls[1:])]


def fastest_window_s(runs: list) -> float:
    """Sum over the spans of the fastest run's wall seconds, for runs
    (lists of samples) that replay the same virtual window."""
    per_run = [slice_seconds(samples) for samples in runs]
    return sum(min(spans) for spans in zip(*per_run))

