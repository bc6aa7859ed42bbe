"""Spans, per-stage calls, failure accounting and CPU rotation for one
benchmark run.

A ``Stages`` object calls the library on behalf of an op.  Untraced it only
catches and records exceptions; given a ``Tracer`` it also records a span
around each call.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from collections import defaultdict


class Tracer:
    """Nested spans: (name, op id, parent span index, start ns, end ns)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = -1

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.op_id, parent, time.perf_counter_ns(), 0])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter_ns()
        self._stack.pop()

    def self_times_ns(self) -> list[int]:
        """Each span's duration minus the part its direct children cover.

        Spans come from one thread and nest strictly, so the children of a
        span never overlap and their durations simply add up.
        """
        own = [end - start for _, _, _, start, end in self.spans]
        for _, _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def by_name(self) -> dict[str, tuple[list[int], list[int]]]:
        """name -> (durations ns, self times ns)."""
        out: dict[str, tuple[list[int], list[int]]] = defaultdict(lambda: ([], []))
        for span, own in zip(self.spans, self.self_times_ns()):
            durations, selfs = out[span[0]]
            durations.append(span[4] - span[3])
            selfs.append(own)
        return out

    def write(self, path, provenance: dict) -> None:
        fields = ("name", "op", "parent", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"provenance": provenance, "fields": fields, "spans": self.spans}, fh)


class Stages:
    """Calls library functions for ops; records raises and, if traced, spans."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.raised: list[tuple[str, str]] = []

    def call(self, name: str, fn, *args):
        """fn(*args), or None after recording the exception it raised."""
        index = self.tracer.open(name) if self.tracer is not None else -1
        try:
            return fn(*args)
        except Exception as err:  # any raise is a measured failure of the stage
            self.raised.append((name, type(err).__name__))
            return None
        finally:
            if index >= 0:
                self.tracer.close(index)

    def wrap(self, name: str, fn):
        """fn with a span around each call; exceptions pass through, counted."""
        def traced(*args, **kwargs):
            index = self.tracer.open(name)
            try:
                return fn(*args, **kwargs)
            except Exception as err:
                self.raised.append((name, type(err).__name__))
                raise
            finally:
                self.tracer.close(index)
        return traced


class Cores:
    """Moves this process round the CPUs it may run on, between ops.

    On a shared host each CPU's speed wanders by tens of percent over
    seconds to minutes, independently of the others; a run that stays on
    one CPU measures that CPU's mood.  Rotating spreads every run evenly
    over all of them.  Subprocesses started later inherit the current CPU.
    """

    def __init__(self, period_s: float):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.period_s = period_s
        self._turn = 0
        self._next = 0.0

    def step(self) -> None:
        """Move to the next CPU once ``period_s`` has passed since the last move."""
        now = time.perf_counter()
        if len(self.cpus) > 1 and now >= self._next:
            os.sched_setaffinity(0, {self.cpus[self._turn % len(self.cpus)]})
            self._turn += 1
            self._next = now + self.period_s

    def release(self) -> None:
        os.sched_setaffinity(0, self.cpus)


class Tally:
    """Op latencies, failures, errors and per-stage outcomes of one run.

    Ops cycle through a fixed pool of inputs, and outcomes are kept per
    input: ``attempted`` and ``failed`` count distinct inputs, so they depend
    on the seed alone and not on how many ops fitted in the run.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list = []
        # input key -> (failed on any of its ops, worst scored check error or None)
        self.outcomes: dict = {}
        self.gate_failures: list[str] = []
        self.raised: dict[str, int] = defaultdict(int)
        self.out_of_tol: dict[str, int] = defaultdict(int)
        self.exceptions: dict[str, int] = defaultdict(int)

    def record(self, latency: float, kind, key, raised, checks, gated: bool,
               label: str) -> None:
        """One op on the input ``key``: its latency, the stages that raised,
        and its checks.

        ``checks`` holds (stage, error, tolerance, scored) tuples; an error
        above its tolerance fails the stage (a tolerance of None only
        measures), and scored errors count towards accuracy.  A stage fails
        at most once per op.  ``gated`` ops must pass: a failure there makes
        the run incorrect, not merely slower or less accurate.
        """
        self.latencies.append(latency)
        self.kinds.append(kind)
        for stage, exc_name in raised:
            self.exceptions[f"{stage}:{exc_name}"] += 1
        raised_stages = {stage for stage, _ in raised}
        tol_stages = {stage for stage, error, tol, _ in checks
                      if tol is not None and not error <= tol}
        for stage in raised_stages:
            self.raised[stage] += 1
        for stage in tol_stages:
            self.out_of_tol[stage] += 1
        scored = [error for _, error, _, counts in checks if counts]
        worst = max(scored) if scored else None
        failed = bool(raised_stages or tol_stages)
        if key in self.outcomes:
            was_failed, was_worst = self.outcomes[key]
            failed = failed or was_failed
            worst = max((w for w in (worst, was_worst) if w is not None), default=None)
        self.outcomes[key] = (failed, worst)
        if (raised_stages or tol_stages) and gated:
            self.gate_failures.append(label)

    @property
    def attempted(self) -> int:
        return len(self.outcomes)

    @property
    def failed(self) -> int:
        return sum(failed for failed, _ in self.outcomes.values())

    @property
    def op_worst(self) -> list[float]:
        """The worst scored check error of each input that has one."""
        return [worst for _, worst in self.outcomes.values() if worst is not None]

    def stage_failures(self, stage: str) -> int:
        return self.raised[stage] + self.out_of_tol[stage]


def percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolated q-quantile (0..1) of already sorted values."""
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(latencies: list[float], q: float) -> tuple[float, int]:
    """(q-quantile, number of samples above it)."""
    values = sorted(latencies)
    value = percentile(values, q)
    return value, sum(v > value for v in values)


def median(values) -> float:
    return statistics.median(values) if values else 0.0
