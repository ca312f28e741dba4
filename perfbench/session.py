"""Timing, checking and cost accounting of the benchmark's operations."""

from __future__ import annotations

import bisect
import contextlib
import gc
import io
import statistics
import subprocess
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np


class Reference:
    """A fixed workload that uses no l1paths code, timed between operations.

    The host's speed drifts by up to a quarter over minutes (other tenants
    share its cores), and that moves every raw time alike. An operation's
    cost is its time divided by the reference's time around it, which
    cancels most of the drift. The kernel mixes what l1paths spends its
    time on: interpreted Python, BLAS matrix-vector products and small
    LAPACK solves. It is sampled at most every ``interval`` seconds.
    """

    interval = 0.5
    window = 2.0

    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = rng.standard_normal((60, 1000))
        self._x = rng.standard_normal(1000)
        self._r = rng.standard_normal(60)
        self._G = np.eye(6) + 0.1
        self.samples: list[tuple[float, float]] = []   # (end time, seconds)

    def _kernel(self):
        acc = 0
        for k in range(20000):
            acc += k * k
        for _ in range(100):
            self._A @ self._x
            self._A.T @ self._r
        for _ in range(200):
            np.linalg.solve(self._G, self._r[:6])

    def sample(self):
        t0 = perf_counter()
        self._kernel()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))

    def maybe_sample(self):
        if not self.samples or perf_counter() - self.samples[-1][0] >= self.interval:
            self.sample()

    def around(self, t0: float, t1: float) -> float:
        """Median of the samples taken within ``window`` seconds of [t0, t1].

        One sample jitters by several percent; the host's speed changes
        over seconds, so the samples nearby estimate it better together.
        """
        ends = [t for t, _ in self.samples]
        lo = bisect.bisect_left(ends, t0 - self.window)
        hi = bisect.bisect_right(ends, t1 + self.window)
        # Always include the nearest sample before t0 and the first after t1.
        lo = min(lo, max(bisect.bisect_right(ends, t0) - 1, 0))
        hi = max(hi, min(bisect.bisect_left(ends, t1) + 1, len(ends)))
        return statistics.median(v for _, v in self.samples[lo:hi])


class Session:
    """Times operations, runs their checks, and counts failures.

    Each operation is recorded as (kind, cycle, start, end, work); ``times``
    and ``costs`` turn the records into per-kind figures.
    """

    def __init__(self, env, in_process_cli: bool, tracer=None, reference=None):
        self.env = env
        self.in_process_cli = in_process_cli
        self.tracer = tracer
        self.reference = reference
        self.records: list[tuple[str, int, float, float, float]] = []
        self.counts = defaultdict(int)
        self.cycle = 0
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def _fail(self, kind, exc):
        self.failed += 1
        self.failures.append(f"{kind}: {type(exc).__name__}: {exc}")

    def op(self, kind, fn, check=None, work=None):
        """Time ``fn()`` as one operation, then run ``check`` on its result.

        ``work(result)`` gives the operation's units of work (1 if absent).
        """
        gc.collect()
        if self.reference is not None:
            self.reference.maybe_sample()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.op_id += 1
            tracer.active = True
        t0 = perf_counter()
        try:
            result = fn()
        except Exception as exc:  # an operation that raises counts as failed
            self._fail(kind, exc)
            return None
        finally:
            t1 = perf_counter()
            if tracer is not None:
                tracer.active = False
        self.records.append((kind, self.cycle, t0, t1, 1 if work is None else work(result)))
        if check is not None:
            try:
                check(result)
            except Exception as exc:
                self._fail(kind, exc)
        return result

    def check(self, name, fn):
        """A check that spans several operations."""
        try:
            fn()
        except Exception as exc:
            self._fail(name, exc)

    def count(self, name, value):
        self.counts[name] += value

    def cli(self, argv):
        """Run ``l1paths <argv>``; returns (exit code, standard output)."""
        if self.in_process_cli:
            import l1paths.cli

            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = l1paths.cli.main(argv)
            return code, buf.getvalue()
        proc = subprocess.run([sys.executable, "-m", "l1paths.cli", *argv],
                              capture_output=True, text=True, env=self.env, timeout=150)
        return proc.returncode, proc.stdout

    def times(self) -> dict[str, list[float]]:
        out = defaultdict(list)
        for kind, _, t0, t1, _ in self.records:
            out[kind].append(t1 - t0)
        return out

    def costs(self) -> tuple[dict[str, list[float]], dict[str, list[float]]]:
        """Per-kind costs of each operation and per unit of its work, in reference units."""
        self.reference.sample()   # the last operation's after-sample
        per_op, per_work = defaultdict(list), defaultdict(list)
        for kind, _, t0, t1, work in self.records:
            cost = (t1 - t0) / self.reference.around(t0, t1)
            per_op[kind].append(cost)
            per_work[kind].append(cost / work)
        return per_op, per_work
