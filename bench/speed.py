"""How fast the CPU runs right now, read off a fixed reference kernel.

On a shared host, other tenants slow the CPU itself, for a fraction of a
second up to minutes, by as much as 2x; process CPU time does not remove
that.  The probe times a small fixed kernel (a Python loop over 8-vectors
and a few 96x96 Cholesky factorisations, so both the interpreter and BLAS
are in it) right before and right after each operation, and every
SAMPLE_S of process CPU time during it from a SIGPROF handler.  An
operation's time is then reported at the reference speed:

    (its CPU time - the kernel's) * mean over its samples of KERNEL_REF_S / k

where k is a kernel time.  The samples are spaced evenly in CPU time, so the
mean of KERNEL_REF_S / k is the factor that brings each slice of the
operation to the reference speed.  KERNEL_REF_S is about the kernel's time
in the slower of the two states the machine where the benchmark was written
is mostly in (1.6 ms in the faster one); it fixes the unit of the figures,
not how two runs compare.  A large operation evicts the kernel's data from
the caches, so the kernel runs slower inside it than between operations:
with the kernel at KERNEL_REF_S between operations, a fifty-agent round
reads some 13% above its raw CPU time.  The bias is the same for the same
code, so it cancels when two runs of it are compared; a change that moves
how much of the caches an operation uses can move it too.

A signal handler runs only between bytecodes, so during one long BLAS call
the next sample waits for the call to return.  Times are read with
time.thread_time(): the worker has one thread, and while an ITIMER_PROF is
armed Linux serves the process-wide CPU clock (time.process_time) at tick
granularity, so a 3 ms kernel can read 0.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KERNEL_REF_S = 0.003
SAMPLE_S = 0.05

_V = np.linspace(0.5, 1.5, 8)
_M = np.outer(_V, _V) + 8.0 * np.eye(8)
_B = np.random.default_rng(0).standard_normal((96, 96))
_B = _B @ _B.T + 96.0 * np.eye(96)


def kernel() -> float:
    s = 0.0
    for i in range(1200):
        s += float((_M @ _V)[i % 8]) * 1e-3
    for _ in range(6):
        s += float(np.linalg.cholesky(_B)[0, 0])
    return s


class SpeedProbe:
    """Samples the kernel while installed; see the module docstring."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self.spent_s = 0.0  # CPU time spent in the kernel so far
        self._busy = False

    def sample(self, *_) -> None:
        if self._busy:  # the timer fired during an explicit sample
            return
        self._busy = True
        t0 = time.thread_time()
        kernel()
        dt = time.thread_time() - t0
        self.kernel_s.append(dt)
        self.spent_s += dt
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        signal.signal(signal.SIGPROF, signal.SIG_IGN)

    def timed(self, fn, start: float | None = None):
        """Run fn(); returns its output, its CPU time at the reference speed
        and its raw CPU time (both without the kernel's).  The CPU time is
        counted from ``start`` when given, else from the call."""
        t0 = time.thread_time() if start is None else start
        first, spent = len(self.kernel_s), self.spent_s
        self.sample()
        out = fn()
        cpu = time.thread_time() - t0 - (self.spent_s - spent)
        self.sample()
        factor = statistics.fmean(KERNEL_REF_S / k
                                  for k in self.kernel_s[first:])
        return out, cpu * factor, cpu
