"""The machine's speed, measured around and during every timed call.

This benchmark runs on virtual CPUs of a shared host, whose instruction
throughput swings by up to a factor of two within seconds as other tenants
come and go. The swing slows the program and a fixed piece of code of the
same kind alike, so a run times that fixed code, `kernel`, next to the
program and rescales each call by the speed the kernel showed: the result is
seconds at a fixed reference speed.

The kernel is owned by the benchmark and does not import `thermoclass`, so a
change to the program cannot change it. Like the program's hot loops it is
tiny numpy products driven from a Python loop: 4x4 matrix-vector steps (as in
the RK4 step) and 2x2 Kronecker products with a 4x4 conjugation and a partial
trace (as in a collision).

The kernel runs before and after every call, and a `Sampler` runs it every
SAMPLE_PERIOD_S seconds during the call, from a SIGALRM handler in the
interpreter's main thread; the time the samples take is not counted as the
call's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Median seconds of one `kernel()` call on a quiet machine (an Intel Xeon
# 2-vCPU VM, Python 3.11, numpy 2.4). It only sets the scale of the
# calibrated times, and must never change, or times measured before and
# after the change would not compare.
REFERENCE_S = 0.003

# kernel calls per measurement between calls; the median is kept
REPEATS = 3

# seconds between kernel samples during a call
SAMPLE_PERIOD_S = 0.1

_STEP = np.full((4, 4), 0.01) + np.eye(4)
_HALF = np.array([[0.6, 0.1j], [-0.1j, 0.4]])
_ANCILLA = np.diag([0.7, 0.3]).astype(complex)
_UNITARY = np.eye(4, dtype=complex)


def kernel() -> float:
    """A fixed amount of work of the program's kind; returns a checksum."""
    y = np.ones(4)
    for i in range(750):
        y = _STEP @ y
        if i % 20 == 0:
            y = y / y.sum()
    rho = _HALF
    for _ in range(75):
        joint = _UNITARY @ np.kron(rho, _ANCILLA) @ _UNITARY.conj().T
        rho = np.trace(joint.reshape(2, 2, 2, 2), axis1=1, axis2=3)
    return float(y.sum() + rho.real.sum())


def timed_kernel() -> tuple:
    """(start, end, cpu): one kernel call's wall-clock start and end in
    `time.perf_counter` seconds, and the CPU seconds it took in this thread.
    The CPU time leaves out waits for a CPU, so it does not count the
    program's own pool workers competing with the kernel."""
    start, cpu = time.perf_counter(), time.thread_time()
    kernel()
    return start, time.perf_counter(), time.thread_time() - cpu


def measure() -> float:
    """CPU seconds of one kernel call now: the median of REPEATS calls."""
    return statistics.median(timed_kernel()[2] for _ in range(REPEATS))


class Sampler:
    """Kernel samples taken every `period` seconds while it is running.

    Each sample is a `timed_kernel()` triple.
    """

    def __init__(self, period: float = SAMPLE_PERIOD_S):
        self.period = period
        self.samples = []
        self._previous = None

    def _sample(self, signum, frame) -> None:
        self.samples.append(timed_kernel())

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, begin: float, end: float) -> list:
        return [sample for sample in self.samples if begin <= sample[0] and sample[1] <= end]


def scale(begin: float, end: float, before: float, after: float, samples=(),
          reference: float = REFERENCE_S) -> tuple:
    """(wall seconds, seconds at the reference speed) of the stretch from
    `begin` to `end`, with kernel times `before` and `after` it and the
    kernel samples taken inside it. `reference` is the kernel's time at the
    reference speed.

    Sample time is taken out of the wall time. The work done in a stretch of
    time is proportional to the speed (1 / kernel time), so the speed is
    averaged over the samples, evenly spaced in time, with the measurements
    at either end weighing half.
    """
    wall = (end - begin) - sum(e - s for s, e, _ in samples)
    speeds = [0.5 / before, 0.5 / after] + [1.0 / cpu for _, _, cpu in samples]
    return wall, wall * reference * sum(speeds) / (len(samples) + 1)
