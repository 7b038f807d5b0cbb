"""Host speed probes: a fixed unit of work timed on every CPU while operations run.

The reference host is a 2-vCPU VM on a shared machine.  Its speed moves by
20-30% within seconds to minutes, and no steal time shows it: CPU time
stretches with wall time.  Raw wall times of the same code therefore spread
past any usable bound from one run to the next.

One probe process per CPU, pinned there at nice 19, wakes every PERIOD_S and
times a fixed unit of small-array numpy work (about 0.5 ms of CPU) with
`time.thread_time`.  The unit's CPU cost rises and falls with the host's
speed, so its mean cost over an interval says how fast the host was then.  `scaled()` turns a wall time into seconds at the reference speed,
the speed at which one unit costs NOMINAL_UNIT_S.  The probes take about 1%
of each CPU, whether it is busy or idle.

Nothing here touches the program: the unit is fixed in this file, so only the
host's speed is divided out, and a change to `gemsim` moves the scaled times
as it moves the work.
"""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np

PERIOD_S = 0.05
UNIT_STEPS = 50
UNIT_POINTS = 384
NOMINAL_UNIT_S = 5e-4          # unit CPU cost at the reference speed
STOP_TIMEOUT_S = 10.0


def _unit(z: np.ndarray) -> None:
    s = np.zeros_like(z, dtype=complex)  # restarts from zero, so every unit does the same work
    for _ in range(UNIT_STEPS):
        s = s * 0.999 + 0.001j * np.cumsum(s + z)


def _probe(cpu: int, parent: int, stop, conn) -> None:
    os.sched_setaffinity(0, {cpu})
    os.nice(19)
    z = np.linspace(0.0, 1.0, UNIT_POINTS)
    samples = []
    while not stop.wait(PERIOD_S) and os.getppid() == parent:
        start = time.thread_time()
        _unit(z)
        samples.append((time.perf_counter(), time.thread_time() - start))
    conn.send(samples)
    conn.close()


class HostSpeed:
    """Probes on every CPU of this process while inside `with`; `scaled()` after it."""

    def __init__(self) -> None:
        self.samples: np.ndarray | None = None
        self._probes = []

    def __enter__(self) -> "HostSpeed":
        ctx = multiprocessing.get_context("fork")
        self._stop = ctx.Event()
        for cpu in sorted(os.sched_getaffinity(0)):
            receiver, sender = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_probe, args=(cpu, os.getpid(), self._stop, sender),
                               daemon=True)
            proc.start()
            sender.close()
            self._probes.append((proc, receiver))
        return self

    def __exit__(self, *exc) -> None:
        """Stop every probe, wait for it to end, and keep its samples."""
        self._stop.set()
        samples = []
        for proc, receiver in self._probes:
            if receiver.poll(STOP_TIMEOUT_S):
                samples += receiver.recv()
            proc.join(STOP_TIMEOUT_S)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self.samples = np.array(samples).reshape(-1, 2)

    def scaled(self, wall: float, start: float, end: float) -> float:
        """`wall`, timed between perf_counter `start` and `end`, at the reference speed."""
        t, cost = self.samples.T
        within = (t >= start) & (t <= end)
        if not within.any():
            raise RuntimeError(f"no host speed samples between {start} and {end}")
        return wall * NOMINAL_UNIT_S / float(cost[within].mean())
