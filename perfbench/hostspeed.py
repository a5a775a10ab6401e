"""Host-speed scaling of the in-process workloads' timings.

The benchmark runs on a shared host whose speed drifts: a fixed
pure-Python loop took anywhere from 78 to 138 ms over five minutes (10 s
averages, 2-vCPU host), and ten runs of the same workload span such
periods, so raw latencies spread over ten runs by as much as the largest
bound a gate may have.  The drift is the host's, not the program's: the
same code measured in step with a fixed reference workload moved 16% over
two minutes (sd of 3.5 s averages) while its ratio to the reference moved
2%.

:class:`Pacer` therefore interleaves a fixed reference workload
(:func:`reference_work`, the probe: about 2 ms of tree building,
signature hashing, dict memo lookups and sorting, in the style of the
optimizer's own code) with the statements, and gives every statement the
speed factor of the window it ran in: ``NOMINAL_PROBE_MS`` divided by the
mean probe time of that window (the mean, not the median: the statements
pay for the host's short stalls too, so the probes must count them).  A scaled time is the time the
statement would have taken on a host where the probe takes
``NOMINAL_PROBE_MS``.  The probe is the benchmark's own code, so a change
to the program moves the scaled times exactly as it moves the raw ones.

The pacer also moves the loop to the next allowed CPU at each window: on
a shared host the vCPUs run at different speeds, and a loop left to the
scheduler stays on one of them.
"""

from __future__ import annotations

import gc
import os
import statistics
import time

#: probe time, in milliseconds, of the reference host speed the scaled
#: timings are expressed at (the probe's median on the 2.0 GHz Xeon vCPUs
#: the benchmark was built on)
NOMINAL_PROBE_MS = 2.0
#: seconds between probes, and the number of probes per window (a window
#: ends at the first statement boundary after its last probe)
PROBE_EVERY = 0.2
PROBES_PER_WINDOW = 5


class _Node:
    __slots__ = ("op", "kids", "cost")

    def __init__(self, op: str, kids: tuple, cost: float):
        self.op = op
        self.kids = kids
        self.cost = cost


def _build(depth: int, seed: int) -> _Node:
    if depth == 0:
        return _Node(f"t{seed % 7}", (), float(seed % 13 + 1))
    kids = (_build(depth - 1, seed * 3 + 1), _build(depth - 1, seed * 5 + 2))
    op = ("join", "filter", "group", "sort")[seed % 4]
    return _Node(op, kids, sum(kid.cost for kid in kids) * 1.1)


def _signature(node: _Node, memo: dict) -> tuple:
    key = (node.op, tuple(_signature(kid, memo) for kid in node.kids))
    found = memo.get(key)
    if found is None:
        found = memo[key] = (len(memo), node.cost)
    return found


def reference_work() -> int:
    """The probe: a fixed amount of interpreter-bound work."""
    memo: dict = {}
    total = 0
    for seed in range(4):
        tree = _build(7, seed)
        total += _signature(tree, memo)[0]
    rows = sorted(
        (f"{op}:{n % 17}", n * 7 % 101) for op in ("a", "b", "c") for n in range(300)
    )
    return total + len(memo) + len({name for name, _ in rows})


def probe_ms() -> float:
    """Milliseconds the probe takes now, with the cyclic GC paused so the
    program's heap size does not enter the figure."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        reference_work()
        return (time.perf_counter() - started) * 1000.0
    finally:
        if enabled:
            gc.enable()


def speed_factor(probes: list[float]) -> float:
    """Scale that converts a raw time measured alongside *probes* into a
    time at the reference speed."""
    return NOMINAL_PROBE_MS / statistics.fmean(probes)


class Pacer:
    """Windows of a closed loop, each on one CPU and with its own probes.

    Call :meth:`tick` before each statement; it returns the index of the
    window the statement runs in.  ``factors[i]`` is window *i*'s speed
    factor once the pacer is closed."""

    def __init__(self) -> None:
        self.factors: list[float] = []
        self.probes: list[float] = []

    def __enter__(self) -> "Pacer":
        self._cpus = sorted(os.sched_getaffinity(0))
        self._turn = 0
        self._window: list[float] = []
        self._due = 0.0
        self._open()
        return self

    def _open(self) -> None:
        if len(self._cpus) > 1:
            os.sched_setaffinity(0, {self._cpus[self._turn % len(self._cpus)]})
            self._turn += 1
        self._window = []
        self._probe()

    def _probe(self) -> None:
        self._window.append(probe_ms())
        self._due = time.perf_counter() + PROBE_EVERY

    def _close(self) -> None:
        self._probe()
        self.factors.append(speed_factor(self._window))
        self.probes.extend(self._window)

    def tick(self) -> int:
        if time.perf_counter() >= self._due:
            if len(self._window) >= PROBES_PER_WINDOW:
                self._close()
                self._open()
            else:
                self._probe()
        return len(self.factors)

    def __exit__(self, *exc: object) -> None:
        self._close()
        os.sched_setaffinity(0, set(self._cpus))
