"""Op timing scaled by an interleaved host-speed probe.

The host is a small VM on a shared machine.  Its vCPUs switch, at a
sub-second scale, between a common slow state and a fast one up to
~1.7x quicker, and the mix drifts over minutes, so a wall time or a
median over a whole run moves by 30-50 % between identical runs.  What
stays put is an op's time *relative to a fixed probe kernel run just
before it*: both see the same host state.  Every timing metric is
therefore, per op, the median over the op's repeats of
``op seconds / probe seconds``, times :data:`PROBE_REF_S` — host time
scaled to a host on which the probe takes :data:`PROBE_REF_S`.

The probe is pure interpreter work (dict stores, integer arithmetic),
like the program's own hot loops; it runs between ops, never during one.
"""

from __future__ import annotations

import statistics
import time

#: Loop trips of the probe kernel.
PROBE_TRIPS = 10000
#: Typical probe time on a 2-vCPU Xeon VM with CPython 3.11 (0.9 ms in
#: its fast state, 1.5-1.7 ms in its common one); the metrics' scale.
PROBE_REF_S = 1.6e-3


def probe_kernel() -> int:
    table: dict[int, int] = {}
    total = 0
    for i in range(PROBE_TRIPS):
        table[i & 255] = total
        total += (i * 7) % 13
    return total


class Clock:
    """Times keyed ops, probing the host just before each one."""

    def __init__(self, probes_per_op: int = 2) -> None:
        self.probes_per_op = probes_per_op
        #: key -> [[op seconds, mean probe seconds before it], ...]
        self.samples: dict[str, list[list[float]]] = {}
        self.probes: list[float] = []
        self._last_probe = 0.0

    def probe(self) -> float:
        """Run the probe; returns its mean time over this call."""
        taken = []
        for _ in range(self.probes_per_op):
            start = time.perf_counter()
            probe_kernel()
            taken.append(time.perf_counter() - start)
        self.probes += taken
        self._last_probe = sum(taken) / len(taken)
        return self._last_probe

    def time(self, key: str, fn, *args, number: int = 1):
        """Run ``fn`` ``number`` times back to back as one sample of op
        ``key`` (their mean time), between two probes whose mean is the
        sample's probe time; returns the results."""
        before = self.probe()
        start = time.perf_counter()
        results = [fn(*args) for _ in range(number)]
        seconds = (time.perf_counter() - start) / number
        self.samples.setdefault(key, []).append(
            [seconds, (before + self.probe()) / 2]
        )
        return results

    def record(self, key: str, seconds: float) -> None:
        """An op timed by the caller (or on a server's clock) after a
        :meth:`probe`."""
        self.samples.setdefault(key, []).append([seconds, self._last_probe])

    def as_dict(self) -> dict:
        return {"samples": self.samples, "probes": self.probes}


def scaled_median(pairs) -> float:
    """Median of ``[seconds, probe seconds]`` pairs at reference speed."""
    return statistics.median(op / probe for op, probe in pairs) * PROBE_REF_S


def scaled(clock: dict) -> dict[str, float]:
    """Each op's seconds at the reference host speed: the median over
    its repeats of its time relative to the probe before it."""
    return {key: scaled_median(pairs)
            for key, pairs in clock["samples"].items()}


def first_repeat(clock: dict) -> dict:
    """The clock as if each op had run once (to compare with a traced
    run of the same op list)."""
    return {"samples": {k: v[:1] for k, v in clock["samples"].items()},
            "probes": clock["probes"]}


def merge(clocks) -> dict:
    """One clock document from several (rounds in separate processes)."""
    merged: dict = {"samples": {}, "probes": []}
    for clock in clocks:
        merged["probes"] += clock["probes"]
        for key, pairs in clock["samples"].items():
            merged["samples"].setdefault(key, []).extend(pairs)
    return merged
