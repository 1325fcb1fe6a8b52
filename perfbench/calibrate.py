"""Host-speed probes: scale wall times to a fixed reference speed.

The 2-vCPU hosts this benchmark runs on share their cores with other
tenants, and a fixed piece of Python work takes anywhere from 1x to 1.8x
as long from one few-second stretch to the next.  Neither CPU time nor
steal time shows it, so every run's wall-clock medians move with the host
by far more than any bound worth gating on.

A probe is a fixed piece of work that no change to elfdb can move:

* `cpu_probe` is the kind of work elfdb does in-process (interpreter
  loops, string and dict churn, `executemany` into an in-memory SQLite
  table), written with the standard library only;
* `SqliteProbe` counts rows in a SQLite file, the work of the memoized op
  and, mostly, of a warm statement.  It waits on memory more than the
  loops do, and on the host's fast stretches it speeds up less: scaled by
  `cpu_probe`, those ops read up to a fifth slower when the host is fast;
* `spawn_probe` starts a bare interpreter and waits for it, the part of a
  `python -m elfdb.cli` op that is not elfdb.  Process start-up does not
  follow the host's swings the way in-process work does either.

Each op kind is scaled by the probe of its kind of work (`measure.PROBED_BY`).

A `HostClock` probes beside the timed ops and turns an op's wall time into
host seconds: the wall time times the clock's reference over the median
of the probes on either side of it, i.e. the time the op would have taken
on a host on which the probe takes the reference time.  The host holds one
speed for seconds at a time with bursts of a tenth of a second at another,
so a single probe can catch a burst; the median of several around the op
follows the speed the op ran at.  An op made of several calls into elfdb
can `split` between them, so that a long op is timed as segments, each
scaled by the probes around it, and the probe time between segments is
left out.  The wall times are kept in every record too.
"""

from __future__ import annotations

import math
import signal
import sqlite3
import statistics
import subprocess
import sys
from time import perf_counter
from typing import Callable

# The probes' usual times on the host the baseline was measured on (2-vCPU
# Intel Xeon, CPython 3.11.7, SQLite 3.40.1), so that host seconds read
# close to wall seconds there.  They only scale every time by a constant.
CPU_REFERENCE_S = 0.03
SQLITE_REFERENCE_S = 0.01
SPAWN_REFERENCE_S = 0.075
# Short ops share probes: a new one is taken once the last is this old.
PROBE_EVERY_S = 0.25
# Interval of the probes taken inside a long op.
INSIDE_EVERY_S = 0.4


def cpu_probe() -> float:
    """Wall time of the fixed in-process calibration work, in seconds."""
    t0 = perf_counter()
    counts: dict[str, int] = {}
    for i in range(20_000):
        key = f"k{i % 5003}"
        counts[key] = counts.get(key, 0) + i
    conn = sqlite3.connect(":memory:")
    try:
        conn.execute("CREATE TABLE t (a INTEGER, b TEXT)")
        conn.executemany("INSERT INTO t VALUES (?, ?)", ((i, str(i)) for i in range(8_000)))
        total = conn.execute("SELECT SUM(a) FROM t").fetchone()[0]
    finally:
        conn.close()
    elapsed = perf_counter() - t0
    if total != 8_000 * 7_999 // 2 or len(counts) != 5003:
        raise RuntimeError("calibration probe computed a wrong answer")
    return elapsed


class SqliteProbe:
    """A count over a SQLite file of symbol-like rows, opened afresh: the
    work of the memoized op and, mostly, of a warm statement."""

    ROWS = 60_000

    def __init__(self, path: str) -> None:
        self.path = path
        conn = sqlite3.connect(path)
        try:
            conn.execute("CREATE TABLE t (path TEXT, tbl TEXT, name TEXT, value INTEGER)")
            conn.executemany(
                "INSERT INTO t VALUES (?, ?, ?, ?)",
                ((f"/lib/p{i % 7}.so", ".symtab" if i % 3 == 0 else ".dynsym",
                  f"probe_symbol_{i:08}", i) for i in range(self.ROWS)),
            )
            conn.commit()
        finally:
            conn.close()

    def __call__(self) -> float:
        t0 = perf_counter()
        conn = sqlite3.connect(self.path)
        try:
            count = conn.execute("SELECT COUNT(*) FROM t WHERE tbl = '.dynsym'").fetchone()[0]
        finally:
            conn.close()
        elapsed = perf_counter() - t0
        if count != self.ROWS - (self.ROWS + 2) // 3:
            raise RuntimeError("calibration probe computed a wrong answer")
        return elapsed


def spawn_probe(env: dict) -> float:
    """Wall time of starting a bare interpreter with `env` and waiting for
    it, through pipes as the CLI op does: without them, `run` with a
    timeout polls for the exit at doubling intervals, which rounds the
    time to the next poll."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60,
                   capture_output=True)
    return perf_counter() - t0


class HostClock:
    """The probes of one run, and the factors they give the intervals
    timed between them."""

    def __init__(
        self,
        probe: Callable[[], float] = cpu_probe,
        reference_s: float = CPU_REFERENCE_S,
        side: int = 2,
        every_s: float = PROBE_EVERY_S,
    ) -> None:
        self.probe = probe
        self.reference_s = reference_s
        self.side = side  # probes on each side of an interval
        self.every_s = every_s
        probe()  # first run of the probe's code paths: warm, not measured
        self.probes: list[float] = []
        self._last = -math.inf

    def tick(self, force: bool = False) -> int:
        """Probe if forced or if the last probe is stale; return the latest
        probe's index.  Call it right before and right after each interval:
        forced, it takes `side` probes, so that a long interval has its own."""
        if force or perf_counter() - self._last >= self.every_s:
            for _ in range(self.side if force else 1):
                self.probes.append(self.probe())
            self._last = perf_counter()
        return len(self.probes) - 1

    def summary(self) -> dict:
        return {
            "count": len(self.probes),
            "reference_s": self.reference_s,
            "median_s": statistics.median(self.probes) if self.probes else None,
            "min_s": min(self.probes, default=None),
            "max_s": max(self.probes, default=None),
        }


class Stopwatch:
    """One op timed as segments, with probes allowed between them and,
    with `inside`, taken from a timer signal while elfdb runs.

    A call into elfdb can run for seconds, through several of the host's
    changes of speed; the probes on either side of it cannot tell how much
    of it ran at which speed, the ones taken inside it can.  The signal
    handler's own time is left out of the op's time.
    """

    def __init__(self, clock: HostClock, force: bool = False, inside: bool = False) -> None:
        self.clock = clock
        # (wall seconds, index of the first probe that counts, index of the
        # first probe taken after the segment)
        self.segments: list[tuple[float, int, int]] = []
        self._inside = inside
        self._paused = 0.0
        self._start_segment(clock.tick(force))
        if inside:
            self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
            signal.setitimer(signal.ITIMER_REAL, INSIDE_EVERY_S, INSIDE_EVERY_S)

    def _start_segment(self, before: int) -> None:
        self._first = max(0, before - self.clock.side + 1)
        self._paused = 0.0
        self._t0 = perf_counter()

    def _end_segment(self) -> None:
        wall = perf_counter() - self._t0 - self._paused
        self.segments.append((wall, self._first, len(self.clock.probes)))

    def _on_alarm(self, _signum, _frame) -> None:
        t0 = perf_counter()
        self.clock.probes.append(self.clock.probe())
        self._paused += perf_counter() - t0

    def split(self) -> None:
        """End a segment here and probe if the last probe is stale."""
        self._end_segment()
        self._start_segment(self.clock.tick())

    def stop(self, force: bool = False) -> float:
        """End the last segment; return the op's wall seconds."""
        if self._inside:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
        self._end_segment()
        self.clock.tick(force)
        return sum(wall for wall, _, _ in self.segments)

    def host_seconds(self) -> float:
        """The op in host seconds; valid once the run's last probe is taken.
        Each segment is scaled by the median of the probes up to `side`
        before it, inside it, and up to `side` after it."""
        probes, side = self.clock.probes, self.clock.side
        return sum(
            wall * self.clock.reference_s / statistics.median(probes[first : end + side])
            for wall, first, end in self.segments
        )
