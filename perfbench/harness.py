"""Measurement plumbing shared by every workload.

Nothing here knows about ground truth: an in-memory span tracer, the
timed round loop, latency statistics, CPU placement, the child-process
guard and the host-noise context printed with every run.
"""

from __future__ import annotations

import contextlib
import os
import resource
import signal
import time
from typing import Any, Optional

# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------


class Tracer:
    """Spans kept in memory: ``{id, name, start, end, parent}``.

    Timestamps are ``time.perf_counter()`` seconds; ``parent`` is the id
    of the span open when this one started (``None`` at the root).
    """

    enabled = True

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "parent": self._open[-1] if self._open else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._open.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: count, total seconds and self seconds (total
        minus the time its direct children cover)."""
        child_time = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        out: dict[str, dict[str, float]] = {}
        for rec in self.spans:
            row = out.setdefault(rec["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            dur = rec["end"] - rec["start"]
            row["count"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child_time[rec["id"]]
        return out


class NullTracer:
    """Tracing off: every span is a shared no-op context."""

    enabled = False
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL_TRACER = NullTracer()

# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile (no interpolation between samples)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil
    return ordered[int(rank) - 1]


def beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples rank above their ``pct`` percentile."""
    return n - int(max(1, -(-n * pct // 100)))


# ---------------------------------------------------------------------------
# The timed loop
# ---------------------------------------------------------------------------


class Outcome:
    """Everything one measured loop produced."""

    def __init__(self) -> None:
        self.latencies: list[float] = []          # seconds, successful untraced ops
        self.traced_latencies: list[float] = []   # same, traced rounds of a traced run
        self.round_rates: list[float] = []        # work units / second
        self.round_tails: list[float] = []        # seconds, the tail percentile of each round
        self.stolen_s = 0.0                       # host steal seen during untraced rounds
        self.attempted = 0
        self.failed = 0
        self.measured_s = 0.0
        self.errors: list[str] = []

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(message)


def run_rounds(workload, state, seconds: float, rng, tracer=NULL_TRACER,
               alternate: bool = False, cpus=None) -> Outcome:
    """Run whole fixed-length rounds until ``seconds`` of them are timed.

    A round's inputs and expected answers are made before its clock
    starts and its answers are checked after it stops, so the round time
    holds only the ops.  With ``alternate`` every other round is traced
    (the rest run with tracing off), which is how a traced run measures
    its own overhead on the same inputs and in the same process.

    A round's rate is its work over its time minus the host steal seen
    on ``cpus`` during it: time the host gave another guest is not the
    program's.  A round's tail is the ``workload.tail_pct`` percentile of
    its own ops, so a burst of host contention inflates the tails of the
    rounds it hits and not the tail of the whole run.
    """
    out = Outcome()
    clock = StealClock(cpus)
    index = 0
    try:
        while out.measured_s < seconds or (alternate and index < 2):
            traced = tracer.enabled and (not alternate or index % 2 == 1)
            tr = tracer if traced else NULL_TRACER
            batch = workload.prepare_round(state, rng)
            results: list[Any] = []
            lat: list[float] = []
            steal0 = clock.ticks()
            t_round = time.perf_counter()
            for op in batch.ops:
                t0 = time.perf_counter()
                try:
                    with tr.span("op"):
                        res = workload.op(state, op, tr)
                except Exception as exc:  # an op that raises is a failed op
                    res = exc
                lat.append(time.perf_counter() - t0)
                results.append(res)
            elapsed = time.perf_counter() - t_round
            stolen = (clock.ticks() - steal0) * clock.tick_s
            out.measured_s += elapsed
            out.attempted += len(batch.ops)
            bad = workload.check_round(state, batch, results)  # {op index: why}
            for message in bad.values():
                out.fail(message)
            good = [t for i, t in enumerate(lat) if i not in bad]
            if traced and alternate:
                out.traced_latencies.extend(good)
            else:
                out.latencies.extend(good)
                if good:
                    out.round_tails.append(percentile(good, workload.tail_pct))
                net = elapsed - stolen if stolen < elapsed else elapsed
                out.round_rates.append(batch.work / net)
                out.stolen_s += stolen
            index += 1
    finally:
        clock.close()
    return out


# ---------------------------------------------------------------------------
# Host context
# ---------------------------------------------------------------------------


def pin(cpu: int) -> None:
    """Pin the calling thread (and anything it forks later) to ``cpu``."""
    os.sched_setaffinity(0, {cpu})


class StealClock:
    """Hypervisor steal ticks (``/proc/stat`` field 8) of some CPUs.

    Steal is time a CPU wanted to run but the host ran another guest.
    It is counted in clock ticks (10 ms on Linux), so only a tick or
    more is visible.  One open descriptor is re-read with ``pread``,
    which costs a few microseconds.  Without ``/proc/stat`` it reads 0.
    """

    def __init__(self, cpus=None):
        self.names = {b"cpu"} if cpus is None else {f"cpu{c}".encode() for c in cpus}
        self.tick_s = 1.0 / os.sysconf("SC_CLK_TCK")
        try:
            self._fd: Optional[int] = os.open("/proc/stat", os.O_RDONLY)
        except OSError:
            self._fd = None

    def ticks(self) -> int:
        if self._fd is None:
            return 0
        total = 0
        for line in os.pread(self._fd, 1 << 16, 0).split(b"\n"):
            fields = line.split()
            if not fields or not fields[0].startswith(b"cpu"):
                break  # the cpu lines come first
            if fields[0] in self.names:
                total += int(fields[8])
        return total

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None


def peak_rss_mb(children: bool) -> float:
    """Peak RSS of this process, plus the largest reaped child's peak
    when ``children`` (Linux reports ``ru_maxrss`` in KiB)."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def live_children() -> list[int]:
    """Pids whose parent is this process (found by scanning ``/proc``)."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii", errors="replace") as fh:
                stat = fh.read()
        except OSError:
            continue  # exited while we looked
        # comm may hold spaces or parens; ppid is the 2nd field after it
        fields = stat[stat.rfind(")") + 2:].split()
        if len(fields) > 1 and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def reap_strays() -> list[int]:
    """Kill and reap any child still alive; return the pids found.

    Called after every server stop: a worker that outlives ``stop()``
    keeps burning CPU and holding our stdout pipe, so the run that left
    it must fail rather than contaminate the runs after it.
    """
    strays = live_children()
    for pid in strays:
        with contextlib.suppress(ProcessLookupError):
            os.kill(pid, signal.SIGKILL)
        with contextlib.suppress(ChildProcessError):
            os.waitpid(pid, 0)
    return strays
