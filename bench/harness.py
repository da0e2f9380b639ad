"""Closed-loop job runner and the end-to-end statistics of one run.

A workload is a list of jobs, built once from the seed.  The loop runs the
whole list, in order, one job at a time, and repeats it until ``seconds`` of
loop time have passed; a round is never cut short, so every run measures the
same mix of jobs.  A job is one call that yields a verdict, timed from the
call until its result is in hand.

The first result of each job is checked against the oracle; later rounds must
reproduce it exactly (compared by hash, so that stored results do not inflate
the process's peak memory).  The loop's wall time excludes that checking and
the calibration probes, so ``jobs_per_s`` measures the program, not the
benchmark.  It is the median over
rounds of the round's jobs divided by the round's wall time, so a host stall
or the first, cold round does not set it.

While the loop runs, a timer probes the calibration kernel (``calibrate``);
every job time and round wall time is also kept corrected to the reference
speed, and the end-to-end metrics are taken from the corrected figures.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable

import calibrate

FAILURE_REASONS = ("refused", "error", "wrong-verdict", "exit-code")


@dataclass
class Job:
    """One verdict-yielding call.

    ``make`` runs untimed before each call and returns the zero-argument
    callable to time (so each call gets fresh copies of inputs that carry
    caches).  ``check`` receives the result and returns None when the oracle
    accepts it, or ``(reason, detail)`` with a reason from FAILURE_REASONS.
    ``group`` names the CLI subcommand, for per-subcommand times.
    """

    label: str
    make: Callable[[], Callable[[], object]]
    check: Callable[[object], tuple | None]
    group: str = ""


@dataclass
class LoopResult:
    """Raw job times and round wall times, and the same corrected to the
    reference speed (``*_ref_s``)."""

    times_s: list = field(default_factory=list)
    labels: list = field(default_factory=list)
    failures: dict = field(default_factory=dict)  # label -> [reason, detail, count]
    rounds: int = 0
    check_s: float = 0.0
    round_wall_s: list = field(default_factory=list)
    times_ref_s: list = field(default_factory=list)
    round_wall_ref_s: list = field(default_factory=list)
    probes_s: list = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return len(self.times_s)

    @property
    def failed(self) -> int:
        return sum(f[2] for f in self.failures.values())

    def failed_by_reason(self) -> dict:
        out = {r: 0 for r in FAILURE_REASONS}
        for reason, _detail, count in self.failures.values():
            out[reason] += count
        return out


def run_loop(jobs, seconds, refused_types=(), tracer=None) -> LoopResult:
    """Run whole rounds of ``jobs`` until ``seconds`` of loop time have passed."""
    out = LoopResult()
    first: dict[int, int] = {}
    verdicts: dict[int, tuple | None] = {}
    intervals = []  # each job's (start, end) on the probe-free clock
    bounds = []  # (first job index, end index) of each round
    with calibrate.Speed() as speed:
        clock = speed.clock
        start = clock()
        while True:
            round_start, round_check = clock(), out.check_s
            round_first = len(out.times_s)
            for idx, job in enumerate(jobs):
                call = job.make()
                if tracer is not None:
                    tracer.current_job = idx
                raised = None
                t0 = clock()
                try:
                    result = call()
                except refused_types as exc:
                    result, raised = None, ("refused", f"{type(exc).__name__}: {exc}")
                except Exception as exc:  # a job that raises is a failed job, not a crashed benchmark
                    result, raised = None, ("error", "".join(traceback.format_exception_only(exc)).strip())
                t1 = clock()
                out.times_s.append(t1 - t0)
                intervals.append((t0, t1))
                out.labels.append(job.label)
                if raised is not None:
                    verdict = raised
                elif idx not in first:
                    verdict = job.check(result)
                    first[idx] = hash(result)
                    verdicts[idx] = verdict
                elif hash(result) == first[idx]:
                    verdict = verdicts[idx]
                else:
                    verdict = job.check(result)
                if verdict is not None:
                    entry = out.failures.setdefault(job.label, [verdict[0], verdict[1], 0])
                    entry[2] += 1
                out.check_s += clock() - t1
            out.round_wall_s.append(clock() - round_start - (out.check_s - round_check))
            bounds.append((round_first, len(out.times_s)))
            out.rounds += 1
            if clock() - start - out.check_s >= seconds:
                break
    out.probes_s = speed.seconds
    out.times_ref_s = [t * speed.factor(s0, s1) for t, (s0, s1) in zip(out.times_s, intervals)]
    # A round's wall time is corrected by its jobs' time-weighted factor.
    for wall, (a, b) in zip(out.round_wall_s, bounds):
        out.round_wall_ref_s.append(wall * sum(out.times_ref_s[a:b]) / sum(out.times_s[a:b]))
    return out


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (value, percentile): the 11th largest sample, whose rank sits at
    the (n - 10) / n quantile.  With eleven samples or fewer the maximum is
    returned at percentile 100.
    """
    n = len(values)
    ordered = sorted(values)
    if n <= 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def throughput(loop: LoopResult, per_round: int, raw: bool = False) -> float:
    """Median over rounds of the round's jobs per second of its wall time."""
    walls = loop.round_wall_s if raw else loop.round_wall_ref_s
    return statistics.median(per_round / w for w in walls)


def end_to_end(loop: LoopResult, per_round: int, window: int, setup_s: float, peak_rss_mb: float):
    """The six end-to-end metrics, plus the details reported beside them.

    ``job_ms_tail`` is the highest percentile with at least ten jobs beyond it
    within a window of ``window`` consecutive jobs (a round, or an equal part
    of one), and its median over the windows is reported.  The percentile
    then depends only on the workload's job list, not on how many rounds fit
    in the run, and a few host stalls among thousands of sub-millisecond jobs
    do not set it.  Times are at the reference speed; the raw ones are
    returned beside them.
    """
    def p50_tail(times_s):
        ms = [t * 1000.0 for t in times_s]
        chunks = [ms[i:i + window] for i in range(0, len(ms) - window + 1, window)]
        return statistics.median(ms), statistics.median(tail(chunk)[0] for chunk in chunks), chunks

    p50, tail_ms, chunks = p50_tail(loop.times_ref_s)
    raw_p50, raw_tail, _ = p50_tail(loop.times_s)
    metrics = {
        "setup_s": (setup_s, "s"),
        "job_ms_p50": (p50, "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "jobs_per_s": (throughput(loop, per_round), "1/s"),
        "ok_frac": ((loop.attempted - loop.failed) / loop.attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return metrics, {"tail_percentile": tail(chunks[0])[1], "tail_window": window,
                     "tail_windows": len(chunks), "failed_frac": loop.failed / loop.attempted,
                     "raw": {"job_ms_p50": raw_p50, "job_ms_tail": raw_tail,
                             "jobs_per_s": throughput(loop, per_round, raw=True)},
                     "probe_ms_median": statistics.median(loop.probes_s) * 1000.0,
                     "probes": len(loop.probes_s)}


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0
