"""Closed-loop client: one in-process ``kholo.cli.main`` call at a time.

The next request is sent when the last one has finished. Only the call to
``main`` is timed; building inputs, checking answers and sampling the
processor's speed (``speed.py``) happen outside the clock.
"""

import io
import signal
import statistics
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from itertools import chain, islice
from time import perf_counter

from perfbench import corpus
from perfbench.checks import check
from perfbench.speed import Speedometer

TIME_LIMIT_S = 3.0      # per request; the heaviest request at seed takes under 0.5 s
MIN_REQUESTS = 100      # so that at least 10 samples lie beyond the 90th percentile
MAX_BUSY_FACTOR = 3     # stop a run whose requests have taken 3x --seconds


class RequestTimeout(BaseException):
    """Raised by the per-request alarm.

    A BaseException, because ``kholo.cli.main`` turns every Exception into
    exit 3 and would otherwise report a time-out as an internal error.
    """


def _alarm(signum, frame):
    raise RequestTimeout


@dataclass
class Outcome:
    code: object            # exit code, or None when main did not return
    stdout: str
    elapsed: float
    error: str = ""         # why main did not return
    timed_out: bool = False


def call(request, limit=TIME_LIMIT_S):
    """Run one request through ``kholo.cli.main`` and time it."""
    from kholo import cli

    out, err = io.StringIO(), io.StringIO()
    saved_stdin = sys.stdin
    sys.stdin = io.StringIO(request.stdin)
    previous = signal.signal(signal.SIGALRM, _alarm)
    code, error, timed_out = None, "", False
    start = perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(request.argv))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except RequestTimeout:
        error, timed_out = f"timed out after {limit} s", True
    except SystemExit as exc:   # argparse rejects an argument list this way
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - an exception escaping main is a failure
        error = f"raised {exc!r}"
    finally:
        elapsed = perf_counter() - start
        sys.stdin = saved_stdin
        signal.signal(signal.SIGALRM, previous)
    return Outcome(code, out.getvalue(), elapsed, error, timed_out)


@dataclass
class Tally:
    latencies: list = field(default_factory=list)    # at reference speed
    wall: list = field(default_factory=list)         # as the clock read them
    failures: list = field(default_factory=list)     # (argv, reason)
    timeouts: int = 0

    def add(self, request, outcome, scale):
        self.latencies.append(outcome.elapsed * scale)
        self.wall.append(outcome.elapsed)
        self.timeouts += outcome.timed_out
        reason = check(request, outcome)
        if reason is not None:
            self.failures.append((request.argv[:3], reason))

    @property
    def attempted(self):
        return len(self.latencies)


def run_pass(requests, tally, during=None):
    """Time every request (inside ``during``, if given), then check every answer.

    Returns the outcomes and, per request, the factor from measured to
    reference-speed time.
    """
    outcomes = []
    with during or nullcontext():
        speedometer = Speedometer()
        for request in requests:
            outcomes.append(call(request))
            speedometer.after(outcomes[-1].elapsed)
        scales = speedometer.scales()
    for request, outcome, scale in zip(requests, outcomes, scales):
        tally.add(request, outcome, scale)
    return outcomes, scales


def timed_run(workload, seed, seconds):
    """Whole rounds until --seconds of measured request time and MIN_REQUESTS are reached."""
    tally = Tally()
    rounds = corpus.rounds(workload, seed)
    while True:
        run_pass(next(rounds), tally)
        busy = sum(tally.wall)
        if (busy >= seconds and tally.attempted >= MIN_REQUESTS) or busy >= MAX_BUSY_FACTOR * seconds:
            return tally


def trace_requests(workload, seed, rounds):
    """The fixed prefix of the stream that a traced run measures."""
    return list(chain.from_iterable(islice(corpus.rounds(workload, seed), rounds)))


def latency_summary(times, timeouts):
    """Median, 90th percentile and requests completed per second of ``times``."""
    return {
        "latency_p50_s": statistics.median(times),
        "latency_p90_s": statistics.quantiles(times, n=10)[-1],
        "instances_per_s": (len(times) - timeouts) / sum(times),
    }
