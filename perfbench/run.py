#!/usr/bin/env python3
"""Seeded closed-loop benchmark of the kholo command line.

    python3 perfbench/run.py --workload cartan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one table

Each request is one in-process ``kholo.cli.main(argv)`` call, the work a CLI
user waits for minus interpreter start-up; start-up is measured on its own as
``setup_s``. ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs
a fixed prefix of the same stream untraced, traced and op-counted, and
reports the per-layer metrics. The last line of standard output is one JSON
object. See NOTES.md for why each workload exists and what each layer metric
should move.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from perfbench import corpus, harness  # noqa: E402
from perfbench.speed import REFERENCE_S  # noqa: E402
from perfbench.tracing import CALLS, COUNTERS, SPANS, Tracer  # noqa: E402

WORKLOADS = ("cartan", "resultants", "route")
TRACE_ROUNDS = {"cartan": 12, "resultants": 2, "route": 2}
SETUP_SAMPLES = 9

END_TO_END = {"latency_p50_s": "s", "latency_p90_s": "s", "instances_per_s": "1/s",
              "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER = dict(
    [(f"{name}.s", "s") for name in dict.fromkeys(span for _, _, span in SPANS)]
    + [(f"{name}.calls", "count") for name in CALLS]
    + [(name, "count") for name in COUNTERS]
    + [("rationals.ops", "count"), ("known_defects.failed", "count"),
       ("trace.untraced_s", "s"), ("trace.overhead_s", "s")])

_SETUP_CODE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import kholo.cli
done = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from perfbench.speed import reference
print(repr(done), repr(min(reference() for _ in range(3))))
"""


def load_kholo():
    """Import kholo from this checkout's src/, or stop without a result."""
    try:
        import kholo
        import kholo.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import kholo from {SRC}: {exc}")
    if not Path(kholo.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: kholo was imported from {kholo.__file__}, not {SRC}")
    return kholo


def setup_seconds():
    """Median time from a fresh interpreter until kholo.cli is imported.

    perf_counter is CLOCK_MONOTONIC on Linux, shared by parent and child, so
    the child's stamp minus the parent's start excludes interpreter exit.
    Each sample is scaled to reference speed by the child's own reference
    time. The first start writes bytecode caches and is not counted.
    Returns (reference-speed median, wall-clock median).
    """
    scaled, wall = [], []
    for _ in range(SETUP_SAMPLES + 1):
        start = perf_counter()
        done = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC), str(ROOT)],
                              cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        stamp, ref = map(float, done.stdout.split())
        wall.append(stamp - start)
        scaled.append(wall[-1] * REFERENCE_S / ref)
    return statistics.median(scaled[1:]), statistics.median(wall[1:])


def environment(kholo, seed):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        commit = done.stdout.strip() or commit
    return {"python": sys.version.split()[0], "coeff_backend": kholo.COEFF_BACKEND,
            "nproc": len(os.sched_getaffinity(0)), "git_commit": commit, "seed": seed}


def probe_known_defects(workload):
    """Send the workload's known-defect request once."""
    tally = harness.Tally()
    harness.run_pass([corpus.KNOWN_DEFECTS[workload]], tally)
    return tally


def end_to_end(workload, seed, seconds):
    setup, setup_wall = setup_seconds()
    tally = harness.timed_run(workload, seed, seconds)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values = harness.latency_summary(tally.latencies, tally.timeouts)
    values.update(peak_rss_mb=peak_mb, setup_s=setup)
    wall = harness.latency_summary(tally.wall, tally.timeouts)
    wall.update(setup_s=setup_wall)
    print(f"{tally.attempted} requests, {sum(tally.wall):.2f} s in main, "
          f"{tally.attempted // 10} samples beyond the 90th percentile")
    print("wall clock, not scaled to reference speed: "
          + ", ".join(f"{name} {value:.6g}" for name, value in wall.items()))
    return tally, values


def per_layer(workload, seed):
    requests = harness.trace_requests(workload, seed, TRACE_ROUNDS[workload])
    tally = harness.Tally()
    tracer = Tracer()
    outcomes, scales = harness.run_pass(requests, tally)
    untraced = sum(o.elapsed * s for o, s in zip(outcomes, scales))
    outcomes, scales = harness.run_pass(requests, tally, tracer.spans())
    traced = sum(o.elapsed * s for o, s in zip(outcomes, scales))
    harness.run_pass(requests, tally, tracer.op_counter())
    # span times are summed over the pass, so they take the pass's mean factor
    scale = statistics.mean(scales)
    values = dict.fromkeys(PER_LAYER, 0)
    values.update({f"{name}.s": s * scale for name, s in tracer.self_s.items()})
    values.update(tracer.counts)
    values.update({"trace.untraced_s": untraced, "trace.overhead_s": traced - untraced})
    print(f"{len(requests)} requests per pass: untraced {untraced:.3f} s, traced {traced:.3f} s")
    return tally, values


def run_one(args):
    kholo = load_kholo()
    print("env " + json.dumps(environment(kholo, args.seed)))
    if args.trace:
        tally, values = per_layer(args.workload, args.seed)
        units = PER_LAYER
    else:
        tally, values = end_to_end(args.workload, args.seed, args.seconds)
        units = END_TO_END
    probe = probe_known_defects(args.workload)
    values["known_defects.failed"] = len(probe.failures)
    for argv, reason in tally.failures[:10]:
        print(f"FAILED {' '.join(argv)}: {reason}")
    for argv, reason in probe.failures:
        print(f"known defect still open: {' '.join(argv)}: {reason}")
    if not args.trace:
        share = (len(tally.failures) + len(probe.failures)) / (tally.attempted + probe.attempted)
        print(f"{'fail_share':24s} {share:.6g} ratio (stream and known-defect probe)")
    for name, unit in units.items():
        print(f"{name:24s} {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))


def run_all(args):
    """Each workload in its own process, as the per-process metrics require."""
    rows, ok = [], True
    for workload in WORKLOADS:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True)
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        ok = ok and result["correct"]
        rows.append((workload, lines[:-1], result))
    for workload, lines, result in rows:
        print(f"== {workload}: {result['attempted']} attempted, {result['failed']} failed")
        print("\n".join(lines))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    run_one(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
