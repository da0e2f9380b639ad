"""hompoisson benchmark: time to verdict on four workloads, per layer when traced.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Workloads: sweep-large, morphism-scan, power-generic, cli-session.  Each is a
closed loop (one job at a time, one process, one thread; cli-session runs one
child process at a time).  Inputs come from the seed; every result is checked
against an independent oracle.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Full records (run stamp, input properties, failed jobs, spans)
are written under ``bench/out/``.  ``--smoke`` shrinks every input for a
quick self-test of the harness; ``--setup-only`` times one set-up (the
run reports ``setup_s`` as the median of several such fresh processes).
Every time in the end-to-end metrics is corrected to a fixed reference speed
by a calibration kernel timed beside it (see ``calibrate``); the raw figures
are printed and recorded beside them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time

import calibrate
import harness
import library
import spans

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = library.ROOT
OUT = os.path.join(BENCH, "out")
WORKLOADS = ("sweep-large", "morphism-scan", "power-generic", "cli-session")
SETUP_SAMPLES = 9
IMPORT_SAMPLES = 5


# ---------------------------------------------------------------------------
# Workload adapters: set-up (timed) and jobs with expected verdicts (untimed)
# ---------------------------------------------------------------------------

def _module(name):
    import cli_session
    import morphism_scan
    import power_generic
    import sweep_large
    return {"sweep-large": sweep_large, "morphism-scan": morphism_scan,
            "power-generic": power_generic, "cli-session": cli_session}[name]


def setup(name, seed, smoke, workdir):
    """Import the package and build the seeded inputs; returns (lib, built, seconds)."""
    mod = _module(name)
    t0 = time.perf_counter()
    lib = library.load()
    rng = random.Random(f"{name}:{seed}")
    if name == "cli-session":
        built = mod.build(lib, rng, workdir, smoke)
    else:
        built = mod.build(lib, rng, smoke)
    return lib, built, time.perf_counter() - t0


class CliSpans:
    """Fresh spans file per traced child; merged into the tracer afterwards."""

    def __init__(self, workdir):
        self.workdir = workdir
        self.files = []

    def env_for(self, job):
        env = _module("cli-session").child_env(ROOT)
        path = os.path.join(self.workdir, f"spans-{len(self.files)}.json")
        self.files.append((job, path))
        env["BENCH_SPANS_FILE"] = path
        return env

    def merge(self, tracer):
        for job, path in self.files:
            if os.path.exists(path):
                with open(path, encoding="utf-8") as fh:
                    tracer.extend(json.load(fh), job)
                os.remove(path)


def make_jobs(name, lib, built, seed, workdir, cli_spans=None):
    mod = _module(name)
    if name in ("sweep-large", "morphism-scan"):
        return mod.expect(lib, built)
    if name == "power-generic":
        return mod.expect(lib, built, random.Random(f"{name}:{seed}:oracle"))
    commands = built
    py = sys.executable
    if cli_spans is None:
        env = mod.child_env(ROOT)
        jobs = mod.jobs_for(commands, ROOT, [py, "-m", "hompoisson.cli"], lambda idx: env)
    else:
        jobs = mod.jobs_for(commands, ROOT, [py, os.path.join(BENCH, "cli_child.py")],
                            cli_spans.env_for)
    wants = [want for _, want in commands]
    return jobs, {
        "commands": len(commands),
        "formats": ["text", "json"],
        "expected_exit_share": {str(c): wants.count(c) / len(wants) for c in (0, 1, 2)},
        "subcommands": sorted({cmd[0] for cmd, _ in commands}),
    }


# ---------------------------------------------------------------------------
# Measurements around the loop
# ---------------------------------------------------------------------------

def setup_samples(name, seed, smoke):
    """Median set-up time over fresh processes, each timed as ``--setup-only``.

    Every sample imports the package cold and builds the inputs, so the
    median is not set by this process, whose own set-up shares imports with
    the benchmark's modules.  Each sample is corrected by the calibration
    kernel timed in its own process right before and after the set-up;
    returns the corrected median and the (corrected, raw) samples.
    """
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
           "--seed", str(seed), "--setup-only"] + (["--smoke"] if smoke else [])
    samples = []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        sample = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((sample["setup_s"], sample["raw_setup_s"]))
    return statistics.median(ref for ref, _ in samples), samples


def import_ms():
    """Fresh ``import hompoisson.cli`` minus a bare interpreter start (medians)."""
    env = _module("cli-session").child_env(ROOT)

    def median_ms(code):
        times = []
        for _ in range(IMPORT_SAMPLES):
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           capture_output=True, timeout=60)
            times.append(time.perf_counter() - t0)
        return statistics.median(times) * 1000.0

    return median_ms("import hompoisson.cli") - median_ms("pass")


def run_stamp(seed):
    return {
        "seed": seed,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpus": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def git_commit():
    """HEAD of the checkout, or 'unknown' outside a git repository."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def unexpected_failures(name, loop):
    """Failed jobs that are not a workload's known defects (label prefix, reason)."""
    known = getattr(_module(name), "KNOWN_DEFECTS", ())
    return sorted(label for label, (reason, _detail, _count) in loop.failures.items()
                  if not any(label.startswith(p) and reason == r for p, r in known))


# ---------------------------------------------------------------------------
# One workload
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace, smoke):
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{name}-{seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        return _run_workload(name, seed, seconds, trace, smoke, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_workload(name, seed, seconds, trace, smoke, workdir):
    stamp = run_stamp(seed)
    if name == "cli-session":
        # Children run on this process's CPU, so the calibration probes see
        # the speed the children get; a probe then holds a child up for as
        # long as it runs, and its time is left out of the job's time.
        stamp["pinned_cpu"] = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {stamp["pinned_cpu"]})
    lib, built, first_setup = setup(name, seed, smoke, workdir)
    t0 = time.perf_counter()
    jobs, props = make_jobs(name, lib, built, seed, workdir)
    oracle_s = time.perf_counter() - t0
    refused = (lib.errors.ResourceLimitError,)
    children = name == "cli-session"
    record = {"workload": name, "stamp": stamp, "seconds": seconds, "trace": trace,
              "smoke": smoke, "jobs_per_round": len(jobs), "oracle_setup_s": oracle_s,
              "properties": props}

    if not trace:
        loop = harness.run_loop(jobs, seconds, refused)
        rss = harness.peak_rss_mb(children)
        setup_s, samples = setup_samples(name, seed, smoke)
        window = min(getattr(_module(name), "TAIL_WINDOW", len(jobs)), len(jobs))
        metrics, extra = harness.end_to_end(loop, len(jobs), window, setup_s, rss)
        extra["raw"]["setup_s"] = statistics.median(raw for _, raw in samples)
        by_label = {}
        for label, t in zip(loop.labels, loop.times_ref_s):
            by_label.setdefault(label, []).append(t * 1000.0)
        record.update(setup_samples_s=[ref for ref, _ in samples],
                      raw_setup_samples_s=[raw for _, raw in samples],
                      in_process_setup_s=first_setup,
                      job_ms_by_label={k: statistics.median(v) for k, v in by_label.items()},
                      **extra)
    else:
        loop = harness.run_loop(jobs, seconds / 2, refused)
        untraced_jps = harness.throughput(loop, len(jobs))
        cli_ms = {}
        if children:
            group_of = {job.label: job.group for job in jobs}
            for group in set(group_of.values()):
                times = [t for t, label in zip(loop.times_s, loop.labels) if group_of[label] == group]
                cli_ms[group] = statistics.median(times) * 1000.0
        tracer, traced = _traced_run(name, lib, jobs, seed, seconds / 2, smoke, workdir, refused)
        traced_jps = harness.throughput(traced, len(jobs))
        metrics = spans.layer_metrics(
            tracer, traced.rounds, cli_ms, import_ms(), traced_jps - untraced_jps)
        spans_path = os.path.join(OUT, f"{name}-seed{seed}-spans.json")
        tracer.dump(spans_path)
        record.update(untraced_jobs_per_s=untraced_jps, traced_jobs_per_s=traced_jps,
                      traced_rounds=traced.rounds, spans_file=os.path.relpath(spans_path, ROOT),
                      spans=len(tracer.start))
        loop = _merge_loops(loop, traced)

    record.update(rounds=loop.rounds, attempted=loop.attempted, failed=loop.failed,
                  failed_by_reason=loop.failed_by_reason(),
                  failed_jobs=[{"job": label, "reason": r, "detail": d, "count": c}
                               for label, (r, d, c) in sorted(loop.failures.items())],
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    # Any failure beyond the known defects makes the run incorrect.
    record["unexpected_failures"] = unexpected_failures(name, loop)
    record["correct"] = not record["unexpected_failures"]
    result_path = os.path.join(OUT, f"{name}-seed{seed}-trace{int(trace)}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, default=str)
    record["result_file"] = os.path.relpath(result_path, ROOT)
    return record


def _traced_run(name, lib, jobs, seed, seconds, smoke, workdir, refused):
    """Set-up once more and run rounds, with spans around every layer.

    The jobs (and their oracle verdicts) are reused; only the CLI jobs change,
    to run each command under the traced stand-in for ``python -m``.  Span
    times include the calibration probes that fall inside them (about 4% of
    the loop's time).
    """
    tracer = spans.Tracer()
    tracer.install(vars(lib))
    cli_spans = CliSpans(workdir) if name == "cli-session" else None
    try:
        tracer.current_job = spans.SETUP_JOB
        _, built, _ = setup(name, seed, smoke, workdir)
        if cli_spans is not None:
            jobs, _ = make_jobs(name, lib, built, seed, workdir, cli_spans)
        loop = harness.run_loop(jobs, seconds, refused, tracer=tracer)
    finally:
        tracer.uninstall()
    if cli_spans is not None:
        cli_spans.merge(tracer)
    return tracer, loop


def _merge_loops(a, b):
    out = harness.LoopResult()
    out.times_s = a.times_s + b.times_s
    out.times_ref_s = a.times_ref_s + b.times_ref_s
    out.labels = a.labels + b.labels
    out.rounds = a.rounds + b.rounds
    for src in (a, b):
        for label, (reason, detail, count) in src.failures.items():
            out.failures.setdefault(label, [reason, detail, 0])[2] += count
    return out


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------

def print_record(record):
    name = record["workload"]
    stamp = record["stamp"]
    print(f"== {name}  seed={stamp['seed']}  python={stamp['python']}  cpus={stamp['cpus']}  "
          f"commit={stamp['commit'][:12]}  rounds={record['rounds']}  jobs={record['attempted']}")
    for key, m in record["metrics"].items():
        print(f"{name}  {key:32s} {m['value']:14.6g} {m['unit']}")
    if "tail_percentile" in record:
        print(f"{name}  {'failed_frac':32s} {record['failed_frac']:14.6g} fraction  (1 - ok_frac)")
        print(f"{name}  job_ms_tail is p{record['tail_percentile']:.2f} of each window of "
              f"{record['tail_window']} jobs, median of {record['tail_windows']} windows; set-up samples "
              + ", ".join(f"{s:.4f}" for s in record["setup_samples_s"]))
        raw = record["raw"]
        print(f"{name}  raw (uncorrected): " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items())
              + f"; calibration kernel median {record['probe_ms_median']:.4f} ms over "
              f"{record['probes']} probes (reference {calibrate.NOMINAL_S * 1000:g} ms)")
    else:
        print(f"{name}  tracing overhead: {record['traced_jobs_per_s']:.4g} jobs/s traced vs "
              f"{record['untraced_jobs_per_s']:.4g} untraced; {record['spans']} spans in "
              f"{record['spans_file']}")
    if record["unexpected_failures"]:
        print(f"{name}  INCORRECT: failures beyond the known defects: "
              + "; ".join(record["unexpected_failures"]))
    for f in record["failed_jobs"]:
        print(f"{name}  FAILED {f['reason']:13s} x{f['count']:<4d} {f['job']}: {f['detail']}")
    print(f"{name}  properties: {json.dumps(record['properties'], default=str)}")
    print(f"{name}  full record: {record['result_file']}")


def summary(record):
    return {"correct": record["correct"], "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                        for k, m in record["metrics"].items()}}


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n" if proc.stdout else "")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"workload {name} failed with exit code {proc.returncode}")
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for key, m in last["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = m
    return combined


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    parser.add_argument("--setup-only", action="store_true",
                        help="only import and build the inputs; print the set-up time as JSON")
    args = parser.parse_args(argv)

    if args.setup_only:
        os.makedirs(OUT, exist_ok=True)
        workdir = os.path.join(OUT, f"probe-{os.getpid()}")
        os.makedirs(workdir, exist_ok=True)
        try:
            before = calibrate.probe(repeats=5)
            _, _, seconds = setup(args.workload, args.seed, args.smoke, workdir)
            kernel_s = (before + calibrate.probe(repeats=5)) / 2
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"setup_s": seconds * calibrate.NOMINAL_S / kernel_s,
                          "raw_setup_s": seconds, "kernel_s": kernel_s}))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
        print_record(record)
        result = summary(record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(library.SRC, "hompoisson", "__init__.py")):
        sys.stderr.write(f"bench: no hompoisson package under {library.SRC}\n")
        sys.exit(2)
    sys.exit(main())
