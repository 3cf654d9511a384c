"""Benchmark of the knotquiver command line, one workload per run.

Run from the root of a checkout:

    python3 benchmark/run.py --workload report --seed 1 --seconds 30 --trace 0

The run builds the workload's job list from the seed, times interpreter
start-up plus `import knotquiver` and the catalog load in fresh
processes (setup_s), then calls `knotquiver.cli.main(argv)` in this
process for every job, one after another (a closed loop with one
client), with stdout and stderr captured.  A first pass over the job
list is checked and not timed; then come as many timed passes as fit in
--seconds, at least one.

With --trace 0 it reports the end-to-end metrics: wall_s (one pass, the
sum of each job's median time), job_p50_ms and job_p90_ms (percentiles
of the same job medians), setup_s (median of several start-ups) and
peak_rss_mb.  These times are scaled to the host's speed at the moment
they were taken (see reference_seconds).  With --trace 1
it alternates untraced and traced passes and reports the per-layer
metrics of layers.py; trace.overhead_s is the traced minus the untraced
mean pass.

Every output is checked (see checks.py).  The last line of stdout is one
JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import checks  # noqa: E402  (the benchmark's own modules sit beside this file)
import layers  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, make_jobs  # noqa: E402

SETUP_CODE = (
    "import sys; sys.path.insert(0, %r); import knotquiver.cli; "
    "from knotquiver.catalog import load_catalog; load_catalog()"
)
SETUP_REPEATS = 11
# reference_kernel's time on a quiet 2.1 GHz Xeon under Python 3.11; the
# unit that scaled times are expressed in
REFERENCE_S = 0.0025

clock = time.perf_counter


def reference_kernel():
    """A fixed few milliseconds of interpreter work: dict lookups and
    integer arithmetic, as in the program's inner loops."""
    table = {}
    for i in range(15000):
        table[i % 1000] = table.get(i % 1000, 0) + i * 3


def reference_seconds():
    """Seconds reference_kernel takes right now.

    The host's speed changes by up to 60% from second to second with the
    load of other tenants, and it changes the kernel's time and the
    program's alike.  Each timed interval is multiplied by
    REFERENCE_S / reference_seconds() measured just before it, so it reads
    as seconds at the reference speed; a change in the program moves it,
    a change in the host's load much less."""
    start = clock()
    reference_kernel()
    return clock() - start


def measure_setup(repeats):
    """Median scaled seconds for a fresh interpreter to import the package
    and load the catalog; one untimed start-up first fills the bytecode
    cache."""
    times = []
    for i in range(repeats + 1):
        scale = REFERENCE_S / reference_seconds()
        start = clock()
        subprocess.run([sys.executable, "-c", SETUP_CODE % SRC], cwd=ROOT, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        if i:
            times.append((clock() - start) * scale)
    return statistics.median(times)


def import_program():
    sys.path.insert(0, SRC)
    import knotquiver.cli

    if not os.path.abspath(knotquiver.cli.__file__).startswith(SRC + os.sep):
        raise ImportError("knotquiver imported from %s, not from %s"
                          % (knotquiver.cli.__file__, SRC))
    return knotquiver.cli


def run_job(cli, job):
    """(exit code, stdout, stderr) of one command line, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(job.argv))
        except (Exception, SystemExit) as exc:  # a crash is a failed job, not a failed run
            code = -1
            print("crash: %r" % (exc,), file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def run_pass(cli, jobs):
    """(wall clock seconds, scaled seconds of each job, results) of one pass;
    the reference kernel runs before each job, outside its time."""
    wall, scaled, results = 0.0, [], []
    for job in jobs:
        scale = REFERENCE_S / reference_seconds()
        t0 = clock()
        results.append(run_job(cli, job))
        elapsed = clock() - t0
        wall += elapsed
        scaled.append(elapsed * scale)
    return wall, scaled, results


class Gate:
    """Counts job executions and failures over all passes of a run."""

    def __init__(self, jobs, expected):
        self.jobs = jobs
        self.expected = expected  # recorded values, or None off the default seed
        self.first = {}
        self.attempted = 0
        self.failed = 0
        self.limits = 0
        self.problems = []

    def _count(self, job, problems, code, stdout, stderr):
        self.attempted += 1
        if checks.outcome(code, stdout, stderr) == "limit":
            self.limits += 1
        if problems:
            self.failed += 1
            self.problems.extend("%s: %s" % (job.id, p) for p in problems)

    def check_first(self, results, h2_orders):
        for job, (code, stdout, stderr) in zip(self.jobs, results):
            problems = checks.independent_problems(
                job, code, stdout, stderr, h2_orders.get(job.id))
            if self.expected is not None:
                problems += checks.expected_problems(self.expected, job, code, stdout, stderr)
            self.first[job.id] = (code, checks.digest(code, stdout))
            self._count(job, problems, code, stdout, stderr)

    def check_repeat(self, results):
        for job, (code, stdout, stderr) in zip(self.jobs, results):
            same = self.first[job.id] == (code, checks.digest(code, stdout))
            self._count(job, [] if same else ["output changed between passes"],
                        code, stdout, stderr)


def checked_pass(cli, jobs):
    """One untimed pass that also records the H^2 orders each job computed."""
    h2 = layers.original("cohomology", "h2_generators")
    current = []

    def tap(*args, **kwargs):
        result = h2(*args, **kwargs)
        current.append([order for order, _ in result])
        return result

    orders = {}
    results = []
    with layers.patched({h2: tap}):
        for job in jobs:
            current.clear()
            results.append(run_job(cli, job))
            if current:
                orders[job.id] = [o for found in current for o in found]
    return results, orders


def environment():
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_pinning": "none",
        "hardware_counters": "none",
        "clock": "time.perf_counter, wall clock",
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget for the measured passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="minimum-size job list, one measured pass")
    parser.add_argument("--out", help="directory for the result record")
    parser.add_argument("--record-expected", action="store_true",
                        help="store the default seed's outputs in expected.json")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "knotquiver", "cli.py")):
        print("error: no knotquiver source tree at %s" % SRC, file=sys.stderr)
        return 2
    if args.record_expected and (args.seed != DEFAULT_SEED or args.smoke):
        print("error: expected values are recorded on the full default-seed list",
              file=sys.stderr)
        return 2
    jobs = make_jobs(args.workload, args.seed, smoke=args.smoke)
    setup_s = measure_setup(1 if args.smoke else SETUP_REPEATS)
    cli = import_program()

    stored = checks.load_expected()
    compare = args.seed == DEFAULT_SEED and not args.record_expected
    expected = stored.get(args.workload) if compare else None
    gate = Gate(jobs, expected)
    results, h2_orders = checked_pass(cli, jobs)
    gate.check_first(results, h2_orders)

    if args.record_expected:
        if gate.failed:
            print("\n".join(gate.problems), file=sys.stderr)
            return 1
        stored[args.workload] = {
            job.id: checks.record(job, *res) for job, res in zip(jobs, results)
        }
        with open(checks.EXPECTED_FILE, "w") as fh:
            json.dump({k: stored[k] for k in sorted(stored)}, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print("recorded %d jobs of %s" % (len(jobs), args.workload))
        return 0

    deadline = clock() + (0 if args.smoke else args.seconds)
    walls, passes, traced_walls = [], [], []
    tracer = layers.Tracer()
    while True:
        started = clock()
        wall, lat, results = run_pass(cli, jobs)
        gate.check_repeat(results)
        walls.append(wall)
        passes.append(lat)
        if args.trace:
            with tracer.tracing():
                wall, _, results = run_pass(cli, jobs)
            gate.check_repeat(results)
            traced_walls.append(wall)
        # stop when one more round would end past the deadline
        if 2 * clock() - started >= deadline:
            break

    if args.trace:
        # means, like the per-pass figures of the spans
        raw = layers.layer_metrics(tracer, len(traced_walls), len(jobs),
                                   statistics.fmean(traced_walls), statistics.fmean(walls))
    else:
        # a job's median over the passes; one loaded spell moves it less
        # than it moves a pooled percentile
        medians = [statistics.median(job) for job in zip(*passes)]
        raw = {
            "wall_s": (sum(medians), "s"),
            "job_p50_ms": (1000 * statistics.median(medians), "ms"),
            "job_p90_ms": (1000 * statistics.quantiles(medians, n=10, method="inclusive")[8],
                           "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in raw.items()}
    correct = gate.failed == 0

    env = environment()
    print("workload %s  seed %d  trace %d  jobs/pass %d  measured passes %d"
          % (args.workload, args.seed, args.trace, len(jobs), len(walls)))
    print("python %s  nproc %s  cpu pinning: none  hardware counters: none"
          % (env["python"], env["nproc"]))
    for name, (value, unit) in raw.items():
        print("%-40s %14.6f %s" % (name, value, unit))
    print("median pass %.6f s wall clock, unscaled" % statistics.median(walls))
    print("job latency samples %d; jobs attempted %d, failed %d, limit %d, failed_share %.4f"
          " (limit outcomes count as failed in failed_share)"
          % (len(jobs) * len(passes), gate.attempted, gate.failed, gate.limits,
             (gate.failed + gate.limits) / gate.attempted))
    if expected is None:
        print("default-seed recorded values: not compared (seed %d)" % args.seed)
    for problem in gate.problems[:20]:
        print("problem: " + problem, file=sys.stderr)

    if args.out:
        os.makedirs(args.out, exist_ok=True)
        record = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "smoke": args.smoke, "seconds": args.seconds, "environment": env,
            "jobs_per_pass": len(jobs), "passes": len(walls),
            "latency_samples": len(jobs) * len(passes), "pass_walls_s": walls,
            "reference_s": REFERENCE_S, "scaled_job_latencies_s": {
                job.id: [lat[i] for lat in passes] for i, job in enumerate(jobs)},
            "traced_pass_walls_s": traced_walls,
            "attempted": gate.attempted, "failed": gate.failed, "limit": gate.limits,
            "failed_share": (gate.failed + gate.limits) / gate.attempted,
            "compared_to_recorded": expected is not None,
            "correct": correct, "problems": gate.problems, "metrics": metrics,
        }
        if args.trace:
            record["spans"] = {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in sorted(tracer.table().items())
            }
        path = os.path.join(args.out, "%s-trace%d-seed%d.json"
                            % (args.workload, args.trace, args.seed))
        with open(path, "w") as fh:
            json.dump(record, fh, indent=1)

    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
