"""Smoke test of the benchmark itself.

Runs every workload once at minimum size (run.py --smoke) with tracing
off and on, and checks that the result line has exactly the keys
correct/attempted/failed/metrics, that every output passed the
correctness gate, and that every metric named in BENCHMARK.json is
emitted with its unit.  It also runs a second seed untraced, which the
gate checks with the independent checks only.  Exit status 0 when all
pass.

    python3 benchmark/smoke.py
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SECOND_SEED = 2


def result_line(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    if proc.returncode != 0:
        return None, "exit %d: %s" % (proc.returncode, proc.stderr.strip()[-500:])
    return json.loads(proc.stdout.strip().splitlines()[-1]), None


def problems_in(result, wanted):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("result keys %s" % sorted(result))
    if not result.get("correct") or result.get("failed") or result.get("attempted", 0) < 1:
        problems.append("correct %s, attempted %s, failed %s"
                        % (result.get("correct"), result.get("attempted"), result.get("failed")))
    metrics = result.get("metrics", {})
    for name, unit in wanted.items():
        if name not in metrics:
            problems.append("missing metric %s" % name)
        elif metrics[name].get("unit") != unit or not isinstance(metrics[name].get("value"), (int, float)):
            problems.append("metric %s reads %r, unit %s expected" % (name, metrics[name], unit))
    extra = set(metrics) - set(wanted)
    if extra:
        problems.append("metrics not in BENCHMARK.json: %s" % sorted(extra))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    runs = [(w["name"], 1, trace) for w in spec["workloads"] for trace in (0, 1)]
    runs += [(w["name"], SECOND_SEED, 0) for w in spec["workloads"]]
    failures = 0
    for workload, seed, trace in runs:
        result, error = result_line(workload, seed, trace)
        problems = [error] if error else problems_in(result, wanted[trace])
        failures += bool(problems)
        print("%-11s seed %d trace %d: %s" % (workload, seed, trace, "; ".join(problems) or "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
