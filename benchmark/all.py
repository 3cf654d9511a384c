"""Run every workload untraced and traced, print every metric, write results.

    python3 benchmark/all.py [--seed 1] [--seconds 30] [--out .bench_results]

Each run is a fresh `python3 benchmark/run.py` process.  The command
prints the environment (Python version, nproc; no CPU pinning and no
hardware counters are used), then every end-to-end metric of each
workload and the traced per-layer table, each by name with its unit.  It writes one JSON record per run, summary.json
and layers.tsv into the output directory.
"""

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, environment


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".bench_results"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]

    env = environment()
    print("python %s (%s), nproc %d, cpu pinning: none, hardware counters: none, seed %d"
          % (env["python"], env["implementation"], env["nproc"], args.seed))
    summary = {"seed": args.seed, "seconds": args.seconds, "environment": env, "results": {}}
    status = 0
    for workload in workloads:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace), "--out", args.out],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print("%s trace %d failed: %s" % (workload, trace, proc.stderr.strip()[-500:]))
                status = 1
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            summary["results"]["%s/trace%d" % (workload, trace)] = result
            if not result["correct"]:
                status = 1
            if trace == 0:
                print("\n[%s] correct %s, attempted %d, failed %d"
                      % (workload, result["correct"], result["attempted"], result["failed"]))
                for name, m in result["metrics"].items():
                    print("  %-14s %14.6f %s" % (name, m["value"], m["unit"]))

    names = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    rows = ["metric\tunit\t" + "\t".join(workloads)]
    print("\nper layer, one traced pass over each job list")
    print("  %-38s %-6s" % ("metric", "unit") + "".join("%15s" % w for w in workloads))
    for name in names:
        values = [summary["results"].get("%s/trace1" % w, {}).get("metrics", {})
                  .get(name, {}).get("value") for w in workloads]
        cells = ["%15.6f" % v if v is not None else "%15s" % "-" for v in values]
        print("  %-38s %-6s" % (name, units[name]) + "".join(cells))
        rows.append("%s\t%s\t%s" % (name, units[name],
                                    "\t".join("" if v is None else repr(v) for v in values)))
    os.makedirs(args.out, exist_ok=True)
    with open(os.path.join(args.out, "layers.tsv"), "w") as fh:
        fh.write("\n".join(rows) + "\n")
    with open(os.path.join(args.out, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=1)
    print("\nwrote %s" % args.out)
    return status


if __name__ == "__main__":
    sys.exit(main())
