#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records how steady each metric is.

For each workload it runs perfbench once per seed, then reports, per
metric, the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (Q3 - Q1) / median,
with the host context. Run from the repository root:

    python3 perfbench/steady.py --workloads sim_serial,service_mix \\
        --seeds 1-10 --seconds 35 --out perfbench/steadiness/run.json
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace, extra):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)] + extra
    t = time.time()
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.time() - t
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)}: exit {out.returncode}\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), [l for l in lines[:-1] if l.startswith("#")], wall


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=35)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", required=True)
    ap.add_argument("extra", nargs="*", help="extra perfbench flags, after --")
    a = ap.parse_args()

    commit = subprocess.run(["git", "rev-parse", "--short", "HEAD"], capture_output=True,
                            text=True).stdout.strip() or "unknown"
    record = {"host": {"nproc": os.cpu_count(), "commit": commit,
                       "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())},
              "seconds": a.seconds, "trace": a.trace, "extra_flags": a.extra, "workloads": {}}
    for wl in a.workloads.split(","):
        runs, walls = [], []
        for s in seeds(a.seeds):
            res, detail, wall = run_once(wl, s, a.seconds, a.trace, a.extra)
            runs.append({"seed": s, "result": res, "detail": detail})
            walls.append(wall)
            if not res["correct"]:
                print(f"{wl} seed {s}: INCORRECT {detail}", file=sys.stderr)
            record["host"]["context"] = detail[0] if detail else ""
        names = sorted(runs[0]["result"]["metrics"])
        metrics = {}
        for n in names:
            m = summarize([r["result"]["metrics"][n]["value"] for r in runs])
            m["unit"] = runs[0]["result"]["metrics"][n]["unit"]
            metrics[n] = m
        record["workloads"][wl] = {
            "runs": len(runs),
            "all_correct": all(r["result"]["correct"] for r in runs),
            "run_wall_s": summarize(walls),
            "metrics": metrics,
            "detail": {str(r["seed"]): r["detail"] for r in runs},
        }
        print(f"{wl}: wall/run median {statistics.median(walls):.1f}s", file=sys.stderr)
        for n in names:
            m = metrics[n]
            print(f"  {n:32s} median {m['median']:.6g} {m['unit']:6s} "
                  f"q1 {m['q1']:.6g} q3 {m['q3']:.6g} spread {100 * m['spread']:.2f}%",
                  file=sys.stderr)
    os.makedirs(os.path.dirname(a.out) or ".", exist_ok=True)
    with open(a.out, "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
