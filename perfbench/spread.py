#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads desk-sweep,de-threshold --seeds 1-10

For every workload and metric this prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (Q3 - Q1) / median,
next to the metric's bound from BENCHMARK.json, and the wall time of the
runs. ``--json PATH`` also writes the numbers, with the machine they were
measured on, to PATH.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", type=Path)
    args = ap.parse_args()
    declared = bench["per_layer" if args.trace else "end_to_end"]
    summary, walls = {}, {}
    for workload in args.workloads.split(","):
        runs, run_walls = [], []
        for seed in args.seeds:
            cmd = [*bench["command"], "--workload", workload,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", str(args.trace)]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True, timeout=600)
            run_walls.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr}")
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if not last["correct"]:
                sys.exit(f"{workload} seed {seed}: incorrect\n{proc.stdout}")
            runs.append(last["metrics"])
        rows = {}
        for m in declared:
            values = [r[m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            rows[m["name"]] = {
                "median": med, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / med if med else None,
                "bound": m.get("bound"), "values": values,
            }
            spread = rows[m["name"]]["spread"]
            print(f"{workload:18s} {m['name']:34s} median {med:12.6g} "
                  f"{m['unit']:6s} spread "
                  f"{'-' if spread is None else format(spread, '.4f')}"
                  f" bound {m.get('bound', '-')}", flush=True)
        summary[workload] = rows
        walls[workload] = run_walls
        print(f"{workload:18s} run wall time: median "
              f"{statistics.median(run_walls):.1f} s, max "
              f"{max(run_walls):.1f} s", flush=True)
    if args.json:
        import numpy
        import scipy
        args.json.write_text(json.dumps({
            "machine": {"nproc": os.cpu_count(), "cpu": cpu_model(),
                        "python": platform.python_version(),
                        "numpy": numpy.__version__,
                        "scipy": scipy.__version__},
            "seeds": args.seeds, "trace": args.trace,
            "run_seconds": bench["run_seconds"], "workloads": summary,
            "run_wall_s": walls,
        }, indent=1))


if __name__ == "__main__":
    main()
