#!/usr/bin/env python3
"""Write perfbench/reference.json, the outputs every benchmark run must match.

Run from the root of a checkout:

    python3 perfbench/reference.py

For each sweep workload and each master seed 1..REFERENCE_SEEDS it runs the
sweep once through ``harness.monte_carlo`` and records the sha256 of the
``snr_sweep_report`` CSV, the rates pooled over the grid and the edge count
of the access graph. For ``de-threshold`` it records ``threshold_search`` for
each config. A change that means to alter these outputs reruns this script
and says so; any other change must leave them as they are.
"""
import hashlib
import json

import run as bench  # pins the thread variables before numpy is imported


def main():
    gf = bench.import_gfrma()
    harness = gf.harness
    bench.OUT.mkdir(exist_ok=True)
    csv_path = bench.OUT / "reference.csv"
    ref = {}
    for workload, (cfg_name, *_) in bench.SWEEPS.items():
        ref[workload] = {}
        for seed in range(1, bench.REFERENCE_SEEDS + 1):
            spec = bench.sweep_spec(harness, workload, seed)
            result = harness.monte_carlo(spec)
            harness.snr_sweep_report(result, csv_path)
            graph = gf.pattern.build_access_graph(
                bench.seeded(harness, cfg_name, seed))
            ref[workload][str(seed)] = {
                "csv_sha256": hashlib.sha256(csv_path.read_bytes())
                .hexdigest(),
                "pattern.edges": int(graph.n_edges),
                **bench.pooled_rates(result),
            }
            print(workload, seed, ref[workload][str(seed)], flush=True)
    cfgs = [bench.seeded(harness, name, 1) for name in bench.DE_CONFIGS]
    ref[bench.DE_WORKLOAD] = {"thresholds_db": {
        name: gf.de.threshold_search(cfg, harness.expected_active_gains(cfg))
        for name, cfg in zip(bench.DE_CONFIGS, cfgs)}}
    bench.REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
