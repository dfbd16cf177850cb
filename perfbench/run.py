#!/usr/bin/env python3
"""gfrma benchmark: seeded Monte Carlo sweeps and a DE threshold search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload desk-sweep --seed 1 --seconds 4 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics listed in
BENCHMARK.json; with ``--trace 1`` it times the calls into each module's
public functions from outside (perfbench/tracer.py) and reports the
per-layer metrics. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; a
readable summary and a results file under perfbench/out/ come before it.

Every workload runs in a fresh process through the public API with
``workers=1``; set-up is timed in separate fresh processes (``--setup-probe``)
so that it shares no warm state with the timed calls. The seed reaches the
program only as ``master_seed``, folded onto the seeds that
perfbench/reference.json holds committed outputs for.
"""
import os

# Pinned before numpy is imported, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from tracer import Tracer  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

# name -> (config, mode, SNR grid in dB, trials per point). The grids sit
# below, in and above the waterfall around each config's DE threshold
# (DESK -7.76 dB, PAPER 1.03 dB). How many iterations a DESK trial needs
# varies from trial to trial, so the DESK sweeps run enough trials that
# their trials/s varies little from seed to seed.
SWEEPS = {
    "desk-sweep": ("DESK_CONFIG", "grant-free", (-8.5, -7.0, -5.5), 24),
    "paper-sweep": ("PAPER_CONFIG", "grant-free", (0.0, 2.0, 5.0), 2),
    "desk-registration": ("DESK_CONFIG", "registration", (-8.5, -7.0, -5.5),
                          48),
}
DE_WORKLOAD = "de-threshold"
WORKLOADS = (*SWEEPS, DE_WORKLOAD)

DE_CONFIGS = ("DESK_CONFIG", "PAPER_CONFIG")

# The outputs every run is checked against, written by perfbench/reference.py:
# per sweep and master seed, the sha256 of the snr_sweep_report CSV, the
# rates pooled over the grid and the access graph's edge count; and the
# threshold_search result per config. A change that means to alter these
# outputs reruns reference.py and says so.
REFERENCE_PATH = BENCH_DIR / "reference.json"
REFERENCE_SEEDS = 10
DE_TOL_DB = 0.05          # threshold_search's own tol_db
RATES = ("bler", "miss_rate", "false_alarm_rate")

# Set-up samples per run, each in a fresh process; the median is reported.
# Between runs the host's speed drifts more than the samples of one run
# vary: five or seven DESK samples per run gave no steadier median than
# three, and each costs a process start and a 1 s import.
SETUP_REPS = 3
PROBE_TIMEOUT_S = 120


def import_gfrma():
    """Import the package from this checkout's src/, or exit non-zero."""
    if not (SRC / "gfrma" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gfrma package under {SRC}")
    sys.path.insert(0, str(SRC))
    import gfrma
    import gfrma.de
    import gfrma.harness
    import gfrma.ldpc
    import gfrma.pattern
    if Path(gfrma.__file__).resolve().parent != SRC / "gfrma":
        sys.exit(f"perfbench: imported gfrma from {gfrma.__file__}, "
                 f"not from {SRC}")
    return gfrma


def master_seed(seed):
    """The program's seed for benchmark seed ``seed``: one of
    1..REFERENCE_SEEDS, so that every run has committed outputs to match."""
    return (seed - 1) % REFERENCE_SEEDS + 1


def seeded(harness, cfg_name, seed):
    return dataclasses.replace(getattr(harness, cfg_name), system_seed=seed)


def sweep_spec(harness, workload, seed):
    cfg_name, mode, grid, trials = SWEEPS[workload]
    return harness.ExperimentSpec(getattr(harness, cfg_name), grid,
                                  trials=trials, mode=mode,
                                  master_seed=seed, workers=1)


# ---------------------------------------------------------------------------
# set-up probes: each runs in a fresh process and prints one JSON line

def setup_probe(workload, seed):
    gf = import_gfrma()
    if workload == DE_WORKLOAD:
        cfg = seeded(gf.harness, DE_CONFIGS[0], seed)
        t0 = time.perf_counter()
        gf.de.run_de(cfg, gf.harness.expected_active_gains(cfg))
        return {"setup_s": time.perf_counter() - t0}
    cfg = seeded(gf.harness, SWEEPS[workload][0], seed)
    t0 = time.perf_counter()
    gf.ldpc.construct_parity_check(cfg.m, cfg.code_rate, cfg.d_v,
                                   cfg.system_seed)
    graph = gf.pattern.build_access_graph(cfg)
    return {"setup_s": time.perf_counter() - t0, "edges": int(graph.n_edges)}


def run_probe(workload, seed):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"set-up probe exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# exact counts that must repeat across runs of the same source

def source_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def counts_mismatch(workload, seed, counts):
    """Differences between these exact counts and the ones an earlier traced
    run of the same source recorded in perfbench/out/ledger.json, keyed by
    (workload, master seed, source digest); the counts are recorded if the
    key is new. A difference is a nondeterminism bug. Counts may change with
    the source, so they are not committed references."""
    path = OUT / "ledger.json"
    data = json.loads(path.read_text()) if path.is_file() else {}
    recorded = data.setdefault(
        f"{workload}/seed={seed}/src={source_digest()}", counts)
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(data, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return [f"{k}: {counts.get(k)} != recorded {recorded.get(k)}"
            for k in sorted(set(counts) | set(recorded))
            if counts.get(k) != recorded.get(k)]


# ---------------------------------------------------------------------------
# workloads

class Run:
    """Collects the checked operations, failures and outputs of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.info = {}

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def sweep_call(harness, spec, csv_path):
    """One timed monte_carlo call; the CSV digest is taken outside the timer."""
    t0 = time.perf_counter()
    result = harness.monte_carlo(spec)
    wall = time.perf_counter() - t0
    harness.snr_sweep_report(result, csv_path)
    return result, wall, hashlib.sha256(csv_path.read_bytes()).hexdigest()


def check_sweep(result, spec):
    """Problems with a sweep result's shape and ranges (empty if none)."""
    bad = []
    if [p.snr_db for p in result.points] != list(spec.snr_db_grid):
        bad.append("SNR grid of the result differs from the spec")
    for p in result.points:
        if p.trials != spec.trials:
            bad.append(f"{p.snr_db} dB: {p.trials} trials, not {spec.trials}")
        for name in ("bler", "ber", "miss_rate", "false_alarm_rate"):
            v = getattr(p, name)
            if not 0.0 <= v <= 1.0:
                bad.append(f"{p.snr_db} dB: {name} = {v}")
        if not 1 <= p.mean_iterations <= spec.cfg.max_iterations:
            bad.append(f"{p.snr_db} dB: mean_iterations = "
                       f"{p.mean_iterations}")
    # Each grid spans the waterfall: a receiver that decodes, decodes
    # better at the top of the grid than at the bottom.
    if not result.points[-1].bler < result.points[0].bler:
        bad.append("BLER does not fall from the lowest to the highest SNR")
    return bad


def pooled_rates(result):
    """Rates pooled over the grid. Every point has the same trials and, in
    fixed activity mode, the same active and inactive counts, so the pooled
    rate is the mean of the point rates."""
    return {name: statistics.fmean(getattr(p, name) for p in result.points)
            for name in RATES}


def run_sweep(args, run, gf, ref):
    harness = gf.harness
    spec = sweep_spec(harness, args.workload, args.master_seed)
    n_trials = spec.trials * len(spec.snr_db_grid)
    csv_path = OUT / f"{args.workload}-seed{args.seed}.csv"
    walls = []

    def call():
        result, wall, digest = sweep_call(harness, spec, csv_path)
        bad = check_sweep(result, spec)
        if digest != ref["csv_sha256"]:
            rates = pooled_rates(result)
            bad.append(f"CSV sha256 {digest} is not the reference "
                       f"{ref['csv_sha256']}; pooled "
                       + ", ".join(f"{k} {rates[k]:.6g} (reference "
                                   f"{ref[k]:.6g})" for k in RATES))
        run.op(not bad, "; ".join(bad))
        walls.append(wall)
        return result

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            result = call()
        metrics, counts = layer_metrics(tracer,
                                        overhead_ratio(tracer, walls[0]))
        if counts.get("receiver.joint_decode.calls") == n_trials:
            expected = sum(round(p.mean_iterations * p.trials)
                           for p in result.points)
            run.op(counts["receiver.iterations"] == expected,
                   f"traced iterations {counts['receiver.iterations']} != "
                   f"{expected} from the sweep result")
        finish_trace(args, run, tracer, counts)
    else:
        probes = [run_probe(args.workload, args.master_seed)
                  for _ in range(SETUP_REPS)]
        for p in probes:
            run.op(p["edges"] == ref["pattern.edges"],
                   f"set-up built {p['edges']} edges, not the reference "
                   f"{ref['pattern.edges']}")
        t0 = time.perf_counter()
        result = call()
        while time.perf_counter() - t0 < args.seconds:
            call()
        metrics = {
            "setup_s": statistics.median(p["setup_s"] for p in probes),
            "ops_per_s": statistics.median(n_trials / w for w in walls),
            "peak_rss_mb": peak_rss_mb(),
        }
        run.info["setup_samples_s"] = [p["setup_s"] for p in probes]
        run.info["summary"] = {"trials_per_s": metrics["ops_per_s"],
                               **pooled_rates(result)}
    run.info["points"] = [dataclasses.asdict(p) for p in result.points]
    run.info["monte_carlo_wall_s"] = walls
    run.info["trials_per_call"] = n_trials
    return metrics


def run_de_threshold(args, run, gf, ref):
    de, harness = gf.de, gf.harness
    cfgs = {name: seeded(harness, name, args.master_seed)
            for name in DE_CONFIGS}
    first = cfgs[DE_CONFIGS[0]]
    pairs = []

    def pair():
        t0 = time.perf_counter()
        found = {name: de.threshold_search(
                     cfg, harness.expected_active_gains(cfg))
                 for name, cfg in cfgs.items()}
        wall = time.perf_counter() - t0
        bad = [f"{n} threshold {v} dB is more than {DE_TOL_DB} dB from "
               f"the reference {ref['thresholds_db'][n]} dB"
               for n, v in found.items()
               if abs(v - ref["thresholds_db"][n]) > DE_TOL_DB]
        if pairs and found != pairs[0][0]:
            bad.append(f"thresholds {found} differ from {pairs[0][0]} "
                       f"found earlier in this run")
        run.op(not bad, "; ".join(bad))
        pairs.append((found, wall))

    if args.trace:
        tracer = Tracer()
        t0 = time.perf_counter()
        with tracer.installed():
            de.run_de(first, harness.expected_active_gains(first))
            pair()
        traced_wall = time.perf_counter() - t0
        metrics, counts = layer_metrics(tracer,
                                        overhead_ratio(tracer, traced_wall))
        finish_trace(args, run, tracer, counts)
    else:
        probes = [run_probe(args.workload, args.master_seed)
                  for _ in range(SETUP_REPS - 1)]
        t0 = time.perf_counter()
        de.run_de(first, harness.expected_active_gains(first))
        setup = [time.perf_counter() - t0] + [p["setup_s"] for p in probes]
        t0 = time.perf_counter()
        pair()
        while time.perf_counter() - t0 < args.seconds:
            pair()
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": statistics.median(len(cfgs) / w for _, w in pairs),
            "peak_rss_mb": peak_rss_mb(),
        }
        run.info["setup_samples_s"] = setup
        run.info["summary"] = {
            "threshold_s": statistics.median(w for _, w in pairs)}
    run.info["thresholds_db"] = pairs[0][0]
    run.info["threshold_pair_wall_s"] = [w for _, w in pairs]
    return metrics


# ---------------------------------------------------------------------------
# per-layer metrics from the trace

def overhead_ratio(tracer, traced_wall):
    """Traced wall time over the same time less the wrappers' own cost,
    which is the number of spans times the measured cost of one span."""
    own = len(tracer.spans) * Tracer.span_cost()
    return traced_wall / (traced_wall - own)


def layer_metrics(tracer, overhead):
    """Per-layer metrics and the exact counts block of one traced run."""
    tot = tracer.totals()
    c = tracer.counts

    def calls(n):
        return tot[n][0] if n in tot else 0

    def secs(n):
        return tot[n][1] if n in tot else 0.0

    def self_s(n):
        return tot[n][2] if n in tot else 0.0

    def per(num, den):
        return num / den if den else 0.0

    decodes = calls("receiver.joint_decode")
    counts = {f"{n}.calls": calls(n) for n in sorted(tot)}
    counts.update({k: v for k, v in sorted(c.items())
                   if k != "pattern.draws"})
    stop = {r: c[f"receiver.stop.{r}"]
            for r in ("all_declared_decoded", "max_iterations", "stalled")}
    metrics = {
        "pattern.build_access_graph.s": secs("pattern.build_access_graph"),
        "pattern.draws_per_s": per(c["pattern.draws"],
                                   secs("pattern.build_access_graph")),
        "pattern.edges": c["pattern.edges"],
        "ldpc.construct_parity_check.s": secs("ldpc.construct_parity_check"),
        "receiver.iterations": c["receiver.iterations"],
        "receiver.s_per_iter": per(secs("receiver.joint_decode"),
                                   c["receiver.iterations"]),
        "receiver.joint_decode.self_s": self_s("receiver.joint_decode"),
        "receiver.converged_ratio": per(decodes - stop["max_iterations"],
                                        decodes),
        "harness.monte_carlo.self_s": self_s("harness.monte_carlo"),
        "harness.trial_stats.s": secs("harness.trial_stats"),
        "phy.make_ground_truth.s": secs("phy.make_ground_truth"),
        "phy.superpose.s": secs("phy.superpose"),
        "trace.overhead_ratio": overhead,
    }
    for r, n in stop.items():
        metrics[f"receiver.stop.{r}"] = n
    for n in ("ldpc.check_messages", "ldpc.EdgeLayout.from_code",
              "ldpc.encode", "receiver.joint_decode", "de.j_function",
              "de.j_inverse", "de.mi_step"):
        metrics[f"{n}.calls"] = calls(n)
        metrics[f"{n}.s"] = secs(n)
    metrics["de.de_converges.calls"] = calls("de.de_converges")
    return metrics, counts


def finish_trace(args, run, tracer, counts):
    diff = counts_mismatch(args.workload, args.master_seed, counts)
    run.op(not diff, "counts differ from an earlier run of the same "
                     "source: " + "; ".join(diff))
    tracer.write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl")
    run.info["counts"] = counts
    run.info["spans"] = len(tracer.spans)


# ---------------------------------------------------------------------------

def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment():
    import numpy
    import scipy
    return {
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": {v: os.environ[v] for v in THREAD_VARS},
    }


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=4.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    args.master_seed = master_seed(args.seed)
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed)))
        return 0

    declared = declared_metrics(args.trace)
    gf = import_gfrma()
    OUT.mkdir(exist_ok=True)
    run = Run()
    ref = json.loads(REFERENCE_PATH.read_text())[args.workload]
    if args.workload != DE_WORKLOAD:
        ref = ref[str(args.master_seed)]
    body = run_de_threshold if args.workload == DE_WORKLOAD else run_sweep
    metrics = body(args, run, gf, ref)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not computed: {missing}")

    report = {
        "workload": args.workload, "seed": args.seed,
        "master_seed": args.master_seed, "trace": args.trace,
        "environment": environment(), "metrics": metrics,
        "failures": run.failures, **run.info,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(report, indent=1))
    for m in declared:
        print(f"{m['name']:34s} {metrics[m['name']]:>14.6g} {m['unit']}")
    for name, value in run.info.get("summary", {}).items():
        print(f"{name:34s} {value:>14.6g}")
    for f in run.failures:
        print(f"FAILED: {f}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
