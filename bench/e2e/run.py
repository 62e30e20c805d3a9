#!/usr/bin/env python3
"""Builds and runs the end-to-end control-plane benchmark.

Benchmark mode runs one workload and prints one JSON line:

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

With --trace 0 the line carries the end-to-end metrics of BENCHMARK.json,
measured by dfim_e2e. With --trace 1 it carries the per-layer metrics: the
seconds are split between dfim_e2e and dfim_e2e_traced, and the traced
outcome must equal the untraced one.

Suite mode (bench/e2e/run.sh) runs every workload, one fresh process per
rep, prints every metric with its unit and writes bench/e2e/out/results.json
(bench/e2e/baseline.json with --baseline, which refuses a dirty tree):

    bench/e2e/run.sh [--seed N] [--reps N] [--workloads a,b] [--trace]
                     [--smoke] [--baseline]

Both modes first build bench/e2e with CMake into .bench_build/e2e and exit
non-zero when a self-check fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SERVICE_WORKLOADS = {"phase_closed", "montage_durable", "tenants_batched"}
SHARDS = {"tenants_batched": 4}
# Index spans that make up lineitem_index's timed run (set-up spans excluded).
INDEX_RUN_LAYERS = ["index.bptree.LookupBatch", "index.hash.Lookup",
                    "index.bptree.ScanRange", "index.bptree.Insert",
                    "index.hash.Insert"]
# Binaries get a fixed grace beyond the measured seconds before being killed.
BINARY_GRACE_S = 120


def die(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(2)


def build_env():
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    # Compiler temporaries stay inside the checkout.
    return dict(os.environ, TMPDIR=str(tmp))


def build():
    if not (ROOT / "src" / "core" / "service.h").is_file():
        die(f"dfim sources not found under {ROOT / 'src'}")
    env = build_env()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", str(BUILD), "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(HERE), "-B", str(BUILD)])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            die("build failed: " + " ".join(cmd))


def run_binary(name, workload, seed, seconds, smoke):
    """Runs one benchmark process; returns its parsed JSON report."""
    cmd = [str(BUILD / name), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)] + (["--smoke"] if smoke else [])
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=build_env(),
                              timeout=seconds + BINARY_GRACE_S)
    except subprocess.TimeoutExpired:
        die(f"{name} {workload} timed out")
    sys.stderr.write(proc.stderr)
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        die(f"{name} {workload} exited {proc.returncode} without a report")
    report["exit_code"] = proc.returncode
    return report


def throughputs(report):
    return [r["items"] / r["run_s"] for r in report["reps"]]


def end_to_end(reports):
    """Per-process end-to-end values: medians over each process's reps."""
    return [{"throughput_per_s": statistics.median(throughputs(r)),
             "setup_s": statistics.median(x["setup_s"] for x in r["reps"]),
             "peak_rss_mb": r["peak_rss_mb"]} for r in reports]


def index_rates(report):
    """Operations per wall-second of each index operation type (0 on the
    service workloads, whose reps carry no per-type timings)."""
    reps = report["reps"]
    return {f"index.{op}_per_s":
            statistics.median(x[op] / x[key] for x in reps)
            if op in reps[0] else 0.0
            for op, key in (("lookups", "lookup_s"), ("scans", "scan_s"),
                            ("inserts", "insert_s"))}


def per_layer(workload, untraced, traced):
    """Every per-layer metric of BENCHMARK.json, from one traced and one
    untraced report of the same workload and seed."""
    layers = traced["trace"]["layers"]
    m = {f"{layer}.{stat}": value for layer, stats in layers.items()
         for stat, value in stats.items()}
    outcome = traced["outcome"]
    run_ms = 1e3 * statistics.mean(x["run_s"] for x in traced["reps"])
    if workload in SERVICE_WORKLOADS:
        root = layers["core.service.Run"]
        attributed = 100.0 * (1.0 - root["self_ms"] / root["busy_ms"])
        # Mean shard busy time is the thread-summed Run time over the shards;
        # the busiest shard sets the wall time of the sharded run.
        imbalance = (run_ms / (root["busy_ms"] / SHARDS[workload])
                     if workload in SHARDS else 1.0)
    else:
        attributed = 100.0 * sum(layers[l]["busy_ms"]
                                 for l in INDEX_RUN_LAYERS) / run_ms
        imbalance = 1.0
    m.update({
        "sched.exec.killed_frac": outcome.get("killed_frac", 0.0),
        "sched.exec.spec_win_frac": outcome.get("spec_win_frac", 0.0),
        "core.admission.queue_delay_mean_q":
            outcome.get("queue_delay_mean_q", 0.0),
        "core.journal.mb": outcome.get("journal_mb", 0.0),
        "shard.imbalance": imbalance,
        "trace.overhead_pct": 100.0 * (
            statistics.median(throughputs(untraced)) /
            statistics.median(throughputs(traced)) - 1.0),
        "trace.attributed_pct": attributed,
        "sim.goodput": outcome.get("goodput", 0.0),
        "sim.cost_per_dataflow_q": outcome.get("cost_per_dataflow_q", 0.0),
        "sim.response_p50_q": outcome.get("response_p50_q", 0.0),
        "sim.response_p90_q": outcome.get("response_p90_q", 0.0),
        "sim.failed_frac": outcome.get("failed_frac", 0.0),
    })
    m.update(index_rates(untraced))
    return m


def required_layers():
    """{workload: [(layer, symbol)]} from trace_wrap.syms."""
    need = {w: [] for w in WORKLOADS}
    for line in (HERE / "trace_wrap.syms").read_text().splitlines():
        if not line[:1].islower():
            continue
        layer, symbol, *workloads = line.split()
        for w in workloads:
            need[w].append((layer, symbol))
    return need


def check(workload, untraced, traced):
    """Self-checks of the reports; returns the names of failed ones.
    Unreached or unwrapped entry points only warn: a renamed symbol must not
    stop the benchmark."""
    failed = []
    for r in untraced + traced:
        failed += [f"{r['workload']}:{name}"
                   for name, ok in r["checks"].items() if not ok]
        if r["exit_code"] != 0:
            failed.append(f"{r['workload']}:exit_code")
    outcomes = [r["outcome"] for r in untraced + traced]
    if any(o != outcomes[0] for o in outcomes):
        failed.append(f"{workload}:outcome_identical_across_processes")
    for r in traced:
        layers = r["trace"]["layers"]
        if workload in SERVICE_WORKLOADS:
            # Self times partition the root span: they must sum to Run's
            # busy time.
            total = sum(s["self_ms"] for l, s in layers.items()
                        if not l.startswith(("index.", "tpch.")))
            busy = layers["core.service.Run"]["busy_ms"]
            if abs(total - busy) > 1e-6 * busy:
                failed.append(f"{workload}:self_times_cover_run")
        for layer, symbol in required_layers()[workload]:
            if layers[layer]["calls"] == 0:
                print(f"WARNING: {workload} never reached {layer} ({symbol})",
                      file=sys.stderr)
    return failed


def metric_values(names, values):
    missing = [n["name"] for n in names if n["name"] not in values]
    if missing:
        die("metrics not measured: " + ", ".join(missing))
    return {n["name"]: {"value": values[n["name"]], "unit": n["unit"]}
            for n in names}


def benchmark_mode(args):
    build()
    seed, seconds, trace = args.seed, args.seconds, args.trace == "1"
    if not trace:
        untraced = [run_binary("dfim_e2e", args.workload, seed, seconds,
                               False)]
        traced = []
        values = end_to_end(untraced)[0]
        names = SPEC["end_to_end"]
    else:
        untraced = [run_binary("dfim_e2e", args.workload, seed, seconds / 2,
                               False)]
        traced = [run_binary("dfim_e2e_traced", args.workload, seed,
                             seconds / 2, False)]
        values = per_layer(args.workload, untraced[0], traced[0])
        names = SPEC["per_layer"]
    failed = check(args.workload, untraced, traced)
    for name in failed:
        print(f"CHECK FAILED: {name}", file=sys.stderr)
    attempted = sum(int(x["items"]) for r in untraced + traced
                    for x in r["reps"])
    print(json.dumps({
        "correct": not failed,
        "attempted": attempted,
        "failed": attempted if failed else 0,
        "metrics": metric_values(names, values),
    }))
    return 0 if not failed else 1


# ---- Suite mode ---------------------------------------------------------------


def stats(values):
    """Median, quartiles, min, max and every run (SNIPPETS.md snippet 1)."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else (values[0],) * 3)
    return {"median": med, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values), "runs": values}


def git(*cmd):
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    proc = subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True,
                          text=True, env=env)
    return proc.stdout.strip() if proc.returncode == 0 else None


def meta(args, reps):
    info = json.loads((BUILD / "build_info.json").read_text())
    status = git("status", "--porcelain")
    return {
        "git_sha": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "compiler": info["compiler"],
        "flags": info["flags"],
        "seed": args.seed,
        "reps": reps,
        "smoke": args.smoke,
    }


def suite_mode(args):
    if args.baseline and git("status", "--porcelain") != "":
        die("--baseline refuses a dirty tree or a checkout outside git")
    build()
    workloads = args.workloads.split(",") if args.workloads else WORKLOADS
    unknown = set(workloads) - set(WORKLOADS)
    if unknown:
        die("unknown workloads: " + ", ".join(sorted(unknown)))
    reps = 1 if args.smoke else args.reps
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    units.update({m["name"]: m["unit"] for m in SPEC["per_layer"]})
    results, all_failed = {}, []
    for w in workloads:
        untraced = [] if args.trace == "1" else [
            run_binary("dfim_e2e", w, args.seed, 0, args.smoke)
            for _ in range(reps)]
        traced = [run_binary("dfim_e2e_traced", w, args.seed, 0, args.smoke)]
        failed = check(w, untraced, traced)
        all_failed += failed
        entry = {"outcome": traced[0]["outcome"], "failed_checks": failed}
        if untraced:
            per_run = end_to_end(untraced)
            entry["end_to_end"] = {
                name: dict(stats([r[name] for r in per_run]),
                           unit=units[name]) for name in per_run[0]}
            entry["per_layer"] = per_layer(w, untraced[0], traced[0])
        else:
            layers = traced[0]["trace"]["layers"]
            entry["per_layer"] = {f"{l}.{s}": v for l, st in layers.items()
                                  for s, v in st.items()}
        results[w] = entry
        print(f"\n== {w} (seed {args.seed}, {len(untraced)} untraced + 1 "
              f"traced process)")
        for name, s in entry.get("end_to_end", {}).items():
            print(f"  {name:40s} {s['median']:>14.6g} {s['unit']:10s} "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  min {s['min']:.6g}  "
                  f"max {s['max']:.6g}")
        for name, v in entry["outcome"].items():
            print(f"  outcome.{name:32s} {v:>14.10g}")
        for name, v in entry["per_layer"].items():
            print(f"  {name:40s} {v:>14.6g} {units.get(name, '')}")
        for name in failed:
            print(f"  CHECK FAILED: {name}")
    doc = {"meta": meta(args, reps), "workloads": results}
    if args.baseline:
        out = HERE / "baseline.json"
    else:
        out = HERE / "out" / "results.json"
        out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"\nwrote {out.relative_to(ROOT)}; self-checks "
          f"{'FAILED' if all_failed else 'passed'}")
    return 1 if all_failed else 0


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS,
                   help="benchmark mode: run this workload only")
    p.add_argument("--seed", type=int, default=23,
                   help="workload seed (default 23; 29 is the holdout)")
    p.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"],
                   help="benchmark mode: 0 = end-to-end, 1 = per-layer; "
                        "suite mode: run only the traced process")
    p.add_argument("--reps", type=int, default=5,
                   help="suite mode: untraced processes per workload")
    p.add_argument("--workloads", help="suite mode: comma-separated subset")
    p.add_argument("--smoke", action="store_true",
                   help="suite mode: short horizons, one rep")
    p.add_argument("--baseline", action="store_true",
                   help="suite mode: write baseline.json from a clean tree")
    args = p.parse_args()
    return benchmark_mode(args) if args.workload else suite_mode(args)


if __name__ == "__main__":
    sys.exit(main())
