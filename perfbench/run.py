#!/usr/bin/env python3
"""The repository benchmark.

Builds the library and the benchmark binary from the checkout it sits
in (into .bench_build/perfbench), runs one workload, checks the
outputs and prints one JSON object as the last line of stdout:

  python3 perfbench/run.py --workload paper_grid --seed 0 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer ones.  Two maintenance modes:

  python3 perfbench/run.py --record-reference
      rewrite perfbench/reference/<workload>.json from seed 0
  python3 perfbench/run.py --check-counters --workload stream_shard
      run the traced pass at 4, 4 and 1 threads and require identical
      work counters

The thread budget is min(nproc, 4).  See perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "perfbench"
REFERENCE = BENCH / "reference"
WORKLOADS = ["paper_grid", "input_poison", "stream_shard"]
SCENARIOS = ["fig3", "fig4", "fig8", "fig9", "streaming_wave",
             "streaming_ramp", "streaming_drift", "shard_fault_loss",
             "shard_fault_mixed", "streaming_equiv"]
BINARY_TIMEOUT_S = 170

# (recovered column, Before column) pairs behind recover_mse_ratio.
RECOVERY_PAIRS = {
    "fig3": [("LDPRecover", "Before")],
    "fig9": [("LDPRecover-KM", "Before")],
    "streaming_wave": [("WaveRec", "WaveMSE")],
    "streaming_ramp": [("Rec", "MSE")],
    "streaming_drift": [("Rec", "MSE")],
    "shard_fault_loss": [("RecL0", "MgaL0"), ("RecL50", "MgaL50")],
}
# Columns that must read exactly this value in every row.
EXACT_COLUMNS = {
    "streaming_equiv": {"CountDrift": 0.0},
    "shard_fault_mixed": {"DupDrift": 0.0, "TornRej": 1.0, "FlipRej": 1.0},
}

SPANS = ["data.resolve_s", "ldp.make_protocol_s", "ldp.sample_genuine_s",
         "ldp.perturb_s", "ldp.aggregate_s", "attack.craft_s",
         "recover.detection_s", "recover.kmeans_s", "recover.ldprecover_s",
         "stream.replay_s", "stream.run_s", "shard.plan_s", "shard.worker_s",
         "shard.encode_s", "shard.deliver_s", "shard.merge_s"]
COUNTS = ["ldp.sample_genuine_users", "ldp.perturb_reports",
          "ldp.aggregate_reports", "attack.crafted_reports",
          "recover.detection_offered", "recover.detection_kept",
          "recover.kmeans_calls", "recover.ldprecover_calls",
          "recover.simplex_iters", "stream.replay_reports", "stream.reports",
          "stream.windows", "shard.lines_total", "shard.lines_rejected"]


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def thread_budget():
    return min(os.cpu_count() or 1, 4)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} holds no library source tree to build", code=2)
    tmp = ROOT / ".bench_build" / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "perfbench", "-j", str(thread_budget())])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=850)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:] + done.stderr[-4000:])
            fail("build failed: " + " ".join(step))


def run_binary(workload, seed, seconds, trace, threads):
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--threads", str(threads),
           "--trace", str(trace)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark binary timed out after {BINARY_TIMEOUT_S} s: {' '.join(cmd)}")
    if done.returncode != 0:
        sys.stderr.write(done.stderr[-4000:])
        fail(f"benchmark binary exited with {done.returncode}: {' '.join(cmd)}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def value(text):
    return float.fromhex(text) if "nan" not in text else math.nan


# ------------------------------------------------------------- checks

class Checks:
    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)


def accuracy_view(scenario):
    """The scenario's tables with timing columns dropped (exact text)."""
    timing = set(scenario["timing_columns"])
    view = []
    for table in scenario["tables"]:
        keep = [i for i, c in enumerate(table["columns"]) if c not in timing]
        view.append({
            "title": table["title"],
            "columns": [table["columns"][i] for i in keep],
            "rows": [[row["label"], [row["values"][i] for i in keep]]
                     for row in table["rows"]]})
    return view


def check_outputs(result, checks):
    scenarios = result["scenarios"]
    passes = len(result["passes"])
    for scenario in scenarios:
        sid = scenario["id"]
        if passes > 1:
            checks.expect(sid not in result["pass_mismatches"],
                          f"{sid}: a repeated pass changed its rows")
        exact = EXACT_COLUMNS.get(sid, {})
        for table in scenario["tables"]:
            for row in table["rows"]:
                values = dict(zip(table["columns"],
                                  (value(v) for v in row["values"])))
                checks.expect(all(math.isfinite(v) for v in values.values()),
                              f"{sid} {row['label']}: non-finite value")
                for column, want in exact.items():
                    checks.expect(values[column] == want,
                                  f"{sid} {row['label']}: {column} = "
                                  f"{values[column]!r}, want {want!r}")

    if result["seed"] == 0:
        path = REFERENCE / f"{result['workload']}.json"
        reference = json.loads(path.read_text()) if path.is_file() else {}
        for scenario in scenarios:
            checks.expect(reference.get(scenario["id"]) ==
                          accuracy_view(scenario),
                          f"{scenario['id']}: rows differ from {path.name}")


# ------------------------------------------------------------ metrics

def metric(val, unit):
    return {"value": val, "unit": unit}


def recover_mse_ratio(scenarios):
    logs = []
    for scenario in scenarios:
        for table in scenario["tables"]:
            for rec, before in RECOVERY_PAIRS.get(scenario["id"], []):
                i, j = table["columns"].index(rec), table["columns"].index(before)
                for row in table["rows"]:
                    r, b = value(row["values"][i]), value(row["values"][j])
                    if r > 0 and b > 0 and math.isfinite(r / b):
                        logs.append(math.log(r / b))
    if not logs:
        fail("no recovery rows to form recover_mse_ratio")
    return math.exp(sum(logs) / len(logs))


def end_to_end(result):
    """Rates use the typical pass: the sum over scenarios of each
    scenario's median time across the run's passes."""
    passes = result["passes"]
    typical_s = sum(statistics.median(times) for times in
                    zip(*(p["scenario_s"] for p in passes)))
    return {
        "trials_per_s": metric(passes[0]["trials"] / typical_s, "1/s"),
        "users_per_s": metric(passes[0]["users"] / typical_s, "1/s"),
        "setup_s": metric(statistics.median(result["setup_s"]), "s"),
        "peak_heap_mb": metric(result["peak_heap_mb"], "MB"),
        "recover_mse_ratio": metric(recover_mse_ratio(result["scenarios"]),
                                    "ratio"),
    }


def ns_per_report(seconds, reports):
    return 1e9 * seconds / reports if reports else 0.0


def per_layer(result, checks):
    t = result["trace"]
    spans, counts, sums = t["span_s"], t["counts"], t["sums"]
    out = {name: metric(spans.get(name, 0.0), "s") for name in SPANS}
    out.update({name: metric(counts.get(name, 0), "count") for name in COUNTS})
    out["shard.wire_bytes"] = metric(counts.get("shard.wire_bytes", 0), "bytes")
    out["stream.peak_buffered_reports"] = metric(
        t["maxima"].get("stream.peak_buffered_reports", 0), "count")

    crafted = counts.get("attack.crafted_reports", 0)
    out["attack.craft_ns_per_report"] = metric(
        ns_per_report(spans.get("attack.craft_s", 0.0), crafted), "ns")
    ipa = sorted(t["ipa"])  # [m, seconds, reports], ascending m
    lo, hi = (ipa[0], ipa[-1]) if ipa else ([0, 0.0, 0], [0, 0.0, 0])
    out["attack.ipa_ns_per_report_min_m"] = metric(
        ns_per_report(lo[1], lo[2]), "ns")
    out["attack.ipa_ns_per_report_max_m"] = metric(
        ns_per_report(hi[1], hi[2]), "ns")

    offered = counts.get("recover.detection_offered", 0)
    out["recover.detection_keep_ratio"] = metric(
        counts.get("recover.detection_kept", 0) / offered if offered else 0.0,
        "ratio")
    runs = counts.get("recover.kmeans_defense_runs", 0)
    out["recover.kmeans_malicious_subset_frac"] = metric(
        sums.get("recover.kmeans_malicious_subset_frac", 0.0) / runs
        if runs else 0.0, "ratio")
    lines = counts.get("shard.lines_total", 0)
    out["shard.merge_accept_ratio"] = metric(
        1.0 - counts.get("shard.lines_rejected", 0) / lines if lines else 0.0,
        "ratio")

    out["util.pool_wait_s"] = metric(t["pool_wait_s"], "s")
    out["util.pool_idle_s"] = metric(t["pool_idle_s"], "s")
    out["sim.glue_s"] = metric(t["glue_s"], "s")
    coverage = t["coverage"]
    out["trace.coverage"] = metric(coverage, "ratio")
    out["trace.overhead_frac"] = metric(
        statistics.median(t["traced_s"]) / t["untraced_s"] - 1.0, "ratio")
    for sid in SCENARIOS:
        out[f"runner.{sid}_s"] = metric(
            t["runner_s"].get(f"runner.{sid}_s", 0.0), "s")

    for sid in (s["id"] for s in result["scenarios"]):
        checks.expect(sid not in t["unit_mismatches"],
                      f"{sid}: a traced unit differs from its entry point")
        checks.expect(sid not in t["row_mismatches"],
                      f"{sid}: traced rows differ from RunScenario's")
    checks.expect(t["repeat_ok"], "counters changed between traced passes")
    checks.expect(coverage >= 0.95,
                  f"layer spans cover {coverage:.3f} of traced busy time")
    return out


def print_layer_table(metrics):
    print(f"{'per-layer metric':<40} {'value':>18}  unit")
    for name, m in metrics.items():
        print(f"{name:<40} {m['value']:>18.6g}  {m['unit']}")


# -------------------------------------------------------------- modes

def record_reference(threads):
    REFERENCE.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        result = run_binary(workload, 0, 0, 0, threads)
        view = {s["id"]: accuracy_view(s) for s in result["scenarios"]}
        path = REFERENCE / f"{workload}.json"
        path.write_text(json.dumps(view, indent=1, ensure_ascii=False) + "\n")
        print(f"wrote {path.relative_to(ROOT)}")


def check_counters(workload, threads):
    keys = ("counts", "maxima", "sums")
    runs = {}
    for label, n in (("first", threads), ("second", threads), ("serial", 1)):
        trace = run_binary(workload, 0, 0, 1, n)["trace"]
        runs[label] = {k: trace[k] for k in keys}
        runs[label]["ipa_reports"] = [[m, r] for m, _, r in trace["ipa"]]
    same = runs["first"] == runs["second"] == runs["serial"]
    print(json.dumps(runs["first"], indent=1, sort_keys=True))
    print(f"{workload}: counters at threads {threads}, {threads}, 1 "
          f"{'identical' if same else 'DIFFER'}")
    return 0 if same else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-reference", action="store_true")
    parser.add_argument("--check-counters", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    build()
    threads = thread_budget()
    if args.record_reference:
        record_reference(threads)
        return 0
    if not args.workload:
        parser.error("--workload is required")
    if args.check_counters:
        return check_counters(args.workload, threads)

    result = run_binary(args.workload, args.seed, args.seconds, args.trace,
                        threads)
    checks = Checks()
    check_outputs(result, checks)
    if args.trace:
        metrics = per_layer(result, checks)
        print_layer_table(metrics)
    else:
        metrics = end_to_end(result)
    print(json.dumps({"correct": checks.failed == 0,
                      "attempted": checks.attempted,
                      "failed": checks.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
