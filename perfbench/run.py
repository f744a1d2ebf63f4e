#!/usr/bin/env python3
"""The repository benchmark: NICE-MC on four workloads, counts gated.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which builds the nicemc library from src/) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs the
workload for S seconds, checks every search's counts and verdict against
perfbench/pins.json, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`. --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 its per-layer metrics.
Details (gate failures, sample counts, the parallel-symmetry drift
self-check) go to stderr and to <build dir>/last-<workload>-<trace>.json.
Exits non-zero without a result when the build, a run or a self-test
fails.
"""
import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEADLINE_S = 175  # every run ends within 180 s once the build exists
BUILD_DEADLINE_S = 850
# Telemetry phases that cover exactly one layer's calls.
PHASE_LAYERS = ("clone", "apply", "enabled")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg, code=1):
    log(msg)
    sys.exit(code)


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"


def build(out):
    """Configure once, then build incrementally; the log goes to stderr."""
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_DEADLINE_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}", 2)
        if done.returncode != 0:
            sys.stderr.write(done.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {done.returncode}", 2)
    return out / "perfbench"


def run_worker(exe, args, deadline):
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        fail("no time left to run the workload")
    try:
        done = subprocess.run([str(exe)] + args, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args[:3])} did not finish in time")
    if done.returncode != 0:
        fail(f"{' '.join(args[:3])} exited {done.returncode}")
    return json.loads(done.stdout)


# --- Correctness gate --------------------------------------------------------

def expected(pins, workload, cell):
    """The pinned outcome of one cell, references resolved."""
    want = dict(pins[workload]["cells"][cell])
    ref = want.pop("unique_equals", None)
    if ref is not None:
        ref_workload, ref_cell = ref.split("/", 1)
        want["unique"] = pins[ref_workload]["cells"][ref_cell]["unique"]
    return want


def check(record, want):
    """Why one search's outcome differs from its pin (empty: it matches)."""
    why = []
    if record["error"]:
        why.append(f"crashed: {record['error']}")
    if record["limit"] != "none":
        why.append(f"hit the {record['limit']} limit")
    found = record["violations"] > 0
    for key, got in (("transitions", record["transitions"]),
                     ("unique", record["unique"]),
                     ("violations", record["violations"]),
                     ("exhausted", record["exhausted"]),
                     ("found", found)):
        if key in want and want[key] != got:
            why.append(f"{key} {got} != pinned {want[key]}")
    if "transitions_max" in want and record["transitions"] > want["transitions_max"]:
        why.append(f"transitions {record['transitions']} > {want['transitions_max']}")
    return why


def gate(result, pins, workload):
    """Failed searches, grouped by outcome with their reasons and counts.

    A failed search is never dropped or retimed: it counts in `failed`.
    """
    failures = []
    for group in result["outcomes"]:
        cell = result["cells"][group["cell"]]
        why = check(group, expected(pins, workload, cell))
        if why:
            failures.append({"cell": cell, "kind": group["kind"],
                             "count": group["count"], "why": why})
    return failures


def gate_self_test(result, pins, workload):
    """A deliberately wrong pin must fail every search of that cell."""
    wrong = copy.deepcopy(pins)
    cell = result["cells"][0]
    pin = wrong[workload]["cells"][cell]
    if "transitions" in pin:
        pin["transitions"] += 1
    else:
        pin["violations"] = pin.get("violations", 0) + 1
    of_cell = sum(g["count"] for g in result["outcomes"] if g["cell"] == 0)
    caught = sum(f["count"] for f in gate(result, wrong, workload)
                 if f["cell"] == cell)
    if caught != of_cell:
        fail(f"gate self-test: a wrong pin on {cell} failed {caught} of "
             f"{of_cell} searches", 3)


# --- Metrics -----------------------------------------------------------------

def percentile(values, q):
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def ratio(num, den):
    return num / den if den else 0.0


def end_to_end(result):
    searches = result["ttfv_ns"]
    setup = ([b + c for b, c in zip(result["build_ns"], result["construct_ns"])]
             + result["search_setup_ns"])
    return {
        "wall_s": (statistics.median(result["sample_ns"]) / 1e9, "s"),
        "cpu_s": (statistics.median(result["sample_cpu_ns"]) / 1e9, "s"),
        "peak_rss_mb": (result["peak_rss_bytes"] / 1e6, "MB"),
        "setup_s": (statistics.median(setup) / 1e9, "s"),
        "ttfv_p50_ms": (percentile(searches, 50) / 1e6, "ms"),
        "ttfv_p90_ms": (percentile(searches, 90) / 1e6, "ms"),
    }, {"verdict_samples": len(result["sample_ns"]),
        "ttfv_samples": len(searches), "setup_samples": len(setup)}


def per_layer(result):
    chk = result["checker"]
    phases = chk["phases"]
    spans = result["spans"]
    layers = spans["layers"]
    wall = chk["telemetry_wall_ns"]

    def phase_share(name):
        return ratio(phases[name]["ns"], wall)

    if spans["count"]:
        base = spans["root_ns"]

        def share(layer):
            return ratio(layers[layer]["self_ns"], base)

        def per_call(layer):
            return ratio(layers[layer]["self_ns"], layers[layer]["count"])

        overhead = (statistics.median(result["traced_ns"]) /
                    statistics.median(result["untraced_ns"]) - 1.0)
        unattributed = ratio(spans["root_self_ns"], base)
        bytes_per_state = ratio(spans["seen_heap_bytes"], spans["seen_states"])
        kept = ratio(spans["kept"], spans["enabled_out"])
    else:
        # No traced search: a telemetry phase stands in where it covers exactly
        # one layer. The others (hash and insert share the remember phase,
        # at_quiescence shares property_check with the monitors) cannot be
        # split from outside the program; they read None, printed as 0.
        def share(layer):
            return phase_share(layer) if layer in PHASE_LAYERS else None

        def per_call(layer):
            if layer not in PHASE_LAYERS:
                return None
            return ratio(phases[layer]["ns"], phases[layer]["count"])

        # The telemetry run's extra cost stands in for the tracing overhead.
        overhead = ratio(result["telemetry_run_ns"],
                         statistics.median(result["untraced_ns"])) - 1.0
        unattributed = phase_share("other")
        bytes_per_state = None
        kept = None

    metrics = {
        "mc.system.clone_share": (share("clone"), "frac"),
        "mc.system.clone_ns": (per_call("clone"), "ns"),
        "mc.execute.apply_share": (share("apply"), "frac"),
        "mc.execute.apply_ns": (per_call("apply"), "ns"),
        "util.hash.state_hash_share": (share("state_hash"), "frac"),
        "util.hash.state_hash_ns": (per_call("state_hash"), "ns"),
        "util.seen_set.insert_ns": (per_call("insert"), "ns"),
        "util.seen_set.revisit_ratio": (
            ratio(chk["revisits"], chk["transitions"]), "frac"),
        "util.seen_set.bytes_per_state": (bytes_per_state, "B"),
        "mc.sym_reduce.canonical_key_share": (share("canonical_key"), "frac"),
        "mc.sym_reduce.canonical_key_ns": (per_call("canonical_key"), "ns"),
        "mc.execute.enabled_share": (share("enabled"), "frac"),
        "mc.execute.enabled_ns": (per_call("enabled"), "ns"),
        "mc.discover.solver_queries": (chk["solver_queries"], "count"),
        "mc.discover.handler_runs": (chk["handler_runs"], "count"),
        "mc.discover.memo_hit_ratio": (ratio(
            chk["discover_hits"], chk["discover_hits"] + chk["discover_misses"]),
            "frac"),
        "mc.strategy.kept_ratio": (kept, "frac"),
        "props.quiescence_ns": (per_call("quiescence"), "ns"),
        "mc.por.transitions_per_state": (
            ratio(chk["transitions"], chk["unique"]), "ratio"),
        "mc.por.footprint_share": (phase_share("footprint"), "frac"),
        "mc.memo.footprint_hit_ratio": (ratio(
            chk["footprint_hits"], chk["footprint_hits"] + chk["footprint_misses"]),
            "frac"),
        "mc.memo.bytes": (chk["memo_bytes"], "B"),
        "mc.parallel.idle_share": (phase_share("idle"), "frac"),
        "mc.parallel.cpu_per_wall": (ratio(result["telemetry_cpu_ns"],
                                           result["telemetry_run_ns"]), "ratio"),
        "mem.unattributed_mb": ((result["peak_rss_bytes"] -
                                 result["largest_store_bytes"]) / 1e6, "MB"),
        "apps.scenario_build_us": (statistics.median(result["build_ns"]) / 1e3,
                                   "us"),
        "mc.checker.construct_us": (
            statistics.median(result["construct_ns"]) / 1e3, "us"),
        "telemetry.other_share": (phase_share("other"), "frac"),
        "telemetry.remember_share": (phase_share("remember"), "frac"),
        "trace.overhead_frac": (overhead, "frac"),
        "trace.unattributed_share": (unattributed, "frac"),
    }
    unmeasured = sorted(name for name, (v, _) in metrics.items() if v is None)
    metrics = {name: (0.0 if v is None else v, unit)
               for name, (v, unit) in metrics.items()}
    return metrics, {
        "spans": spans["count"], "spans_written": spans["spans_written"],
        "unmeasured": unmeasured,
        "telemetry_phase_shares": {p: phase_share(p) for p in phases}}


def check_names(metrics, declared):
    """Every printed name and unit must be the one BENCHMARK.json declares."""
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: unit for name, (_, unit) in metrics.items()}
    if got != want:
        fail(f"metrics differ from BENCHMARK.json: printed "
             f"{sorted(set(got.items()) - set(want.items()))}, declared "
             f"{sorted(set(want.items()) - set(got.items()))}", 3)
    return {name: {"value": float(value), "unit": unit}
            for name, (value, unit) in sorted(metrics.items())}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    start = time.monotonic()

    try:
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        pins = json.loads((HERE / "pins.json").read_text())["workloads"]
    except (OSError, ValueError, KeyError) as e:
        fail(f"cannot read BENCHMARK.json / pins.json: {e}", 2)
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)

    out = build_dir()
    exe = build(out)
    deadline = time.monotonic() + DEADLINE_S
    mode = "trace" if args.trace else "run"
    spans_path = out / f"spans-{args.workload}.bin"
    cmd = [args.workload, "--mode", mode, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    result = run_worker(exe, cmd, deadline)
    drift = run_worker(exe, ["drift", "--mode", "drift"], deadline)["drift"]

    failures = gate(result, pins, args.workload)
    gate_self_test(result, pins, args.workload)
    attempted = sum(g["count"] for g in result["outcomes"])
    failed = sum(f["count"] for f in failures)
    if args.trace:
        values, info = per_layer(result)
        declared = bench["per_layer"]
    else:
        values, info = end_to_end(result)
        declared = bench["end_to_end"]
    metrics = check_names(values, declared)

    info.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "attempted": attempted, "failed": failed,
        "failed_frac": failed / attempted, "failures": failures[:20],
        "drift": drift, "elapsed_s": time.monotonic() - start,
    })
    (out / f"last-{args.workload}-{args.trace}.json").write_text(
        json.dumps({"info": info, "metrics": metrics}, indent=1) + "\n")
    for d in drift:
        log(f"drift self-check (not gated): {d['scenario']} at {d['threads']} "
            f"thread(s): {d['unique']} unique states, {d['transitions']} "
            f"transitions")
    for f in failures[:5]:
        log(f"FAILED {f['count']} {f['kind']} search(es) of {f['cell']}: "
            f"{'; '.join(f['why'])}")
    log(f"{attempted} searches, {failed} failed "
        f"(failed_frac {failed / attempted:.4f}); "
        + ", ".join(f"{k}={v}" for k, v in info.items()
                    if k.endswith("samples") or k in ("spans", "unmeasured")))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
