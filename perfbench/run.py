#!/usr/bin/env python3
"""Repository benchmark: whole-pipeline MIPS and per-layer host time.

Builds `mosaic-perfbench` (the Rust package next to this file) and runs
one workload in repeated single-threaded processes, one simulation per
process, one process at a time, until `--seconds` of measuring are used
up. Prints a human summary, then as the last stdout line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--trace 0` reports the end-to-end metrics (untraced runs only);
`--trace 1` reports the per-layer metrics from rounds of an untraced run,
a traced run and an untraced run at the other observability level.

Usage: python3 perfbench/run.py --workload sgemm-ooo --seed 1 --seconds 20 --trace 0
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent

# See README.md for why each was chosen; the binary knows the systems.
WORKLOADS = ["sgemm-ooo", "lbm-ino-nopf", "bfs-4t-stats", "dae-4p"]

# Fewest samples (or traced rounds) a run takes, however short --seconds.
MIN_SAMPLES = 3

# The whole benchmark process must end within 180 s; a child still
# running this long after start is killed and the run fails.
WATCHDOG_S = 170

# Registry counters that must agree between the traced and untraced runs
# of one round, `sim.ff.*` included.
SIM_COUNTS = [
    "sim.cycles", "sim.retired", "sim.ff.steps_executed", "sim.ff.cycles_skipped",
    "sim.ff.skips_taken", "mem.l1.hits", "mem.l1.misses", "mem.l2.hits", "mem.l2.misses",
    "mem.llc.hits", "mem.llc.misses", "mem.dram.reads", "mem.dram.writebacks",
    "mem.dram.throttled_cycles", "mem.l1.mshr.coalesced", "mem.l1.mshr.full_stalls",
    "mem.llc.mshr.coalesced", "mem.llc.mshr.full_stalls", "mem.prefetches", "tile.retired",
    "tile.issued", "tile.dbbs_launched", "tile.mispredicts", "tile.stall.window",
    "tile.stall.fu", "tile.stall.mem", "tile.stall.send", "tile.stall.recv",
]

# Wrapped tile methods timed by the traced run.
TILE_LAYERS = ["tile.step", "tile.next_event", "tile.skip_credit", "tile.mem_completion"]

END_TO_END_UNITS = {
    "pipeline_mips": "MIPS",
    "run_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "cpu_s": "s",
}

current_child = None


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def on_watchdog(signum, frame):
    if current_child is not None and current_child.poll() is None:
        current_child.kill()
        current_child.wait()
    log(f"perfbench: still running after {WATCHDOG_S} s; giving up")
    os._exit(1)


def build():
    """Builds the benchmark binary; exits non-zero if that fails."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        log("perfbench: build failed")
        sys.exit(1)
    return target / "release" / "mosaic-perfbench"


def simulate(binary, mode, workload, *obs):
    """One simulation in its own process, at the workload's own
    observability level unless `obs` is `"--obs", level`. Returns
    (report, rusage, wall); report is None when the process failed or
    printed no report."""
    global current_child
    start = time.perf_counter()
    current_child = subprocess.Popen(
        [str(binary), mode, workload, *obs], stdout=subprocess.PIPE)
    out = current_child.stdout.read()
    current_child.stdout.close()
    # wait4, not wait: the child's own rusage gives its peak RSS and CPU time.
    _, status, usage = os.wait4(current_child.pid, 0)
    current_child.returncode = os.waitstatus_to_exitcode(status)
    wall = time.perf_counter() - start
    report = None
    if current_child.returncode == 0:
        lines = out.decode().strip().splitlines()
        report = json.loads(lines[-1]) if lines else None
    else:
        log(f"perfbench: {mode} {workload} exited with {current_child.returncode}")
    current_child = None
    if report is not None and report["error"]:
        log(f"perfbench: {mode} {workload}: {report['error']}")
    return report, usage, wall


def ok(report):
    return report is not None and report["error"] == ""


def sample(seconds, one):
    """Calls `one` until the next call would overrun `seconds`."""
    deadline = time.monotonic() + seconds
    samples, durations = [], []
    while len(samples) < MIN_SAMPLES or time.monotonic() + statistics.median(durations) <= deadline:
        t = time.monotonic()
        samples.append(one())
        durations.append(time.monotonic() - t)
    return samples


def end_to_end(binary, workload, seconds):
    runs = sample(seconds, lambda: simulate(binary, "plain", workload))
    attempted, failed = len(runs), sum(not ok(r) for r, _, _ in runs)
    rows = []
    for r, usage, wall in runs:
        if r is None:
            continue
        rows.append({
            "pipeline_mips": r["sim.retired"] / (r["setup_s"] + r["run_s"]) / 1e6,
            "run_s": r["run_s"],
            "setup_s": r["setup_s"],
            "peak_rss_mb": usage.ru_maxrss / 1024,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "process_wall_s": wall,
        })
    if rows:
        log_simulated(next(r for r, _, _ in reversed(runs) if r is not None))
        summarize(rows, list(END_TO_END_UNITS) + ["process_wall_s"])
    metrics = {k: {"value": median(rows, k), "unit": u} for k, u in END_TO_END_UNITS.items()} if rows else {}
    return attempted, failed, metrics


def per_layer(binary, workload, seconds):
    def round_():
        plain = simulate(binary, "plain", workload)[0]
        traced = simulate(binary, "traced", workload)[0]
        other = "off" if plain is not None and plain["obs"] == "stats" else "stats"
        return [plain, traced, simulate(binary, "plain", workload, "--obs", other)[0]]

    rounds = sample(seconds, round_)
    attempted = 3 * len(rounds)
    failed = sum(not ok(r) for rnd in rounds for r in rnd)
    rows = []
    for plain, traced, alt in rounds:
        if not (ok(plain) and ok(traced) and ok(alt)):
            continue
        if any(plain[k] != traced[k] for k in SIM_COUNTS):
            # Both matched the pinned output, so only sim.ff.* can differ.
            log("perfbench: traced and untraced runs differ in sim.ff.*")
            failed += 1
            continue
        rows.append(layer_row(plain, traced, alt))
    if not rows:
        return attempted, failed, {}
    log_simulated(next(plain for plain, _, _ in rounds if ok(plain)))
    summarize(rows, list(rows[0]))
    # The traced-run breakdown comes from the round with the median traced
    # run_s, so its tile.*_s and interleaver.self_s add up to that run_s.
    mid = sorted(rows, key=lambda r: r["bench.traced_run_s"])[(len(rows) - 1) // 2]
    metrics = {}
    for k, unit in LAYER_UNITS.items():
        v = mid[k] if k in TRACED_BREAKDOWN else median(rows, k)
        metrics[k] = {"value": v, "unit": unit}
    return attempted, failed, metrics


def layer_row(plain, traced, alt):
    row = {k: plain[k] for k in [
        "kernels.build_s", "passes.dae_slice_s", "interp.trace_s", "ddg.build_s", "core.build_s"]}
    retired, steps = plain["sim.retired"], plain["sim.ff.steps_executed"]
    row["interp.mips"] = retired / plain["interp.trace_s"] / 1e6
    for layer in TILE_LAYERS:
        row[f"{layer}_s"] = traced[f"{layer}_s"]
        row[f"{layer}_calls"] = traced[f"{layer}_calls"]
    row["tile.step_ns"] = traced["tile.step_s"] / traced["tile.step_calls"] * 1e9
    row["interleaver.self_s"] = traced["run_s"] - sum(traced[f"{l}_s"] for l in TILE_LAYERS)
    row["interleaver.ns_per_step"] = row["interleaver.self_s"] / steps * 1e9
    row["bench.traced_run_s"] = traced["run_s"]
    row["bench.trace_overhead_s"] = traced["run_s"] - plain["run_s"]
    for k in ["sim.ff.steps_executed", "sim.ff.cycles_skipped", "sim.ff.skips_taken"]:
        row[k] = plain[k]
    row["ff.skip_share"] = plain["sim.ff.cycles_skipped"] / plain["sim.cycles"]
    calls = traced["tile.next_event_calls"]
    row["ff.skip_yield"] = plain["sim.ff.skips_taken"] / calls if calls else 0.0
    row["run.ns_per_retired"] = plain["run_s"] / retired * 1e9
    row["run.ns_per_stepped_cycle"] = plain["run_s"] / steps * 1e9
    for k in SIM_COUNTS[5:] + ["channel.sends", "channel.recvs"]:
        row[k] = plain[k]
    stats, off = (plain, alt) if plain["obs"] == "stats" else (alt, plain)
    row["obs.stats_cost_s"] = stats["run_s"] - off["run_s"]
    return row


# Metrics of the traced run reported from one round (see per_layer).
TRACED_BREAKDOWN = {f"{l}{s}" for l in TILE_LAYERS for s in ("_s", "_calls")} | {
    "tile.step_ns", "interleaver.self_s", "interleaver.ns_per_step", "bench.traced_run_s"}

LAYER_UNITS = {
    "kernels.build_s": "s", "passes.dae_slice_s": "s", "interp.trace_s": "s",
    "interp.mips": "MIPS", "ddg.build_s": "s", "core.build_s": "s",
    "tile.step_s": "s", "tile.step_calls": "count", "tile.step_ns": "ns",
    "tile.next_event_s": "s", "tile.next_event_calls": "count",
    "tile.skip_credit_s": "s", "tile.skip_credit_calls": "count",
    "tile.mem_completion_s": "s", "tile.mem_completion_calls": "count",
    "interleaver.self_s": "s", "interleaver.ns_per_step": "ns",
    "sim.ff.steps_executed": "count", "sim.ff.cycles_skipped": "count",
    "sim.ff.skips_taken": "count", "ff.skip_share": "ratio", "ff.skip_yield": "ratio",
    "run.ns_per_retired": "ns", "run.ns_per_stepped_cycle": "ns",
    **{k: "count" for k in SIM_COUNTS[5:]},
    "channel.sends": "count", "channel.recvs": "count",
    "obs.stats_cost_s": "s", "bench.trace_overhead_s": "s", "bench.traced_run_s": "s",
}


def log_simulated(report):
    """Logs the simulated output: pinned by the correctness gate, not metrics."""
    log(f"simulated: cycles {report['sim.cycles']}  retired {report['sim.retired']}  "
        f"IPC {report['sim.retired'] / report['sim.cycles']:.4f}  "
        f"(kernel data seed {report['data_seed']})")


def median(rows, key):
    return statistics.median(r[key] for r in rows)


def summarize(rows, keys):
    log(f"{'metric':<28} {'median':>14} {'q1':>14} {'q3':>14} {'min':>14} {'max':>14}  n={len(rows)}")
    for k in keys:
        vals = sorted(r[k] for r in rows)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        log(f"{k:<28} {statistics.median(vals):>14.6g} {q1:>14.6g} {q3:>14.6g} "
            f"{vals[0]:>14.6g} {vals[-1]:>14.6g}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded only: kernel inputs come from the fixed "
                         "generator seed in mosaic_kernels::data")
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, required=True, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    binary = build()
    signal.signal(signal.SIGALRM, on_watchdog)
    signal.alarm(WATCHDOG_S)
    measure = per_layer if args.trace else end_to_end
    log(f"perfbench: workload {args.workload}, --seed {args.seed} (recorded; kernel "
        f"inputs use the fixed data seed), {args.seconds} s, trace {args.trace}")
    attempted, failed, metrics = measure(binary, args.workload, args.seconds)
    signal.alarm(0)
    if not metrics:
        log("perfbench: no run produced a report")
        sys.exit(1)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
