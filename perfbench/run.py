#!/usr/bin/env python3
"""Build and run the simulator benchmark; print its metrics and one JSON result.

    python3 perfbench/run.py --workload radix-evict [--seed N] [--seconds S]
                             [--trace 0|1]

Run from the repository root.  The driver perfbench.cc is compiled together
with the simulator library from ../src into $CARGO_TARGET_DIR/perfbench
(default .bench_build/perfbench), then run once.  This wrapper turns its raw
per-pass samples into quartiles and medians, prints every metric by name
and unit, and ends stdout with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer metrics.
Metric definitions and the reasons behind each workload: perfbench/README.md.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = ROOT / "baselines" / "golden_default_run.csv"
WORKLOADS = ("radix-evict", "ccnuma-access", "adaptive-long", "observed")
# adaptive-long's passes take about 8 s: the 40 passes that end-to-end
# figures need do not fit in one run, so it reports per-layer figures and
# its ratios only.
TRACE_ONLY = ("adaptive-long",)
# The measured run must end within 180 s; only a real (first) build may
# take longer, so the deadline starts once the build is up to date.
DEADLINE_S = 170

# Host self-time sites of selfprof::Collector -> per-layer metric names.
SITES = {
    "sched_pick": "sim.sched_pick_ns",
    "proto_access": "proto.access_self_ns",
    "dir_lookup": "proto.dir_lookup_ns",
    "net_deliver": "net.deliver_ns",
    "vm_fault": "vm.fault_ns",
    "vm_kernel": "vm.kernel_ns",
    "table_walk": "core.table_walk_ns",
    "obs_emit": "obs.emit_ns",
    "run": "core.run_self_ns",
}


def say(*args):
    print(*args, flush=True)


def fail(msg):
    print("perfbench:", msg, file=sys.stderr, flush=True)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    jobs = str(min(4, os.cpu_count() or 1))
    if not (build_dir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(build_dir), "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return build_dir / "perfbench"


def show(name, xs, unit, better, stat="median"):
    """One metric line: the reported statistic (median, or the quartile on
    the worse side), the spread across samples and the sample count."""
    value = statistics.median(xs)
    spread = ""
    if len(xs) > 1:
        q = statistics.quantiles(xs, n=4)
        spread = f"; {stat} of n={len(xs)}, "
        if stat == "worse quartile":
            value = q[2] if better == "lower" else q[0]
            spread += f"median {statistics.median(xs):.6g}, "
        spread += f"quartiles {q[0]:.6g}..{q[2]:.6g}"
    say(f"  {name:30s} {value:<14.6g} {unit:10s} {better} is better{spread}")
    return value


def end_to_end(raw):
    """Pass timings report the quartile on the worse side (the upper quartile
    of pass time), which has ten samples beyond it from 40 passes on; see
    README.md, "Noise on the measuring host"."""
    u = raw["untraced"]
    if len(u["wall_s"]) < 40:
        fail(f"only {len(u['wall_s'])} measured passes; the quartile needs 40")
    rate = [a / r for a, r in zip(u["accesses"], u["run_s"])]
    m = {}
    m["accesses_per_s"] = (show("accesses_per_s", rate, "1/s", "higher",
                                "worse quartile"), "1/s")
    m["wall_s"] = (show("wall_s", u["wall_s"], "s", "lower", "worse quartile"), "s")
    m["setup_s"] = (show("setup_s", raw["setup_s"], "s", "lower"), "s")
    m["peak_rss_mb"] = (show("peak_rss_mb", [raw["peak_rss_mb"]], "MB", "lower"), "MB")
    return m


def per_layer(raw):
    t = raw["traced"]
    acc = t["accesses"]
    m = {}
    for site, name in SITES.items():
        per_access = [ns / a for ns, a in zip(t["self_ns"][site], acc)]
        m[name] = (show(name, per_access, "ns/access", "lower"), "ns/access")
    gen = raw["gen_s"]
    m["workload.gen_s"] = (show("workload.gen_s", [gen], "s", "lower"), "s")
    export = raw["untraced"]["export_s"]
    m["obs.export_s"] = (show("obs.export_s", export, "s", "lower"), "s")
    for key in ("events", "events_dropped"):
        m["obs." + key] = (raw["obs"][key], "count")
    for name, value in raw["counts"].items():
        unit = "ratio" if name.endswith(("_ratio", "_share")) else "count"
        m[name] = (value, unit)
    overhead = statistics.median(t["wall_s"]) / statistics.median(raw["untraced"]["wall_s"])
    m["trace.overhead_ratio"] = (overhead, "ratio")
    timed = set(SITES.values()) | {"workload.gen_s", "obs.export_s"}
    for name in sorted(set(m) - timed):
        value, unit = m[name]
        say(f"  {name:30s} {value:<14{'d' if unit == 'count' else '.6g'}} {unit}")
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (MachineConfig::seed)")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload in TRACE_ONLY and not args.trace:
        fail(f"{args.workload} has no end-to-end figures; run it with --trace 1")

    if not (ROOT / "src" / "CMakeLists.txt").is_file() or not GOLDEN.is_file():
        fail(f"simulator sources or {GOLDEN.relative_to(ROOT)} missing under {ROOT}")
    binary = build()
    start = time.monotonic()

    cmd = [str(binary), "--workload", args.workload, "--golden", str(GOLDEN),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    budget = DEADLINE_S - (time.monotonic() - start)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=budget)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {budget:.0f} s")
    if proc.returncode != 0:
        fail(f"benchmark exited with {proc.returncode}")
    raw = json.loads(proc.stdout.strip().splitlines()[-1])

    attempted, failed = raw["attempted"], raw["failed"]
    say(f"workload {args.workload}  seed {raw['seed']}  golden oracle: ok "
        f"({raw['oracle_s']:.3f} s)  simulated-counter digest {raw['digest']}")
    for p in raw["points"]:
        say(f"  point {p['label']:24s} cycles {p['cycles']:>11d}  "
            f"accesses {p['accesses']:>9d}  digest {p['digest']}")
    for e in raw["errors"]:
        say("  FAILED:", e)
    say(f"  error_rate {failed / attempted:.6g} ({failed} of {attempted} point runs failed)")
    if raw["ratios"]:
        ratios = [r["ratio"] for r in raw["ratios"]]
        geo = math.exp(sum(math.log(r) for r in ratios) / len(ratios))
        say(f"  ascoma_vs_ccnuma {geo:.6f} ratio (simulated, lower is better; "
            + ", ".join(f"{r['pair']} {r['ratio']:.3f}" for r in raw["ratios"]) + ")")

    correct = failed == 0
    if args.trace:
        say("per-layer metrics (traced run; host times are self times per simulated access)")
        metrics = per_layer(raw)
        if raw["gen_accesses"] != raw["counts"]["workload.accesses"]:
            say("  FAILED: Workload::stream generated", raw["gen_accesses"],
                "accesses but the machine executed", raw["counts"]["workload.accesses"])
            correct = False
    else:
        say("end-to-end metrics (untraced, after a discarded warm-up pass)")
        metrics = end_to_end(raw)
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
