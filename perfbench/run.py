#!/usr/bin/env python3
"""Repository benchmark: simulator host speed plus the modeled RAMCloud's
latency, energy and recovery, on the workloads below.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1]

Builds perfbench/ (and with it the simulator from src/) into .bench_build/,
then runs repetitions of the workload -- one process each, every one doing
its own set-up -- until --seconds have been measured (at least MIN_REPS).
Host metrics are medians over the repetitions; modeled metrics must be
identical in every repetition and in every earlier run of the same seed and
binary (the determinism guard). The last stdout line is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones (and
writes the span file and the cluster exports under .bench_build/). Exits 1
on any correctness or determinism failure, 2 if the build fails.
perfbench/README.md documents the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
OUT = ROOT / ".bench_build" / "perfbench-out"

DEFAULT_SEED = 42
HELD_OUT_SEED = 4242
MIN_REPS = 3
REP_TIMEOUT_S = 150

# (name, unit) of every metric, in report order.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("model_kops", "Kop/s"),
    ("model_read_p90_us", "us"),
    ("model_read_p99_us", "us"),
    ("model_update_p99_us", "us"),
    ("model_j_per_kop", "J/kop"),
]

PER_LAYER = [
    ("core.cluster_build_s", "s"), ("core.bulk_load_s", "s"),
    ("core.warmup_s", "s"),
    ("sim.events", "count"), ("sim.events_per_op", "count"),
    ("sim.ns_per_event", "ns"), ("sim.pending_peak", "count"),
    ("sim.bare_ns_per_event", "ns"),
    ("net.request_us_mean", "us"), ("net.reply_us_mean", "us"),
    ("net.rpcs", "count"), ("net.rpc_timeouts", "count"),
    ("net.rpc_retries", "count"),
    ("dispatch.wait_us_mean", "us"), ("dispatch.wait_us_p99", "us"),
    ("dispatch.items", "count"), ("dispatch.shed", "count"),
    ("dispatch.qos_throttled", "count"),
    ("master.service_us_mean", "us"), ("master.service_us_p99", "us"),
    ("master.reads", "count"), ("master.writes", "count"),
    ("master.cleaner_runs", "count"),
    ("replication.wait_us_mean", "us"), ("replication.wait_us_p99", "us"),
    ("replication.bytes", "bytes"), ("backup.writes_serviced", "count"),
    ("backup.acks_delayed", "count"),
    ("recovery.detect_s", "s"), ("recovery.replay_s", "s"),
    ("recovery.partitions", "count"),
    ("node.cpu_util_mean", "ratio"), ("disk.read_bytes", "bytes"),
    ("disk.write_bytes", "bytes"),
    ("energy.cpu_j_per_kop", "J/kop"), ("energy.dram_j_per_kop", "J/kop"),
    ("energy.nic_j_per_kop", "J/kop"), ("energy.disk_j_per_kop", "J/kop"),
    ("energy.platform_j_per_kop", "J/kop"),
    ("client.ops", "count"), ("client.failures", "count"),
    ("load.arrivals", "count"), ("load.wakeups_per_kop", "count"),
    ("load.source_dropped", "count"),
    ("slo.requests", "count"), ("slo.breached_windows", "count"),
    ("obs.export_s", "s"), ("obs.trace_overhead_s", "s"),
]

# Per-layer metrics timed on the host (everything else is modeled and must
# repeat exactly). Taken from untraced repetitions, except the trace-only
# ones, which come from traced repetitions.
HOST_LAYERS = {"core.cluster_build_s", "core.bulk_load_s", "core.warmup_s",
               "sim.ns_per_event"}
TRACED_HOST_LAYERS = {"sim.bare_ns_per_event", "obs.export_s"}

IN_PROCESS = ("read_closed", "write_recovery", "openloop_knee")
WORKLOADS = IN_PROCESS + ("fig05_sweep",)

# Fig. 5 throughput points the paper states (Kop/s), as (clients, rf).
FIG05_PAPER = {(10, 1): 78.0, (10, 4): 43.0, (30, 4): 41.0, (60, 4): 50.0}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def say(msg):
    print(msg, flush=True)


class BenchError(Exception):
    pass


# ----- build -----------------------------------------------------------------

def build(targets):
    """Configure and build `targets` (both incremental); compiler
    temporaries stay in the build tree."""
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = [["cmake", "-S", str(HERE), "-B", str(BUILD),
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", str(BUILD), "-j", "4", "--target",
              *targets]]
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if r.returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


# ----- one repetition --------------------------------------------------------

def run_child(cmd):
    """Run `cmd` to completion; returns (exit code, stdout text, peak RSS MB
    of that process alone)."""
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT)
    timer = threading.Timer(REP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode()
    finally:
        timer.cancel()
        proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss / 1024.0


def driver_rep(workload, seed, trace_dir=None, run_id=None):
    cmd = [str(BUILD / "perfbench_driver"), "--workload", workload,
           "--seed", str(seed)]
    if trace_dir is not None:
        cmd += ["--trace-dir", str(trace_dir), "--run-id", run_id]
    code, out, rss = run_child(cmd)
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(f"driver exited {code} without a report")
    rep = json.loads(lines[-1])
    rep["exit_code"] = code
    rep["peak_rss_mb"] = rss
    return rep


def run_reps(seconds, rep_fn, plan):
    """Call rep_fn(kind) for kind in the repeating `plan` until `seconds`
    have been spent (never starting a repetition that would overrun by more
    than its own length) and every kind ran at least MIN_REPS times, or once
    for a plan of several kinds."""
    reps = []
    t0 = time.monotonic()
    need = MIN_REPS if len(plan) == 1 else 1
    last = 0.0
    while True:
        counts = {k: sum(1 for kk, _ in reps if kk == k) for k in plan}
        elapsed = time.monotonic() - t0
        if all(c >= need for c in counts.values()) and \
                elapsed + last > seconds:
            break
        kind = plan[len(reps) % len(plan)]
        t = time.monotonic()
        reps.append((kind, rep_fn(kind)))
        last = time.monotonic() - t
    return reps


# ----- determinism guard -----------------------------------------------------

def modeled_view(rep):
    layers = {k: v for k, v in rep["layers"].items()
              if k not in HOST_LAYERS and k not in TRACED_HOST_LAYERS}
    return {"model": rep["model"], "extra": rep["extra"], "layers": layers,
            "counts": rep["counts"], "fingerprint": rep["fingerprint"]}


def check_determinism(workload, seed, views, binary):
    """Every repetition must model exactly the same run, and so must every
    earlier run of this seed on this binary. Returns failure messages."""
    failures = []
    first = views[0]
    for i, v in enumerate(views[1:], start=1):
        for key in first:
            if v[key] != first[key]:
                failures.append(f"repetition {i} differs from repetition 0 "
                                f"in {key}")
    OUT.mkdir(parents=True, exist_ok=True)
    store = OUT / "fingerprints.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}/{seed}/{sha256(binary)[:16]}"
    if key in known and known[key] != first:
        diff = [k for k in first if known[key].get(k) != first[k]]
        failures.append(f"seed {seed} modeled a different run than an "
                        f"earlier run of the same binary ({', '.join(diff)})")
    elif key not in known:
        known[key] = first
        store.write_text(json.dumps(known, sort_keys=True) + "\n")
    return failures


# ----- in-process workloads ----------------------------------------------------

def openloop_gates(steps, slo_us):
    knee = stats.max_kops_at_slo(steps, slo_us)
    failures = []
    if knee is None or all(stats.step_passes(s, slo_us) for s in steps):
        failures.append("openloop steps do not straddle the SLO knee "
                        f"(max step at SLO: {knee})")
    for s in steps:
        if knee is not None and s["offered_kops"] <= knee and \
                abs(s["delivered"] - s["offered"]) > 0.01 * s["offered"]:
            failures.append(f"step {s['offered_kops']} Kop/s delivered "
                            f"{s['delivered']} of {s['offered']} offered")
    return knee, failures


def print_steps(steps, slo_us, knee):
    say(f"  {'offered Kop/s':>14} {'offered':>9} {'delivered':>9} "
        f"{'refused':>7} {'dropped':>7} {'read p90 us':>11} "
        f"{'read p99 us':>11} {'read p999 us':>12} {'update p99 us':>13}  "
        "SLO")
    for s in steps:
        p = s["read_p999_us"]
        say(f"  {s['offered_kops']:>14g} {s['offered']:>9.0f} "
            f"{s['delivered']:>9.0f} {s['refused']:>7.0f} "
            f"{s['dropped']:>7.0f} {s['read_p90_us']:>11.1f} "
            f"{s['read_p99_us']:>11.1f} "
            f"{('miss' if p is None else f'{p:.1f}'):>12} "
            f"{s['update_p99_us']:>13.1f}  "
            f"{'ok' if stats.step_passes(s, slo_us) else 'breach'}")
    say(f"  model_max_kops_at_slo = {knee} Kop/s (read p999 <= {slo_us} us, "
        "delivered >= 99% of offered, no drops; refusals are misses)")


def run_in_process(workload, seed, seconds, trace):
    build(["perfbench_driver"])
    binary = BUILD / "perfbench_driver"
    run_id = f"{workload}-s{seed}-{int(time.time())}-{os.getpid()}"
    trace_dir = OUT / "traces" / f"{workload}-s{seed}"

    def rep_fn(kind):
        if kind == "traced":
            trace_dir.mkdir(parents=True, exist_ok=True)
            return driver_rep(workload, seed, trace_dir, run_id)
        return driver_rep(workload, seed)

    plan = ("plain", "traced") if trace else ("plain",)
    reps = run_reps(seconds, rep_fn, plan)
    plain = [r for k, r in reps if k == "plain"]
    traced = [r for k, r in reps if k == "traced"]
    every = plain + traced

    failures = []
    for r in every:
        for g in r["gates"]:
            if not g["ok"]:
                failures.append(f"gate {g['name']}: {g['detail']}")
        if r["exit_code"] != 0 and r["gates_ok"]:
            failures.append(f"driver exited {r['exit_code']}")
    failures += check_determinism(workload, seed,
                                  [modeled_view(r) for r in every], binary)

    first = plain[0]
    model, extra, counts = first["model"], first["extra"], first["counts"]
    for name, samples, q in (("read", model["model_read_samples"], 0.999),
                             ("update", model["model_update_samples"], 0.99)):
        best = stats.highest_supported_percentile(samples)
        if best is None or best < q:
            failures.append(f"{samples:.0f} {name} samples cannot support "
                            f"p{q * 100:g} (highest with >= 10 beyond: "
                            f"{best})")

    say(f"[{workload}] seed {seed}: {len(plain)} untraced"
        + (f" + {len(traced)} traced" if trace else "")
        + f" repetitions, fingerprint {first['fingerprint']}")
    if len(plain) >= 2:
        for key in ("setup_s", "wall_s"):
            q1, q2, q3 = stats.quartiles([r["host"][key] for r in plain])
            say(f"  {key} over untraced repetitions: median {q2:.4f} s "
                f"(quartiles {q1:.4f} .. {q3:.4f})")
    for op in ("read", "update"):
        samples = model[f"model_{op}_samples"]
        top = stats.highest_supported_percentile(samples)
        shown = [p for p, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99),
                                ("p999", 0.999), ("p9999", 0.9999))
                 if top is not None and q <= top]
        say(f"  {op}: {samples:.0f} samples, "
            + ", ".join(f"{p} {model[f'model_{op}_{p}_us']:.1f} us"
                        for p in ["mean"] + shown)
            + " (highest percentile with >= 10 samples beyond it last)")
    attempted = counts["attempted"]
    say(f"  op_fail_ratio = {counts['failed'] / max(1, attempted):.6g} "
        f"({counts['failed']:.0f} of {attempted:.0f} attempted)")
    if "model_recovery_s" in extra:
        say(f"  model_recovery_s = {extra['model_recovery_s']:.6f} s")
    if "steps" in extra:
        slo_us = extra["slo_read_p999_us"]
        knee, more = openloop_gates(extra["steps"], slo_us)
        failures += more
        print_steps(extra["steps"], slo_us, knee)

    def host(key, rs):
        return stats.median([r["host"][key] for r in rs])

    if trace:
        layers = dict(first["layers"])
        for k in HOST_LAYERS:
            layers[k] = stats.median([r["layers"][k] for r in plain])
        for k in TRACED_HOST_LAYERS:
            layers[k] = stats.median([r["layers"][k] for r in traced])
        layers["obs.trace_overhead_s"] = \
            host("wall_s", traced) - host("wall_s", plain)
        say(f"  spans: {trace_dir / 'spans.json'} (run id {run_id})")
        say(f"  tracing overhead: {layers['obs.trace_overhead_s']:+.4f} s "
            f"on a {host('wall_s', plain):.4f} s window")
        values = {name: layers[name] for name, _ in PER_LAYER}
        units = dict(PER_LAYER)
        print_table(workload, values, units)
    else:
        values = {
            "setup_s": host("setup_s", plain),
            "wall_s": host("wall_s", plain),
            "peak_rss_mb": stats.median([r["peak_rss_mb"] for r in plain]),
            "model_kops": model["model_kops"],
            "model_read_p90_us": model["model_read_p90_us"],
            "model_read_p99_us": model["model_read_p99_us"],
            "model_update_p99_us": model["model_update_p99_us"],
            "model_j_per_kop": model["model_j_per_kop"],
        }
        units = dict(END_TO_END)
        for name, v in values.items():
            if not (isinstance(v, (int, float)) and v > 0):
                failures.append(f"{name} is {v}, expected a positive number")
        print_table(workload, values, units)
    attempted_all = sum(r["counts"]["attempted"] for r in plain)
    failed_all = sum(r["counts"]["failed"] for r in plain)
    return failures, attempted_all, failed_all, values, units


# ----- fig05_sweep: the figure binary as a black box -----------------------------

def parse_fig05(text):
    """{(clients, rf): Kop/s} from bench_fig05_replication's table."""
    points = {}
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) >= 4 and cells[0].isdigit():
            rf = int(cells[0])
            for clients, cell in zip((10, 30, 60), cells[1:4]):
                points[(clients, rf)] = float(cell.rstrip("K"))
    return points


def run_fig05(seed, seconds):
    build(["bench_fig05_replication"])
    binary = BUILD / "bench_fig05_replication"
    cmd = [str(binary), "--quick", "--seed", str(seed)]
    reps = []
    t0 = time.monotonic()
    while not reps or (time.monotonic() - t0) + reps[-1][0] <= seconds:
        t = time.monotonic()
        code, out, rss = run_child(cmd)
        reps.append((time.monotonic() - t, code, out, rss))
    failures = []
    tables = set()
    for wall, code, out, _ in reps:
        if code != 0:
            failures.append(f"bench_fig05_replication exited {code} "
                            "(a shape check failed)")
        tables.add("\n".join(l for l in out.splitlines()
                             if l.startswith("|") or l.startswith("shape")))
    if len(tables) != 1:
        failures.append("fig05 tables differ between repetitions")
    points = parse_fig05(reps[0][2])
    if len(points) != 12:
        failures.append(f"parsed {len(points)} of 12 fig05 points")
        points = points or {(0, 0): 0.0}
    err = [abs(points.get(k, 0.0) - v) / v for k, v in FIG05_PAPER.items()]
    values = {
        "wall_s": stats.median([r[0] for r in reps]),
        "peak_rss_mb": stats.median([r[3] for r in reps]),
        "model_kops": sum(points.values()) / len(points),
        "model_paper_err_pct": 100.0 * sum(err) / len(err),
    }
    units = {"wall_s": "s", "peak_rss_mb": "MB", "model_kops": "Kop/s",
             "model_paper_err_pct": "%"}
    say(f"[fig05_sweep] seed {seed}: {len(reps)} runs of "
        "bench_fig05_replication --quick")
    print_table("fig05_sweep", values, units)
    return failures, 12 * len(reps), 0, values, units


# ----- output ----------------------------------------------------------------

def print_table(workload, values, units):
    width = max(len(k) for k in values)
    print(f"{workload}:")
    for k, v in values.items():
        print(f"  {k:<{width}}  {v:>16.6g} {units[k]}")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",),
                    help="'all' runs every in-process workload in turn")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED,
                    help=f"workload seed (default {DEFAULT_SEED}); "
                    f"{HELD_OUT_SEED} is held out from tuning")
    ap.add_argument("--seconds", type=float, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = IN_PROCESS if args.workload == "all" else (args.workload,)
    failures, attempted, failed, metrics = [], 0, 0, {}
    try:
        for name in names:
            if name == "fig05_sweep":
                result = run_fig05(args.seed, args.seconds)
            else:
                result = run_in_process(name, args.seed, args.seconds,
                                        bool(args.trace))
            fails, att, fld, values, units = result
            failures += [f"{name}: {f}" for f in fails]
            attempted += att
            failed += fld
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": units[k]}
                            for k, v in values.items()})
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    for f in failures:
        log(f"FAIL: {f}")
    print(json.dumps({"correct": not failures, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
