#!/usr/bin/env python3
"""Host-performance benchmark of the IDYLL multi-GPU simulator.

    python3 perfbench/run.py --workload inval-heavy-4g --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (the simulator library plus the idyll_perfbench
binary, Release) into .bench_build/perfbench; later runs only check
that the build is current.

One operation is one simulation run, executed by idyll_perfbench in its
own process so that a panic, an abort or a hang is counted as a failed
run instead of ending the benchmark. A run fails when its process
fails, when any of its correctness checks fails, or when its simulated
results differ from those of MultiGpuSystem::run() on the same inputs.

--trace 0 (end-to-end metrics, tracing off): one reference round with
MultiGpuSystem::run(), then timed rounds of the sliced drive for
--seconds; each round runs every simulation of the workload once. Each
slice, set-up and finish() is timed as its fastest time over the rounds
(see end_to_end()).

--trace 1 (per-layer metrics): the reference round, then pairs of one
untraced and one traced round for --seconds. The traced round replays
every layer's operation stream into fresh instances of that layer's
classes (see src/layer_replay.hh).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Every other line names a metric
with its unit, a provenance stamp, or a run's simulated digest.
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
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "idyll_perfbench"

# Why each workload was chosen lives in BENCHMARK.json (the workloads'
# "why"); it is printed with the results when the file is there.
try:
    WHY = {w["name"]: w["why"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]}
except (OSError, ValueError, KeyError):
    WHY = {}

# Each run is (app, scheme, GPUs, scale). slice_cycles is chosen so
# that every run drains in a few hundred slices of a few milliseconds.
WORKLOADS = {
    "inval-heavy-4g": {
        "slice_cycles": 4000,
        "runs": [("PR", "baseline", 4, 0.25), ("PR", "idyll", 4, 0.25),
                 ("KM", "baseline", 4, 0.25), ("KM", "idyll", 4, 0.25)],
    },
    "walk-heavy-4g": {
        "slice_cycles": 5000,
        "runs": [("MT", "idyll", 4, 0.5), ("MT", "idyll+sub", 4, 0.5)],
    },
    "wide-32g": {
        "slice_cycles": 500,
        "runs": [("KM", "idyll", 32, 0.05)],
    },
}

# Scale factor of --tiny (self-test only): whole workloads in seconds.
TINY = 0.05

# A single invocation must finish well inside three minutes.
WALL_LIMIT_S = 160.0


def log(*parts):
    print(*parts, flush=True)


def build():
    """Configure (once) and build the benchmark; output goes to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no simulator sources next to the benchmark "
                 f"({ROOT / 'src'} is missing); run from a full checkout")
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                    "--target", "idyll_perfbench"],
                   stdout=sys.stderr, check=True)


def git_state():
    """(sha, dirty) of the checkout, or ("unknown", None) outside git."""
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel"], capture_output=True,
                             text=True, timeout=10)
        if top.returncode != 0 or Path(top.stdout.strip()) != ROOT:
            return "unknown", None
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        status = subprocess.run(["git", "-C", str(ROOT), "status",
                                 "--porcelain"], capture_output=True,
                                text=True, timeout=10)
        return sha.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.SubprocessError):
        return "unknown", None


class Runner:
    """Launches simulation runs and counts attempts and failures."""

    def __init__(self, args, spec):
        self.args = args
        self.spec = spec
        self.scale_factor = TINY if args.tiny else 1.0
        self.slice_cycles = max(1, int(spec["slice_cycles"] *
                                       self.scale_factor))
        self.start = time.monotonic()
        self.attempted = 0
        self.failed = 0
        self.reference = {}
        self.provenance = None
        # Clean environment: IDYLL_* variables would change the
        # simulated configuration (runner.cc's scaledForSim).
        self.env = {k: v for k, v in os.environ.items()
                    if not k.startswith("IDYLL_")}

    def elapsed(self):
        return time.monotonic() - self.start

    def run(self, run, mode):
        """One simulation run; returns its record, or None if it failed."""
        app, scheme, gpus, scale = run
        label = f"{app}/{scheme}/{gpus}g"
        cmd = [str(BINARY), "--app", app, "--scheme", scheme,
               "--gpus", str(gpus),
               "--scale", repr(scale * self.scale_factor),
               "--seed", str(self.args.seed),
               "--slice-cycles", str(self.slice_cycles), "--mode", mode]
        if self.args.corrupt_expect:
            cmd.append("--corrupt-expect")
        self.attempted += 1
        timeout = WALL_LIMIT_S + 15.0 - self.elapsed()
        if timeout < 1.0:
            return self.fail(label, mode, "not started: out of time")
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=timeout, env=self.env)
        except subprocess.TimeoutExpired:
            return self.fail(label, mode, "timed out (hang)")
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or [""]
            return self.fail(label, mode,
                             f"exit code {proc.returncode}: {tail[0]}")
        try:
            rec = json.loads(proc.stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            return self.fail(label, mode, "unreadable output")
        if self.provenance is None:
            self.provenance = rec["provenance"]
        if not rec["ok"]:
            return self.fail(label, mode, "; ".join(rec["failures"]))
        if mode == "reference":
            self.reference[run] = rec
            log(f"digest {label} execTicks={rec['exec_ticks']} "
                f"digest={rec['digest']} results={rec['results_hash']}")
        else:
            ref = self.reference.get(run)
            if ref is None:
                return self.fail(label, mode, "no reference run to compare")
            if rec["results_hash"] != ref["results_hash"]:
                return self.fail(label, mode,
                                 "simulated results differ from "
                                 "MultiGpuSystem::run()")
        return rec

    def fail(self, label, mode, why):
        self.failed += 1
        log(f"FAILED run {label} ({mode}): {why}")
        return None

    def round(self, mode):
        """Every run of the workload once; None if any run failed."""
        recs = [self.run(run, mode) for run in self.spec["runs"]]
        return None if any(r is None for r in recs) else recs

    def rounds(self, modes, seconds):
        """Repeat one round per mode while another one fits in
        `seconds` (at least one round)."""
        passes = []
        begin = time.monotonic()
        while True:
            t0 = time.monotonic()
            result = [self.round(mode) for mode in modes]
            if all(r is not None for r in result):
                passes.append(result)
            took = time.monotonic() - t0
            spent = time.monotonic() - begin
            if (spent + took > seconds
                    or self.elapsed() + 1.5 * took > WALL_LIMIT_S):
                return passes


def tail_fraction(slices_per_round):
    """Highest percentile (as a fraction) with >= 10 slices beyond it
    within one round."""
    if slices_per_round <= 10:
        return 0.5
    return math.floor((1.0 - 10.0 / slices_per_round) * 1000.0) / 1000.0


def percentile(values, fraction):
    ordered = sorted(values)
    rank = fraction * (len(ordered) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def metric(name, value, unit):
    log(f"metric {name} {value!r} {unit}")
    return name, {"value": value, "unit": unit}


def end_to_end(rounds):
    """Metrics of the untraced timed rounds.

    Every round runs the same simulations, so slice i of a run is the
    same simulated work in every round. Host interference on a shared
    machine only ever adds time, and it comes and goes within seconds,
    so each piece of work is timed as its fastest time over the rounds:
    each slice, each run's set-up (five per round) and each run's
    finish(). The metrics are built from those best times. The per-round
    figures are printed as well, for context."""
    for recs in rounds:
        log(f"round drain_s={sum(r['drain_s'] for r in recs)!r} "
            f"setup_s={sum(r['setup_s'] for r in recs)!r}")
    best_slices = []
    setup = finish = 0.0
    for i in range(len(rounds[0])):
        runs = [recs[i] for recs in rounds]
        best_slices += [min(times) for times in
                        zip(*(r["slice_ms"] for r in runs))]
        setup += min(s for r in runs for s in r["setups_s"])
        finish += min(r["finish_s"] for r in runs)
    frac = tail_fraction(len(best_slices))
    log(f"slices {len(best_slices)} per round, best of {len(rounds)} "
        f"round(s); slice_ms_tail is p{frac * 100:.1f}")
    drain = sum(best_slices) / 1e3
    return dict([
        metric("accesses_per_s",
               sum(r["accesses"] for r in rounds[0]) / drain, "1/s"),
        metric("slice_ms_p50", percentile(best_slices, 0.5), "ms"),
        metric("slice_ms_tail", percentile(best_slices, frac), "ms"),
        metric("setup_s", setup, "s"),
        metric("total_s", setup + drain + finish, "s"),
        metric("peak_rss_mb", statistics.median(
            max(r["peak_rss_mb"] for r in recs) for recs in rounds), "MB"),
    ])


def per_layer(pairs):
    """Metrics of the traced rounds, with their untraced twins."""
    untraced = [recs for recs, _ in pairs]
    traced = [recs for _, recs in pairs]
    first = traced[0]
    layers = [r["layers"] for r in first]
    sims = [r["sim"] for r in first]

    def span_sum(key, field):
        return sum(r["layers"][key][field] for recs in traced for r in recs)

    def ns_per(*keys):
        calls = sum(span_sum(k, "calls") for k in keys)
        secs = sum(span_sum(k, "seconds") for k in keys)
        return secs / calls * 1e9 if calls else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    traced_drain = sum(r["drain_s"] for recs in traced for r in recs)
    untraced_drain = sum(r["drain_s"] for recs in untraced for r in recs)
    replay_keys = ["tlb_probe", "tlb_fill", "tlb_shootdown", "mem_walk",
                   "gmmu_walk", "irmb", "dir"]
    replayed = sum(span_sum(k, "seconds") for k in replay_keys)

    def share(*keys):
        return ratio(sum(span_sum(k, "seconds") for k in keys), traced_drain)

    def count(key):
        return sum(layer[key] for layer in layers)

    def calls(key):
        return sum(layer[key]["calls"] for layer in layers)

    walks = [sum(layer["walks"][i] for layer in layers) for i in range(4)]
    accesses = sum(r["accesses"] for r in first)
    dir_runs = [(r["sim"], r["layers"]) for r in first
                if r["layers"]["dir"]["calls"]]
    n = len(pairs)

    for r in first:
        lay = r["layers"]
        tlb_s = sum(lay[k]["seconds"]
                    for k in ("tlb_probe", "tlb_fill", "tlb_shootdown"))
        log(f"layer-run {r['app']}/{r['scheme']}/{r['gpus']}g "
            f"irmb.ops={lay['irmb']['calls']} dir.ops={lay['dir']['calls']} "
            f"tlb.share={ratio(tlb_s, r['drain_s']):.4f} "
            f"demand_walks_per_access="
            f"{ratio(lay['walks'][0], r['accesses']):.4f}")

    out = dict([
        metric("tlb.probes", calls("tlb_probe"), "count"),
        metric("tlb.fills", calls("tlb_fill"), "count"),
        metric("tlb.shootdowns", calls("tlb_shootdown"), "count"),
        metric("tlb.evictions", count("tlb_evicts"), "count"),
        metric("tlb.ns_per_probe", ns_per("tlb_probe"), "ns"),
        metric("tlb.ns_per_fill", ns_per("tlb_fill"), "ns"),
        metric("tlb.ns_per_shootdown", ns_per("tlb_shootdown"), "ns"),
        metric("tlb.shootdown_useful_ratio",
               ratio(count("shootdowns_useful"), calls("tlb_shootdown")),
               "ratio"),
        metric("tlb.share", share("tlb_probe", "tlb_fill", "tlb_shootdown"),
               "ratio"),
        metric("gmmu.walks_demand", walks[0], "count"),
        metric("gmmu.walks_inval", walks[1], "count"),
        metric("gmmu.walks_update", walks[2], "count"),
        metric("gmmu.walks_batch", walks[3], "count"),
        metric("gmmu.demand_walks_per_access", ratio(walks[0], accesses),
               "ratio"),
        metric("gmmu.mmu_cache_hit_ratio",
               ratio(count("mmu_cache_hits"),
                     count("mmu_cache_hits") + count("mmu_cache_misses")),
               "ratio"),
        metric("gmmu.queue_full_stalls",
               sum(s["walk_queue_full_stalls"] for s in sims), "count"),
        metric("gmmu.queue_wait_cycles_per_walk",
               ratio(count("walk_wait_cycles"), sum(walks)), "cycles"),
        metric("gmmu.ns_per_mmu_probe", ns_per("gmmu_walk"), "ns"),
        metric("gmmu.share", share("gmmu_walk"), "ratio"),
        metric("mem.ns_per_walk", ns_per("mem_walk"), "ns"),
        metric("mem.share", share("mem_walk"), "ratio"),
        metric("irmb.ops", calls("irmb"), "count"),
        metric("irmb.ns_per_op", ns_per("irmb"), "ns"),
        metric("irmb.merge_ratio",
               ratio(count("irmb_merge_dups"), count("irmb_inserts")),
               "ratio"),
        metric("irmb.share", share("irmb"), "ratio"),
        metric("dir.ops", calls("dir"), "count"),
        metric("dir.ns_per_op", ns_per("dir"), "ns"),
        metric("dir.targeted_ratio",
               ratio(sum(s["inval_necessary"] for s, _ in dir_runs),
                     sum(s["inval_sent"] for s, _ in dir_runs)), "ratio"),
        metric("dir.share", share("dir"), "ratio"),
        metric("sim.events", sum(r["events"] for r in untraced[0]),
               "count"),
        metric("sim.ns_per_event",
               ratio(untraced_drain,
                     sum(r["events"] for recs in untraced for r in recs))
               * 1e9, "ns"),
        metric("uvm.migrations", sum(s["migrations"] for s in sims),
               "count"),
        metric("uvm.inval_rounds", count("inval_rounds"), "count"),
        metric("uvm.inval_sent", sum(s["inval_sent"] for s in sims),
               "count"),
        metric("interconnect.messages", count("net_messages"), "count"),
        metric("interconnect.bytes", sum(s["network_bytes"] for s in sims),
               "bytes"),
        metric("gpu.far_faults", sum(s["far_faults"] for s in sims),
               "count"),
        metric("gpu.l2_tlb_misses", sum(s["l2_misses"] for s in sims),
               "count"),
        metric("harness.setup_s", statistics.median(
            sum(r["setup_s"] for r in recs) for recs in untraced), "s"),
        metric("harness.finish_s", statistics.median(
            sum(r["finish_s"] for r in recs) for recs in untraced), "s"),
        metric("harness.drain_s", traced_drain / n, "s"),
        metric("harness.other_s", (traced_drain - replayed) / n, "s"),
        metric("harness.slices", sum(len(r["slice_ms"]) for r in first),
               "count"),
        metric("trace.overhead_ratio", ratio(traced_drain, untraced_drain),
               "ratio"),
    ])
    log(f"accounting: replayed layers {replayed / n!r} s + other "
        f"{(traced_drain - replayed) / n!r} s = traced drain "
        f"{traced_drain / n!r} s per pass ({n} pass(es))")
    return out


def bench(args, workload, trace):
    """One workload in one mode; returns (attempted, failed, metrics)."""
    spec = WORKLOADS[workload]
    runner = Runner(args, spec)
    log(f"workload {workload} (--trace {trace}): "
        f"{WHY.get(workload, '')}")
    for run in spec["runs"]:
        runner.run(run, "reference")
    modes = ("sliced", "traced") if trace else ("sliced",)
    passes = runner.rounds(modes, args.seconds)

    sha, dirty = git_state()
    prov = dict(runner.provenance or {})
    prov.update({"git_sha": sha, "git_dirty": dirty, "workload": workload,
                 "seed": args.seed})
    log("provenance " + json.dumps(prov, sort_keys=True))
    if prov and not prov.get("optimized", False):
        log("WARNING: unoptimised build; host timings are not comparable")
    if trace and prov and not prov.get("trace_compiled", False):
        log("WARNING: tracer compiled out; per-layer profile unavailable")

    metrics = {}
    if passes:
        metrics = (per_layer([tuple(p) for p in passes]) if trace
                   else end_to_end([p[0] for p in passes]))
    log(f"runs_attempted {runner.attempted}")
    log(f"runs_failed {runner.failed}")
    return runner.attempted, runner.failed, metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="a workload, or all of them in both --trace "
                             "modes (metrics keyed <workload>/<metric>)")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every run (self-test only)")
    parser.add_argument("--corrupt-expect", action="store_true",
                        help="use a wrong expected access count in every "
                             "run (self-test only)")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    build()
    if args.workload == "all":
        jobs = [(w, t) for w in WORKLOADS for t in (0, 1)]
    else:
        jobs = [(args.workload, args.trace)]
    attempted = failed = 0
    complete = True
    metrics = {}
    for workload, trace in jobs:
        a, f, m = bench(args, workload, trace)
        attempted += a
        failed += f
        complete = complete and bool(m)
        prefix = f"{workload}/" if len(jobs) > 1 else ""
        metrics.update({prefix + k: v for k, v in m.items()})
    print(json.dumps({"correct": failed == 0 and complete,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
