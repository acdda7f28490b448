#!/usr/bin/env python3
"""Build and run the fleet benchmark from the root of a checkout.

    python3 fleetbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 fleetbench/run.py --test

Builds fleetbench/ (a CMake project over the repository's src/) into
.bench_build/, then spends S seconds running the workload as a series of
short fleetbench processes, and turns their records into the metrics:
the end-to-end ones with --trace 0, the per-layer ones with --trace 1.
Every iteration must produce the same metrics digest, equal to the
committed one in golden_digests.json for the default seed, and pass the
checks fleetbench makes. The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the combined record (host,
metrics, span self times, the process records) goes to
.bench_build/results/. --test builds and runs the thread-identity test
instead. Exits nonzero on a failed build, run or correctness check.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 42
# A run is a series of at most this many fleetbench processes, each given
# an equal share of what is left of the budget. On a shared host the same round took from 552
# to 1064 ms in back-to-back processes of one seed, so a run samples several
# processes rather than timing one for the whole budget.
PROCESSES = 3

END_TO_END = [
    ("setup_s", "s"),
    ("collections_per_s", "1/s"),
    ("end_to_end_s", "s"),
    ("round_wall_ms_p50", "ms"),
    ("peak_rss_mb", "MB"),
]
# Every per-layer metric, in report order (METRICS.md documents each).
PER_LAYER = [
    ("scenario.advance_ms", "ms"),
    ("scenario.collect_ms", "ms"),
    ("scenario.emit_ms", "ms"),
    ("scenario.setup_other_ms", "ms"),
    ("scenario.round_wall_ms_tail", "ms"),
    ("scenario.round_wall_growth", "ratio"),
    ("obs.shard_work_ms", "ms"),
    ("obs.barrier_wait_ms", "ms"),
    ("obs.coordinator_ms", "ms"),
    ("obs.barrier_wait_share", "ratio"),
    ("obs.rows", "count"),
    ("obs.output_bytes", "B"),
    ("swarm.expand_ms", "ms"),
    ("hw.build_us.smartplus", "us"),
    ("hw.build_us.hydra", "us"),
    ("hw.build_us.trustlite", "us"),
    ("attest.record_us", "us"),
    ("swarm.snapshot_ms", "ms"),
    ("attest.measurements", "count"),
    ("attest.sessions", "count"),
    ("attest.responses", "count"),
    ("attest.retries", "count"),
    ("attest.unreachable", "count"),
    ("attest.stray_datagrams", "count"),
    ("attest.healthy", "count"),
    ("attest.flagged", "count"),
    ("attest.serve_us.smartplus", "us"),
    ("attest.serve_us.hydra", "us"),
    ("attest.serve_us.trustlite", "us"),
    ("attest.verify_us.smartplus", "us"),
    ("attest.verify_us.hydra", "us"),
    ("attest.verify_us.trustlite", "us"),
    ("net.sent", "count"),
    ("net.delivered", "count"),
    ("net.delivered_share", "ratio"),
    ("net.dropped_disconnected", "count"),
    ("net.phys_tx_bytes", "B"),
    ("radio_tx_bytes_per_device", "B"),
    ("overlay.floods_forwarded", "count"),
    ("overlay.reports_relayed", "count"),
    ("overlay.reports_dropped", "count"),
    ("overlay.route_repairs", "count"),
    ("overlay.scoped_sent", "count"),
    ("overlay.mean_hops", "hops"),
    ("aggregate.aggregates_received", "count"),
    ("aggregate.reports_absorbed", "count"),
    ("aggregate.aggregated_sessions", "count"),
    ("aggregate.demand_fetches", "count"),
    ("energy.cpu_mj", "mJ"),
    ("energy.tx_mj", "mJ"),
    ("energy.rx_mj", "mJ"),
    ("energy.sleep_mj", "mJ"),
    ("adversary.infections", "count"),
    ("adversary.migrations", "count"),
    ("adversary.detections", "count"),
    ("failed_share", "ratio"),
    ("trace.overhead_s", "s"),
]


def build(target):
    if not (ROOT / "src" / "scenario" / "sharded_runner.h").is_file():
        sys.exit(f"run.py: {ROOT / 'src'} is missing; the benchmark builds "
                 "the repository's sources and needs a full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(BUILD), "--target", target,
                  "-j", str(os.cpu_count() or 1)])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stdout)
            sys.exit(f"run.py: build step failed: {' '.join(cmd)}")


def run_processes(args, results):
    """Runs up to PROCESSES fleetbench processes, each given an equal share
    of what is left of the budget (at least one process; none starts unless
    the longest iteration so far still fits). Returns their records."""
    parts = []
    start = time.monotonic()
    longest = 0.0  # longest iteration so far, process overhead included
    slot = 0  # CPU slot of the next process's first iteration
    for i in range(PROCESSES):
        left = args.seconds - (time.monotonic() - start)
        if parts and left < longest:
            break
        out = results / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"-p{i}.json")
        p0 = time.monotonic()
        done = subprocess.run(
            [str(BUILD / "fleetbench"), "--workload", args.workload,
             "--seed", str(args.seed),
             "--seconds", str(max(left, 0.0) / (PROCESSES - i)),
             "--trace", args.trace, "--out", str(out),
             "--first-slot", str(slot)],
            stdout=subprocess.PIPE, text=True)
        sys.stdout.write(done.stdout)
        # 0: every check passed; 1 with a record: some check failed.
        if done.returncode not in (0, 1) or not out.is_file():
            sys.exit(f"run.py: fleetbench exited with {done.returncode} "
                     "and left no record")
        parts.append(json.loads(out.read_text()))
        out.unlink()  # the combined record keeps it
        n = len(parts[-1]["iterations"])
        longest = max(longest, (time.monotonic() - p0) / n)
        slot += -(-n // (2 if args.trace == "1" else 1))
    return parts


def best_walls_ms(its):
    """Per round, the fastest wall over the iterations, with the emit tail
    after the last "rounds" row appended. Interference from the shared host
    only ever adds time, and its load drifts over minutes: over ten seeds the
    fastest walls spread by 7-12% (IQR over median) where medians over the
    same iterations spread by 19-24%. The digest check makes every
    iteration run the same rounds."""
    rows = [it["round_wall_ms"] + [it["run_ms"] - sum(it["round_wall_ms"])]
            for it in its]
    return [min(col) for col in zip(*rows)]


def end_to_end(its, parts):
    best = best_walls_ms(its)
    run_s = sum(best) / 1e3
    setups_s = [it["setup_ms"] / 1e3 for it in its]
    reached = statistics.median(it["reached"] for it in its)
    return {
        "setup_s": statistics.median(setups_s),
        "collections_per_s": reached / run_s,
        # Best case, like the run: the fastest setup plus the best walls.
        "end_to_end_s": min(setups_s) + run_s,
        "round_wall_ms_p50": statistics.median(best[:-1]),
        "peak_rss_mb": statistics.median(rec["peak_rss_mb"]
                                         for rec in parts),
    }


def tail(values):
    """The highest order statistic with at least ten samples beyond it (the
    maximum when there are ten or fewer)."""
    values = sorted(values)
    return values[-11] if len(values) > 10 else values[-1]


def growth(walls):
    """Mean round wall of the last quarter of rounds over the first's."""
    if len(walls) < 2:
        return 1.0
    q = max(1, len(walls) // 4)
    return sum(walls[-q:]) / sum(walls[:q])


def per_layer(its, parts, failed_share):
    traced = [it for it in its if it["traced"]]
    untraced = [it for it in its if not it["traced"]]
    values = {}
    for name, _ in PER_LAYER:
        if name in traced[0]["layer"]:
            values[name] = statistics.median(it["layer"][name]
                                             for it in traced)
    values["scenario.round_wall_ms_tail"] = tail(
        w for it in traced for w in it["round_wall_ms"])
    values["scenario.round_wall_growth"] = statistics.median(
        growth(it["round_wall_ms"]) for it in traced)
    values["failed_share"] = failed_share
    values["trace.overhead_s"] = (end_to_end(traced, parts)["end_to_end_s"] -
                                  end_to_end(untraced, parts)["end_to_end_s"])
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--test", action="store_true",
                        help="build and run the thread-identity test")
    args = parser.parse_args()

    if args.test:
        build("test_thread_identity")
        sys.exit(subprocess.run([str(BUILD / "test_thread_identity")])
                 .returncode)
    if not args.workload:
        parser.error("--workload is required")

    golden = json.loads((HERE / "golden_digests.json").read_text())
    build("fleetbench")
    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    parts = run_processes(args, results)

    its = [it for rec in parts for it in rec["iterations"]]
    expected = its[0]["digest"]
    if args.seed == golden["seed"]:
        expected = golden["digests"].get(args.workload, expected)
    failures = []
    attempted = failed = unreachable = 0
    for it in its:
        if it["digest"] != expected:
            it["check_failures"].append(
                f"metrics digest {it['digest']} != {expected}")
        attempted += it["sessions"]
        unreachable += it["unreachable"]
        if it["check_failures"]:
            failed += it["sessions"]
            failures += it["check_failures"]
    failed_share = (unreachable + failed) / attempted if attempted else 0.0

    units = dict(END_TO_END + PER_LAYER)
    if args.trace == "1":
        values = per_layer(its, parts, failed_share)
        names = [name for name, _ in PER_LAYER]
    else:
        values = end_to_end([it for it in its if not it["traced"]], parts)
        names = [name for name, _ in END_TO_END]
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in names}
    # End-to-end quantities that are 0 on some workload, so they cannot
    # carry a bound relative to their median: printed, and reported to the
    # result line with the per-layer metrics.
    values["failed_share"] = failed_share
    values["radio_tx_bytes_per_device"] = \
        its[0]["layer"]["radio_tx_bytes_per_device"]
    shown = names + [n for n in ("failed_share", "radio_tx_bytes_per_device")
                     if n not in names]
    self_ms = {}
    for rec in parts:
        for name, ms in rec["self_ms"].items():
            self_ms[name] = self_ms.get(name, 0.0) + ms

    host = parts[0]["host"]
    print(f"host: {json.dumps(host)}")
    print(f"{len(parts)} processes, {len(its)} iterations "
          f"({sum(it['traced'] for it in its)} traced), "
          f"{host['rounds']} rounds each")
    for name in shown:
        print(f"  {name:32s} {values[name]:16.6g} {units[name]}")
    if self_ms:
        print("span self time (ms, summed over traced iterations):")
        for name, ms in sorted(self_ms.items()):
            print(f"  {name:32s} {ms:16.3f}")
    for f in failures:
        print(f"CHECK FAILED: {f}")
    combined = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    combined.write_text(json.dumps(
        {"host": host, "metrics": metrics, "self_ms": self_ms,
         "check_failures": failures,
         "processes": parts}, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
