#!/usr/bin/env python3
"""Simulator benchmark: builds simbench against the repo's libraries in the
bench configuration, runs one workload and prints one JSON result line.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --reference [--workload NAME]

Run from the root of a checkout. The first run configures and builds into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. --trace 0 reports the end-to-end metrics, --trace 1
the per-layer metrics and writes the span log next to the build.
--reference reruns every scenario of the hybrid workloads (or of one) at
packet fidelity, one simulation each, and rewrites perfbench/reference.json,
which err_pct is computed against.
"""
import argparse
import concurrent.futures
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE = os.path.join(HERE, "reference.json")

# The seed is folded onto this many scenarios: each one needs a checked-in
# packet-fidelity reference, which takes minutes to compute.
SCENARIOS = 10
# Scenarios simulated per repetition: one fault plan's host cost varied by
# +-20% between scenarios, so the fault workload averages two neighbours.
SCENARIOS_PER_RUN = {"allreduce_fault_hybrid": 2}
WORKLOADS = ("allreduce_hybrid", "permutation_packet", "allreduce_fault_hybrid")
HYBRID = ("allreduce_hybrid", "allreduce_fault_hybrid")
# The ctest -L hybrid tolerance bands (tests/hybrid_equivalence_test.cc):
# hybrid vs packet, and pure fluid vs packet (the permutation's prediction).
ERR_PCT_LIMIT = {"allreduce_hybrid": 15.0, "allreduce_fault_hybrid": 15.0,
                 "permutation_packet": 35.0}

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mib": "MiB",
    "err_pct": "%",
}

PER_LAYER = {
    "sim.events": "count",
    "sim.ns_per_event": "ns",
    "sim.wheel_ns_per_event": "ns",
    "hybrid.fluid_events": "count",
    "hybrid.fluid_us_per_event": "us",
    "hybrid.packet_events": "count",
    "hybrid.fluid_host_s": "s",
    "hybrid.packet_host_s": "s",
    "hybrid.transitions": "count",
    "hybrid.absorbed_packets": "count",
    "hybrid.fluid_share": "ratio",
    "hybrid.fluid_completions": "count",
    "net.delivered_packets": "count",
    "net.ecn_marks": "count",
    "net.drops": "count",
    "net.tor_up_mean_queue_kib": "KiB",
    "net.tor_up_max_queue_kib": "KiB",
    "rnic.packets_sent": "count",
    "rnic.retransmits": "count",
    "rnic.timeouts": "count",
    "rnic.rx_ooo_packets": "count",
    "rnic.probes_sent": "count",
    "rnic.qp_errors": "count",
    "rnic.retx_ratio": "ratio",
    "rnic.goodput_ratio": "ratio",
    "collective.iterations": "count",
    "collective.busbw_gbps": "Gbps",
    "collective.iter_p50_us": "us",
    "collective.iter_max_us": "us",
    "fault.events": "count",
    "fault.detect_us": "us",
    "fault.recover_us": "us",
    "setup.fabric_s": "s",
    "setup.engines_s": "s",
    "setup.collective_s": "s",
    "setup.fault_s": "s",
    "host.cpu_s": "s",
    "host.minor_faults": "count",
    "trace.overhead_pct": "%",
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def workers():
    return min(4, os.cpu_count() or 1)


def build():
    """Configure (first run) and build simbench; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", out, "--target", "simbench",
                    "-j", str(workers())],
                   check=True, stdout=sys.stderr, timeout=840)
    return os.path.join(out, "simbench")


def simbench(binary, args, timeout=170):
    """Run simbench; returns its JSON result line as a dict."""
    proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, check=True,
                          text=True, timeout=timeout)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    with open(REFERENCE) as f:
        return json.load(f)


def err_pct(workload, result):
    """Deviation (%) of this run's model result from its fidelity reference.

    Hybrid workloads compare with the packet-fidelity mean over all the
    workload's scenarios in reference.json: the packet result of a single
    placement or fault plan scatters about as much as the hybrid error
    itself, which flow-level fidelity does not resolve. A run's result
    covers its own scenarios only; each reference entry is one scenario. The packet
    permutation compares its flow-level prediction, computed in the same
    run, with its own packet result."""
    if workload == "permutation_packet":
        pkt = result["goodput_gbps"]
        return 100.0 * abs(result["fluid_goodput_gbps"] - pkt) / pkt
    refs = load_reference()[workload]
    keys = [k for k in result]
    mean = {k: statistics.fmean(r[k] for r in refs.values()) for k in keys}
    return max(100.0 * abs(result[k] - mean[k]) / mean[k] for k in keys)


def measure(args):
    binary = build()
    scenarios = [(args.seed + k) % SCENARIOS
                 for k in range(SCENARIOS_PER_RUN.get(args.workload, 1))]
    cmd = ["--workload", args.workload,
           "--scenario", ",".join(map(str, scenarios)),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    trace_path = None
    if args.trace:
        name = "-".join(map(str, scenarios))
        trace_path = os.path.join(build_dir(),
                                  f"trace_{args.workload}_{name}.json")
        cmd += ["--trace-out", trace_path]
    raw = simbench(binary, cmd)
    errors = list(raw["errors"])
    if args.trace:
        values = {k: raw["layer"][k] for k in PER_LAYER}
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(raw["setup_s"]),
            "run_s": statistics.median(raw["run_s"]),
            "peak_rss_mib": raw["peak_rss_mib"],
            "err_pct": err_pct(args.workload, raw["result"]),
        }
        limit = ERR_PCT_LIMIT[args.workload]
        if not values["err_pct"] <= limit:
            errors.append(f"err_pct {values['err_pct']:.3f} outside the "
                          f"{limit}% tolerance band")
        units = END_TO_END
    print(f"workload {args.workload} seed {args.seed} scenarios "
          f"{raw['scenarios']} reps {raw['reps']}")
    print(f"digest {raw['digest']} (simulated outputs)")
    if trace_path:
        print(f"trace {os.path.relpath(trace_path, ROOT)}")
    for e in errors:
        print(f"check failed: {e}")
    print(json.dumps({
        "correct": not errors and raw["failed"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))


def reference(args):
    binary = build()
    workloads = [args.workload] if args.workload else HYBRID
    jobs = [(w, s) for w in workloads for s in range(SCENARIOS)]

    def one(job):
        w, s = job
        raw = simbench(binary, ["--workload", w, "--scenario", str(s),
                                "--seconds", "0", "--trace", "0",
                                "--fidelity", "packet"],
                       timeout=None)
        if raw["errors"] or raw["failed"]:
            raise RuntimeError(f"{w} scenario {s}: {raw['errors']}")
        log(f"reference {w} scenario {s}: {raw['result']}")
        return w, s, dict(raw["result"], digest=raw["digest"])

    out = {"command": "python3 perfbench/run.py --reference",
           "fidelity": "packet", "scenarios": SCENARIOS}
    if args.workload:
        out = load_reference()
        out[args.workload] = {}
    with concurrent.futures.ThreadPoolExecutor(workers()) as pool:
        for w, s, result in pool.map(one, jobs):
            out.setdefault(w, {})[str(s)] = result
    with open(REFERENCE, "w") as f:
        json.dump(out, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {os.path.relpath(REFERENCE, ROOT)}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", action="store_true")
    args = ap.parse_args()
    try:
        if args.reference:
            reference(args)
        elif args.workload:
            measure(args)
        else:
            ap.error("--workload or --reference is required")
    except (subprocess.SubprocessError, OSError, RuntimeError, KeyError,
            ValueError) as e:
        log(f"perfbench: {e}")
        sys.exit(1)


if __name__ == "__main__":
    main()
