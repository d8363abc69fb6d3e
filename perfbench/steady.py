#!/usr/bin/env python3
"""Steadiness check for the simulator benchmark.

  python3 perfbench/steady.py [--runs 10] [--sets 2]

Runs `--sets` sets of `--runs` runs of every workload from one build,
seeds 1..runs in each set, alternating the workload order between runs and
reversing it between sets. For each end-to-end metric it reports every
set's median and quartiles, the spread (quartile distance / median) and
whether the sets agree within the bounds in BENCHMARK.json: each spread
within its bound (the aim is a third of it), and no set's median worse
than the first set's by more than the bound. Exits 1 if
any check fails. The per-run results go to
$CARGO_TARGET_DIR/perfbench/steady.json.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=True, timeout=900)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    # values[set][workload][metric] -> list, in run order
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    failures = []
    runs = []
    for s in range(args.sets):
        order = workloads if s % 2 == 0 else workloads[::-1]
        for i in range(args.runs):
            seed = i + 1
            for w in order[i % len(order):] + order[:i % len(order)]:
                res = run_once(w, seed, bench["run_seconds"])
                runs.append({"set": s + 1, "workload": w, "seed": seed,
                             "result": res})
                if not res["correct"] or res["failed"]:
                    failures.append(f"set {s + 1} {w} seed {seed}: "
                                    "output check failed")
                for m in metrics:
                    values[s][w][m["name"]].append(
                        res["metrics"][m["name"]]["value"])
                print(f"set {s + 1} run {i + 1} {w}: " + ", ".join(
                    f"{m['name']}={res['metrics'][m['name']]['value']:.6g}"
                    for m in metrics), flush=True)

    print()
    print(f"{'workload':24}{'metric':14}{'set':>4}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>8}{'bound':>7}  verdict")
    report = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            first = None
            for s in range(args.sets):
                st = summarize(values[s][w][name])
                verdict = []
                if st["spread"] > bound:
                    verdict.append("SPREAD>BOUND")
                elif st["spread"] > bound / 3:
                    verdict.append("spread>bound/3")
                if first is None:
                    first = st["median"]
                else:
                    worse = (st["median"] - first) / first
                    if m["better"] == "higher":
                        worse = -worse
                    if worse > bound:
                        verdict.append("MEDIAN MOVED")
                if any(v.isupper() for v in verdict):
                    failures.append(f"{w} {name} set {s + 1}: "
                                    + " ".join(verdict))
                report.append(dict(st, workload=w, metric=name, set=s + 1,
                                   bound=bound, verdict=verdict))
                print(f"{w:24}{name:14}{s + 1:>4}{st['median']:>12.6g}"
                      f"{st['q1']:>12.6g}{st['q3']:>12.6g}"
                      f"{st['spread']:>8.3f}{bound:>7.2f}  "
                      + (" ".join(verdict) or "ok"))

    out = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                       "perfbench", "steady.json")
    with open(out, "w") as f:
        json.dump({"report": report, "runs": runs}, f, indent=1)
    print(f"\nper-run results: {os.path.relpath(out, ROOT)}")
    for line in failures:
        print(f"FAIL {line}")
    print("steady" if not failures else "not steady")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
