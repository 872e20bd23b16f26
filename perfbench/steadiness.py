#!/usr/bin/env python3
"""Steadiness report for the serving benchmark.

Runs every workload of BENCHMARK.json --repeats times with a different
seed each time, interleaving the workloads so slow drifts of the host
hit all of them alike, and prints, per workload and end-to-end metric,
the median, quartiles, min/max and the quartile spread
(q3 - q1) / median beside the metric's bound.
With --sets 2 it makes two such sets and also prints how far the
second set's median moved from the first's, as a share of the first.

Run from the root of a checkout:

    python3 perfbench/steadiness.py --repeats 10 --sets 2
"""
import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit("run failed (exit %d): %s" % (done.returncode, " ".join(argv)))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0:
        sys.exit("incorrect result: %s -> %s" % (" ".join(argv), lines[-1]))
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def report(bench, results):
    """results: {(set, workload): [metrics dict, ...]}"""
    sets = sorted({s for s, _ in results})
    worst = 0.0
    for workload in (w["name"] for w in bench["workloads"]):
        print("\n## %s" % workload)
        print("| metric | set | n | median | q1 | q3 | min | max | spread | bound | spread/bound |")
        print("|---|---|---|---|---|---|---|---|---|---|---|")
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            medians = []
            for s in sets:
                values = [r[name]["value"] for r in results[(s, workload)]]
                q1, q2, q3, share = spread(values)
                medians.append(q2)
                worst = max(worst, share / bound)
                print("| %s | %d | %d | %.6g | %.6g | %.6g | %.6g | %.6g | %.4f | %.2f | %.2f |" % (
                    name, s, len(values), q2, q1, q3, min(values), max(values),
                    share, bound, share / bound))
            if len(medians) == 2:
                lower = metric["better"] == "lower"
                worse = (medians[1] - medians[0]) / medians[0] * (1 if lower else -1)
                print("| %s | 2 vs 1 | | worse by %.4f | | | | | | %.2f | %.2f |" % (
                    name, worse, bound, worse / bound))
    print("\nlargest spread/bound: %.2f" % worst)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    results = {}
    seed = args.first_seed
    for s in range(1, args.sets + 1):
        for _ in range(args.repeats):
            for workload in (w["name"] for w in bench["workloads"]):
                result = run_once(bench["command"], workload, seed,
                                  bench["run_seconds"], 0)
                results.setdefault((s, workload), []).append(result["metrics"])
                print("set %d seed %d %s: %s" % (s, seed, workload, " ".join(
                    "%s=%.5g" % (k, v["value"]) for k, v in result["metrics"].items())),
                      flush=True)
            seed += 1
    report(bench, results)


if __name__ == "__main__":
    main()
