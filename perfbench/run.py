#!/usr/bin/env python3
"""Build the benchmark from this checkout's sources and run it.

One run of one workload:

    python3 perfbench/run.py --workload sim-nemesis --seed 1 --seconds 20 --trace 0

builds perfbench/bench.exe with dune (into .bench_build/dune) and hands
the command line to it; the last line of stdout is the JSON result.

Steadiness self-check: run each workload repeatedly, one seed per run,
and print every end-to-end metric's median and quartiles next to the
bound BENCHMARK.json gives it:

    python3 perfbench/run.py --steadiness --runs 10 [--workload W ...] [--save set1.json]
    python3 perfbench/run.py --compare set1.json set2.json

A spread (quartile distance over the median) must stay below a third of
the metric's bound (setup_s excepted), and between two sets each median
may worsen by at most the bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(".bench_build", "dune")
EXE = os.path.join(ROOT, BUILD_DIR, "default", "perfbench", "bench.exe")


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    # The benchmark compiles against the repository's libraries; without
    # them there is nothing to measure.
    for need in ("dune-project", "lib", "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail(f"no {need} at {ROOT}: run from a checkout of the repository")
    os.makedirs(os.path.join(ROOT, BUILD_DIR), exist_ok=True)
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "--build-dir", os.path.join(ROOT, BUILD_DIR),
         "--profile", "release",
         "./perfbench/bench.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed (exit {r.returncode})")


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def pin(workload):
    # live-kv runs its server and its load generator on one CPU: across
    # two vCPUs every request pays cross-CPU wake-ups, whose cost swings
    # with the host's load and made throughput vary two-fold run to run.
    if workload == "live-kv":
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def run_once(workload, seed, seconds, trace):
    r = subprocess.run(
        [EXE, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, preexec_fn=lambda: pin(workload))
    if r.returncode != 0:
        sys.stderr.write(r.stderr)
        fail(f"{workload} seed {seed} exited {r.returncode}")
    lines = r.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    # The values before the pace factor, as the benchmark printed them.
    for line in lines:
        if line.strip().startswith("as measured:"):
            pairs = line.split(":", 1)[1].split(",")
            result["raw"] = {k: float(v) for k, v in (p.split() for p in pairs)}
    if not result["correct"]:
        sys.stderr.write(r.stderr)
        fail(f"{workload} seed {seed}: a correctness gate failed")
    return result


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(args):
    s = spec()
    names = [m["name"] for m in s["end_to_end"]]
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    workloads = args.workload or [w["name"] for w in s["workloads"]]
    seconds = args.seconds or s["run_seconds"]
    saved = {}
    ok = True
    for w in workloads:
        values = {n: [] for n in names}
        raw = {n: [] for n in names}
        for i in range(args.runs):
            res = run_once(w, args.first_seed + i, seconds, 0)
            got = set(res["metrics"])
            if got != set(names):
                fail(f"{w}: metrics {sorted(got)} differ from BENCHMARK.json {sorted(names)}")
            for n in names:
                values[n].append(res["metrics"][n]["value"])
                raw[n].append(res.get("raw", {}).get(n, 0.0))
        saved[w] = values
        saved[w + ":raw"] = raw
        print(f"{w}: {args.runs} runs, seeds {args.first_seed}..{args.first_seed + args.runs - 1},"
              f" {seconds} s each")
        print(f"  {'metric':<16} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8} {'bound/3':>8}"
              f" {'unpaced':>8}")
        for n in names:
            med, q1, q3, sp = spread(values[n])
            raw_sp = spread(raw[n])[3]
            limit = bounds[n] / 3
            flag = "" if n == "setup_s" or sp < limit else "  TOO WIDE"
            ok = ok and flag == ""
            print(f"  {n:<16} {med:>14.6g} {q1:>14.6g} {q3:>14.6g} {sp:>8.2%} {limit:>8.2%}"
                  f" {raw_sp:>8.2%}{flag}")
    if args.save:
        with open(args.save, "w") as f:
            json.dump(saved, f, indent=1)
    return 0 if ok else 1


def compare(a_path, b_path):
    s = spec()
    better = {m["name"]: m["better"] for m in s["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    ok = True
    print(f"  {'workload':<12} {'metric':<16} {'median 1':>14} {'median 2':>14} {'worse by':>9} {'bound':>7}")
    for w in a:
        if w.endswith(":raw"):
            continue
        for n in a[w]:
            m1, m2 = statistics.median(a[w][n]), statistics.median(b[w][n])
            worse = (m2 - m1) / m1 if better[n] == "lower" else (m1 - m2) / m1
            flag = "" if worse <= bounds[n] else "  EXCEEDS"
            ok = ok and flag == ""
            print(f"  {w:<12} {n:<16} {m1:>14.6g} {m2:>14.6g} {worse:>9.2%} {bounds[n]:>7.0%}{flag}")
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", action="append")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steadiness", action="store_true")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--save")
    p.add_argument("--compare", nargs=2, metavar=("SET1", "SET2"))
    args = p.parse_args()
    if args.compare:
        sys.exit(compare(*args.compare))
    build()
    if args.steadiness:
        sys.exit(steadiness(args))
    if not args.workload or len(args.workload) != 1:
        fail("give exactly one --workload")
    seconds = args.seconds or spec()["run_seconds"]
    sys.stdout.flush()
    os.chdir(ROOT)
    pin(args.workload[0])
    os.execv(EXE, [EXE, "--workload", args.workload[0], "--seed", str(args.seed),
                   "--seconds", str(seconds), "--trace", str(args.trace)])


if __name__ == "__main__":
    main()
