#!/usr/bin/env python3
"""Compare benchmark runs of two commits.

Record runs, alternating which commit goes first in each pair:

    python3 perfbench/compare.py record --base ../parent --change . \
        --out runs/ --pairs 10 [--workloads clean_reads,...] [--trace 0]

Each checkout is run with `python3 perfbench/run.py` from its own root, so
both sides use their own build. Lines of the form
{"side", "workload", "seed", "trace", "result"} are appended to
runs/base.jsonl and runs/change.jsonl.

Report them:

    python3 perfbench/compare.py report runs/base.jsonl runs/change.jsonl

For each workload and metric it prints the median and quartiles of each
side, the share of same-seed pairs the change won (ties count for neither),
and a verdict from the bounds in BENCHMARK.json: "unresolved" when the base
side's own spread (quartile distance / median) exceeds the bound (unless
every change run beats every base run, which is "better"), otherwise
"worse" when the change's median is worse by more than the bound, "better"
when the change won at least nine tenths of the pairs and the medians differ
by more than the base spread, else "same". Per-layer metrics have no bound
and get no verdict. The share of failed operations is compared too, and
so is the count of runs whose output checks failed (correct: false): any
such run on the change side reads "DIFFERS".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(checkout, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE,
                          text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError("%s: %s seed %d failed" % (checkout, workload, seed))
    return json.loads(lines[-1])


def record(args):
    spec = load_spec()
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in spec["workloads"]])
    seconds = args.seconds or spec["run_seconds"]
    os.makedirs(args.out, exist_ok=True)
    sides = {"base": os.path.abspath(args.base),
             "change": os.path.abspath(args.change)}
    files = {side: open(os.path.join(args.out, side + ".jsonl"), "a")
             for side in sides}
    try:
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ["base", "change"] if pair % 2 == 0 else ["change", "base"]
            for workload in workloads:
                for side in order:
                    result = run_once(sides[side], workload, seed, seconds,
                                      args.trace)
                    files[side].write(json.dumps({
                        "side": side, "workload": workload, "seed": seed,
                        "trace": args.trace, "result": result}) + "\n")
                    files[side].flush()
                    print("pair %d %s %s done" % (pair, workload, side),
                          file=sys.stderr)
    finally:
        for f in files.values():
            f.close()


def read_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                row = json.loads(line)
                if row.get("result") is None:
                    continue
                runs.setdefault(row["workload"], {})[
                    (row["seed"], row.get("trace", 0))] = row["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else float("nan")
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def report(args):
    spec = load_spec()
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    directions = dict((m["name"], m["better"]) for m in spec["per_layer"])
    directions.update((m["name"], m["better"]) for m in spec["end_to_end"])
    base, change = read_runs(args.base), read_runs(args.change)
    header = "%-17s %-32s %12s %12s %12s %12s %6s  %s" % (
        "workload", "metric", "base med", "base iqr%", "change med",
        "change iqr%", "won", "verdict")
    print(header)
    print("-" * len(header))
    for workload in sorted(set(base) & set(change)):
        keys = sorted(set(base[workload]) & set(change[workload]))
        fail_share = {}
        incorrect = {}
        for side, runs in (("base", base), ("change", change)):
            attempted = sum(runs[workload][k]["attempted"] for k in keys)
            failed = sum(runs[workload][k]["failed"] for k in keys)
            fail_share[side] = failed / attempted if attempted else 0.0
            incorrect[side] = sum(1 for k in keys
                                  if not runs[workload][k]["correct"])
        names = []
        for k in keys:
            for name in base[workload][k]["metrics"]:
                if name not in names:
                    names.append(name)
        for name in names:
            pairs = [(base[workload][k]["metrics"][name]["value"],
                      change[workload][k]["metrics"][name]["value"])
                     for k in keys
                     if name in base[workload][k]["metrics"]
                     and name in change[workload][k]["metrics"]]
            if not pairs:
                continue
            b = [p[0] for p in pairs]
            c = [p[1] for p in pairs]
            bq1, bmed, bq3 = quartiles(b)
            cq1, cmed, cq3 = quartiles(c)
            lower = directions.get(name, "higher") == "lower"
            won = sum(1 for x, y in pairs if (y < x if lower else y > x))
            share = won / len(pairs)
            bspread = (bq3 - bq1) / abs(bmed) if bmed else 0.0
            cspread = (cq3 - cq1) / abs(cmed) if cmed else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                worse = ((cmed - bmed) if lower else (bmed - cmed)) / abs(bmed) \
                    if bmed else 0.0
                all_better = (max(c) < min(b)) if lower else (min(c) > max(b))
                if bspread > bound:
                    verdict = "better" if all_better else "unresolved"
                elif worse > bound:
                    verdict = "worse"
                elif share >= 0.9 and abs(cmed - bmed) > (bq3 - bq1):
                    verdict = "better"
                else:
                    verdict = "same"
            print("%-17s %-32s %12.5g %11.1f%% %12.5g %11.1f%% %5.0f%%  %s" % (
                workload, name, bmed, 100 * bspread, cmed, 100 * cspread,
                100 * share, verdict))
        print("%-17s %-32s %12.5g %12s %12.5g %12s %6s  %s" % (
            workload, "failed share", fail_share["base"], "",
            fail_share["change"], "", "",
            "same" if fail_share["base"] == fail_share["change"] else "DIFFERS"))
        print("%-17s %-32s %12d %12s %12d %12s %6s  %s" % (
            workload, "runs not correct", incorrect["base"], "",
            incorrect["change"], "", "",
            "DIFFERS" if incorrect["change"] else "same"))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    rec = sub.add_parser("record", help="run both checkouts in pairs")
    rec.add_argument("--base", required=True, help="parent commit checkout")
    rec.add_argument("--change", required=True, help="changed checkout")
    rec.add_argument("--out", required=True, help="directory for the runs")
    rec.add_argument("--pairs", type=int, default=10)
    rec.add_argument("--first-seed", type=int, default=1)
    rec.add_argument("--workloads", default="")
    rec.add_argument("--seconds", type=int, default=0,
                     help="defaults to run_seconds of BENCHMARK.json")
    rec.add_argument("--trace", type=int, choices=(0, 1), default=0)
    rep = sub.add_parser("report", help="compare recorded runs")
    rep.add_argument("base")
    rep.add_argument("change")
    args = parser.parse_args()
    if args.command == "record":
        record(args)
    else:
        report(args)


if __name__ == "__main__":
    main()
