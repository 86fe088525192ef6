#!/usr/bin/env python3
"""Run, summarise and compare sets of ladderbench runs.

Run from the repository root:

  python3 ladderbench/compare.py collect --out DIR [--workloads a,b] [--seeds 1-10]
      Runs the command in BENCHMARK.json once per workload and seed, for
      its run_seconds and untraced, and keeps each run's standard output
      as DIR/<workload>-<seed>.out.
  python3 ladderbench/compare.py pair --base TREE --change TREE --out DIR [...]
      The same for two source trees (each with its BENCHMARK.json),
      alternating which tree runs first from one seed to the next; the
      runs land in DIR/base and DIR/change.
  python3 ladderbench/compare.py spread DIR
      Per workload and end-to-end metric: median, quartiles, and the
      quartile spread as a share of the median, against the metric's bound.
  python3 ladderbench/compare.py compare BASE CHANGE
      Per workload and end-to-end metric: each side's median and quartiles,
      the share of seed-paired runs the change won, and a verdict.

Runs whose checks failed are dropped, and runs are paired by seed, over the
seeds both sides have. Verdicts follow the small-sandbox rule: "improved"
needs the change to win at least 9 in 10 pairs (ties count for neither
side), the medians to differ by more than the base's quartile spread, and
the change to fail no larger share of its operations than the base;
"regressed" means the change's median is worse than the base's by more than
the metric's bound; "unchanged" means neither, with the base's spread within
the bound or every change run better than every base run; anything else is
"unresolved".
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCHMARK = "BENCHMARK.json"


def load_spec(tree="."):
    with open(os.path.join(tree, BENCHMARK)) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(tree, w, seed, out):
    """Runs one workload and seed from the root of `tree`."""
    spec = load_spec(tree)
    cmd = spec["command"] + ["--workload", w, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=tree)
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, f"{w}-{seed}.out"), "w") as f:
        f.write(run.stdout)
    status = "ok" if run.returncode == 0 else f"exit {run.returncode}"
    print(f"{out}: {w} seed {seed}: {status}", flush=True)


def workload_names(args):
    return args.workloads.split(",") if args.workloads else [w["name"] for w in load_spec()["workloads"]]


def collect(args):
    for seed in parse_seeds(args.seeds):
        for w in workload_names(args):
            run_one(".", w, seed, args.out)


def pair(args):
    sides = [(args.base, os.path.join(args.out, "base")),
             (args.change, os.path.join(args.out, "change"))]
    for i, seed in enumerate(parse_seeds(args.seeds)):
        for w in workload_names(args):
            for tree, out in (sides if i % 2 == 0 else sides[::-1]):
                run_one(tree, w, seed, out)


def read_runs(directory):
    """{workload: {seed: (metrics, attempted, failed)}} from a directory
    of run outputs; runs that failed their checks are dropped."""
    runs = {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith(".out"):
            continue
        lines = open(os.path.join(directory, name)).read().strip().splitlines()
        meta = next((json.loads(l[len("# meta "):]) for l in lines if l.startswith("# meta ")), None)
        if not lines or meta is None:
            print(f"skipping {name}: no result", file=sys.stderr)
            continue
        result = json.loads(lines[-1])
        if not result["correct"]:
            print(f"dropping {name}: it failed its checks", file=sys.stderr)
            continue
        values = {k: v["value"] for k, v in result["metrics"].items()}
        runs.setdefault(meta["workload"], {})[meta["seed"]] = (
            values, result["attempted"], result["failed"])
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(args):
    spec = load_spec()
    runs = read_runs(args.dir)
    worst = 0.0
    print(f"{'workload':12} {'metric':20} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>7} {'bound':>6}")
    for w, rs in runs.items():
        for m in spec["end_to_end"]:
            values = [v[m["name"]] for v, _, _ in rs.values() if m["name"] in v]
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            share = (q3 - q1) / med if med else float("inf")
            worst = max(worst, share / m["bound"])
            flag = "  OVER" if share > m["bound"] else ("  >1/3" if share > m["bound"] / 3 else "")
            print(f"{w:12} {m['name']:20} {len(values):3} {med:14.6g} {q1:14.6g} {q3:14.6g} "
                  f"{share:7.3f} {m['bound']:6.2f}{flag}")
    print(f"largest spread as a share of its bound: {worst:.2f}")


def compare(args):
    spec = load_spec()
    base, change = read_runs(args.base), read_runs(args.change)
    print(f"{'workload':12} {'metric':20} {'base median':>13} {'[q1, q3]':>25} "
          f"{'change median':>13} {'[q1, q3]':>25} {'won':>5}  verdict")
    for w in sorted(set(base) & set(change)):
        seeds = sorted(set(base[w]) & set(change[w]))
        if not seeds:
            continue
        fails = lambda runs: (sum(runs[s][2] for s in seeds)
                              / max(1, sum(runs[s][1] for s in seeds)))
        fails_more = fails(change[w]) > fails(base[w])
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            higher = m["better"] == "higher"
            pairs = [(base[w][s][0][name], change[w][s][0][name]) for s in seeds
                     if name in base[w][s][0] and name in change[w][s][0]]
            if not pairs:
                continue
            a, b = [x for x, _ in pairs], [y for _, y in pairs]
            aq1, amed, aq3 = quartiles(a)
            bq1, bmed, bq3 = quartiles(b)
            better = (lambda x, y: x > y) if higher else (lambda x, y: x < y)
            won = sum(better(y, x) for x, y in pairs) / len(pairs)
            worse_by = (amed - bmed) / amed if higher else (bmed - amed) / amed
            base_spread = (aq3 - aq1) / amed if amed else float("inf")
            improved = won >= 0.9 and abs(bmed - amed) > (aq3 - aq1) and better(bmed, amed)
            if improved and not fails_more:
                verdict = "improved"
            elif improved:
                verdict = "unresolved (the change fails more operations)"
            elif worse_by > bound:
                verdict = "regressed"
            elif base_spread <= bound or all(better(y, x) for x in a for y in b):
                verdict = "unchanged"
            else:
                verdict = "unresolved"
            print(f"{w:12} {name:20} {amed:13.6g} [{aq1:11.5g}, {aq3:11.5g}] "
                  f"{bmed:13.6g} [{bq1:11.5g}, {bq3:11.5g}] {won:5.2f}  {verdict}")


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    pr = sub.add_parser("pair")
    pr.add_argument("--base", required=True)
    pr.add_argument("--change", required=True)
    for q in (c, pr):
        q.add_argument("--out", required=True)
        q.add_argument("--workloads", default="")
        q.add_argument("--seeds", default="1-10")
    s = sub.add_parser("spread")
    s.add_argument("dir")
    k = sub.add_parser("compare")
    k.add_argument("base")
    k.add_argument("change")
    args = p.parse_args()
    {"collect": collect, "pair": pair, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
