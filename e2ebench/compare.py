#!/usr/bin/env python3
"""Compares two sets of benchmark runs: a parent commit and a change.

    python3 e2ebench/compare.py runs/parent runs/change

Each directory holds the stdout of runs of e2ebench/run.py, one file per
run (any name).  A run's workload and seed come from its machine record
line; its metrics from its last line.  Runs are paired by workload and
seed; a traced and an untraced run of one seed count as one run.  For every end-to-end metric in BENCHMARK.json, per workload:

  gain        the change wins at least 9/10 of at least ten pairs (ties
              count for neither) and the medians differ by more than the
              parent's own quartile spread;
  regression  the change's median is worse than the parent's by more than
              the metric's bound;
  better      every change run beats every parent run, short of a gain;
  unresolved  the parent's quartile spread, as a share of its median,
              exceeds the bound;
  same        otherwise.

It prints one row per workload.  Per-layer metrics (traced runs) have no
bound and are shown as medians only.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(directory):
    """{workload: {seed: {metric: value}}} from a directory of run outputs.

    A traced and an untraced run of one seed report disjoint metrics and
    are merged into one entry.  Two runs of one seed that report the same
    metric are an error: keeping either would silently drop the other.
    """
    runs, source = {}, {}
    for name in sorted(os.listdir(directory)):
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        with open(path) as f:
            lines = [l for l in f.read().splitlines() if l.startswith("{")]
        if not lines:
            continue
        result = json.loads(lines[-1])
        workload, seed = None, name
        for line in lines[:-1]:
            rec = json.loads(line)
            if "workload" in rec:
                workload = rec["workload"]["name"]
                seed = rec["workload"].get("seed", name)
        if workload is None or "metrics" not in result:
            continue
        entry = runs.setdefault(workload, {}).setdefault(seed, {})
        for metric, v in result["metrics"].items():
            key = (workload, seed, metric)
            if key in source:
                raise ValueError("%s and %s both report %s for %s seed %s" % (
                    source[key], path, metric, workload, seed))
            source[key] = path
            entry[metric] = v["value"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(parent, change, better, bound):
    """Classifies one metric on one workload.

    parent, change: {seed: value}.  better: "lower" or "higher".
    Returns (label, detail string).
    """
    sign = 1.0 if better == "lower" else -1.0
    pv, cv = list(parent.values()), list(change.values())
    p1, pm, p3 = quartiles(pv)
    c1, cm, c3 = quartiles(cv)
    seeds = sorted(set(parent) & set(change), key=str)
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) < 0)
    base = abs(pm) if pm else 1.0
    worse_by = sign * (cm - pm) / base
    spread = (p3 - p1) / base
    all_better = all(sign * (c - p) < 0 for c in cv for p in pv)
    if (len(seeds) >= 10 and wins >= 0.9 * len(seeds)
            and sign * (cm - pm) < 0 and abs(cm - pm) > (p3 - p1)):
        label = "gain"
    elif worse_by > bound:
        label = "regression"
    elif all_better:
        label = "better"
    elif spread > bound:
        label = "unresolved"
    else:
        label = "same"
    detail = "%.4g [%.4g,%.4g] -> %.4g [%.4g,%.4g], wins %d/%d" % (
        pm, p1, p3, cm, c1, c3, wins, len(seeds))
    return label, detail


def main(argv):
    if len(argv) != 3:
        sys.exit(__doc__)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    try:
        parent, change = load_runs(argv[1]), load_runs(argv[2])
    except ValueError as e:
        sys.exit("compare.py: %s" % e)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    for workload in sorted(set(parent) | set(change)):
        p, c = parent.get(workload, {}), change.get(workload, {})
        if not p or not c:
            print("%s: missing runs (parent %d, change %d)" % (workload, len(p), len(c)))
            continue
        names = sorted({k for r in list(p.values()) + list(c.values()) for k in r})
        cells = []
        for name in names:
            pm = {s: r[name] for s, r in p.items() if name in r}
            cm = {s: r[name] for s, r in c.items() if name in r}
            if not pm or not cm:
                continue
            if name in e2e:
                label, detail = verdict(pm, cm, e2e[name]["better"], e2e[name]["bound"])
                cells.append("%s=%s(%s)" % (name, label, detail))
            else:
                cells.append("%s=%.4g->%.4g" % (
                    name, statistics.median(pm.values()), statistics.median(cm.values())))
        print("%s: %s" % (workload, "; ".join(cells)))


if __name__ == "__main__":
    main(sys.argv)
