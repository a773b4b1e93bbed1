#!/usr/bin/env python3
"""Compare two sets of benchmark results, or summarise the spread of one.

    python3 benchmark/compare.py --base DIR_OR_FILES... --new DIR_OR_FILES...
    python3 benchmark/compare.py --spread DIR_OR_FILES... [--json OUT]

A result file is what `ct_bench --out` writes (benchmark/run.py keeps
one per run under .bench_build/results/); a file holding {"runs": [...]}
such as benchmark/results/baseline-seed1.json counts as all its runs.
Directories are searched for *.json.

For each (workload, metric) the comparison prints each side's median
and quartiles, the fraction of pairs the new side wins (runs are paired
by seed when both sides ran the same seeds, otherwise by order; ties
count for neither) and a verdict:

  regressed   the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json;
  improved    the new side wins at least 9 in 10 pairs and the medians
              differ by more than the base side's interquartile range;
  unresolved  the spread (interquartile range over median, either side)
              is wider than the bound, unless every new run is better
              than every base run;
  unchanged   otherwise.

Per-layer metrics have no bound: they are improved or regressed only by
the pair rule, in either direction. The exit status is 1 when any
end-to-end metric regressed.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_runs(paths):
    files = []
    for path in paths:
        if os.path.isdir(path):
            files += sorted(glob.glob(os.path.join(path, "**", "*.json"),
                                      recursive=True))
        else:
            files.append(path)
    runs = []
    for name in files:
        with open(name) as handle:
            data = json.load(handle)
        for run in data.get("runs", [data]):
            if "result" in run and "workload" in run:
                runs.append(run)
    return runs


def load_specs(bench_path):
    with open(bench_path) as handle:
        bench = json.load(handle)
    specs = {}
    for kind in ("end_to_end", "per_layer"):
        for metric in bench.get(kind, []):
            specs[metric["name"]] = dict(metric, kind=kind)
    return specs


def series(runs):
    """{(workload, metric): [(seed, value), ...]} in run order."""
    out = {}
    for run in runs:
        for name, metric in run["result"]["metrics"].items():
            key = (run["workload"], name)
            out.setdefault(key, []).append((run.get("seed"),
                                            float(metric["value"])))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative(part, whole):
    if whole == 0:
        return 0.0 if part == 0 else float("inf")
    return part / abs(whole)


def pairs(base, new):
    base_seeds = [seed for seed, _ in base]
    new_seeds = [seed for seed, _ in new]
    if sorted(base_seeds) == sorted(new_seeds) and None not in base_seeds \
            and len(set(base_seeds)) == len(base_seeds):
        lookup = dict(new)
        return [(value, lookup[seed]) for seed, value in base]
    return list(zip([v for _, v in base], [v for _, v in new]))


def verdict(spec, base, new):
    higher = spec.get("better", "lower") == "higher"
    bound = spec.get("bound")
    b = [v for _, v in base]
    n = [v for _, v in new]
    bq1, bmed, bq3 = quartiles(b)
    nq1, nmed, nq3 = quartiles(n)
    matched = pairs(base, new)
    better = [(nv > bv) if higher else (nv < bv) for bv, nv in matched
              if nv != bv]
    wins = sum(better) / len(matched) if matched else 0.0
    losses = (len(better) - sum(better)) / len(matched) if matched else 0.0
    worse_by = relative((bmed - nmed) if higher else (nmed - bmed), bmed)
    all_better = (min(n) > max(b)) if higher else (max(n) < min(b))
    apart = abs(nmed - bmed) > (bq3 - bq1)
    if bound is not None:
        spread = max(relative(bq3 - bq1, bmed), relative(nq3 - nq1, nmed))
        if spread > bound and not all_better:
            result = "unresolved"
        elif worse_by > bound:
            result = "regressed"
        elif wins >= 0.9 and apart:
            result = "improved"
        else:
            result = "unchanged"
    elif wins >= 0.9 and apart:
        result = "improved"
    elif losses >= 0.9 and apart:
        result = "regressed"
    else:
        result = "unchanged"
    return {"base": (bq1, bmed, bq3), "new": (nq1, nmed, nq3),
            "change": relative(nmed - bmed, bmed), "wins": wins,
            "verdict": result}


def fmt(value):
    return "%.6g" % value


def hosts(runs):
    seen = []
    for run in runs:
        host = run.get("host", {})
        text = ", ".join("%s=%s" % item for item in sorted(host.items()))
        if text not in seen:
            seen.append(text)
    return seen


def compare(args, specs):
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    if not base_runs or not new_runs:
        sys.exit("compare.py: no result files on one side")
    for label, runs in (("base", base_runs), ("new", new_runs)):
        for host in hosts(runs):
            print("%s host: %s" % (label, host))
    base, new = series(base_runs), series(new_runs)
    regressed = False
    header = ("workload", "metric", "base q1/med/q3", "new q1/med/q3",
              "change", "wins", "bound", "verdict")
    rows = [header]
    for key in sorted(set(base) & set(new)):
        spec = specs.get(key[1])
        if spec is None:
            continue
        out = verdict(spec, base[key], new[key])
        bound = spec.get("bound")
        rows.append((key[0], key[1],
                     "/".join(fmt(v) for v in out["base"]),
                     "/".join(fmt(v) for v in out["new"]),
                     "%+.2f%%" % (100 * out["change"]),
                     "%.2f" % out["wins"],
                     "-" if bound is None else "%g" % bound,
                     out["verdict"]))
        if out["verdict"] == "regressed" and spec["kind"] == "end_to_end":
            regressed = True
    print_table(rows)
    return 1 if regressed else 0


def spread(args, specs):
    runs = load_runs(args.spread)
    if not runs:
        sys.exit("compare.py: no result files")
    for host in hosts(runs):
        print("host: %s" % host)
    rows = [("workload", "metric", "n", "median", "q1", "q3", "iqr/med",
             "max/min-1", "bound", "")]
    records = []
    for key, values in sorted(series(runs).items()):
        spec = specs.get(key[1])
        if spec is None:
            continue
        v = [value for _, value in values]
        q1, med, q3 = quartiles(v)
        iqr = relative(q3 - q1, med)
        lo, hi = min(v), max(v)
        span = relative(hi - lo, lo) if lo else relative(hi - lo, hi)
        bound = spec.get("bound")
        flag = ""
        if bound is not None and key[1] != "setup_s":
            flag = "OVER BOUND" if iqr > bound else (
                "over bound/3" if iqr > bound / 3 else "")
        rows.append((key[0], key[1], str(len(v)), fmt(med), fmt(q1), fmt(q3),
                     "%.2f%%" % (100 * iqr), "%.2f%%" % (100 * span),
                     "-" if bound is None else "%g" % bound, flag))
        records.append({"workload": key[0], "metric": key[1], "n": len(v),
                        "median": med, "q1": q1, "q3": q3,
                        "iqr_over_median": iqr, "min": lo, "max": hi})
    print_table(rows)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(records, handle, indent=1)
    return 0


def print_table(rows):
    widths = [max(len(str(row[i])) for row in rows)
              for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(str(cell).ljust(width)
                        for cell, width in zip(row, widths)).rstrip())


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", help="parent-side results")
    parser.add_argument("--new", nargs="+", help="change-side results")
    parser.add_argument("--spread", nargs="+", help="summarise one set")
    parser.add_argument("--json", help="with --spread: also write the rows "
                        "as JSON here")
    parser.add_argument("--bench", default=os.path.join(HERE, "..",
                                                        "BENCHMARK.json"),
                        help="metric bounds and directions")
    args = parser.parse_args()
    specs = load_specs(args.bench)
    if args.spread:
        sys.exit(spread(args, specs))
    if not (args.base and args.new):
        parser.error("give --base and --new, or --spread")
    sys.exit(compare(args, specs))


if __name__ == "__main__":
    main()
