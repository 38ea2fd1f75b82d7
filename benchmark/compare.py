#!/usr/bin/env python3
"""Compares two sets of benchmark passes, metric by metric.

    python3 benchmark/compare.py BASE_DIR NEW_DIR
    python3 benchmark/compare.py --self-test

Each directory holds the per-pass reports benchmark/run.sh writes
(<workload>.pass<k>.json; pass k of both sides used the same seed). For
every workload and every end-to-end metric of BENCHMARK.json it prints
both sides' median and quartiles and one verdict, using the metric's
bound (the share of the base median by which it may get worse) and
direction:

  regression  the new median is worse than the base median by more
              than the bound
  unresolved  either side's interquartile distance exceeds the bound as
              a share of its median, so "no worse" cannot be shown --
              unless every new pass beats every base pass
  gain        the new side wins at least 9 in 10 pass pairs (ties count
              for neither) and the medians differ by more than the base
              side's interquartile distance: the rule a claimed
              improvement must meet
  ok          none of these

Exits 1 when any pairing regressed, else 0.
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values):
    """(first quartile, median, third quartile) as statistics.quantiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(base, new, bound, better):
    """Verdict for one (workload, metric); `base` and `new` are the
    per-pass values in pass order, so base[i] and new[i] share a seed."""
    sign = 1 if better == "higher" else -1
    b_q1, b_med, b_q3 = quartiles(base)
    n_q1, n_med, n_q3 = quartiles(new)
    worse = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worse > bound:
        return "regression"
    all_better = all(sign * (n - b) > 0 for n in new for b in base)
    spreads = [(q3 - q1) / abs(med) if med else 0.0
               for q1, med, q3 in ((b_q1, b_med, b_q3), (n_q1, n_med, n_q3))]
    if max(spreads) > bound and not all_better:
        return "unresolved"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) > 0)
    if (pairs and wins >= 0.9 * len(pairs) and sign * (n_med - b_med) > 0
            and abs(n_med - b_med) > b_q3 - b_q1):
        return "gain"
    return "ok"


def load(directory):
    """{workload: {pass: {metric: value}}} from a directory of reports."""
    runs = {}
    for path in sorted(Path(directory).glob("*.pass*.json")):
        workload, _, number = path.stem.rpartition(".pass")
        if not workload or not number.isdigit():
            continue
        lines = path.read_text().strip().splitlines()
        if not lines:
            continue
        report = json.loads(lines[-1])
        runs.setdefault(workload, {})[int(number)] = {
            name: metric["value"] for name, metric in report["metrics"].items()}
    return runs


def compare(base_runs, new_runs, metrics):
    """Rows of (workload, metric, unit, base values, new values, verdict)
    for every end-to-end metric both sides measured."""
    rows = []
    for workload in sorted(set(base_runs) & set(new_runs)):
        passes = sorted(set(base_runs[workload]) & set(new_runs[workload]))
        for m in metrics:
            base = [base_runs[workload][p][m["name"]] for p in passes
                    if m["name"] in base_runs[workload][p]]
            new = [new_runs[workload][p][m["name"]] for p in passes
                   if m["name"] in new_runs[workload][p]]
            if not base or len(base) != len(new):
                continue
            rows.append((workload, m["name"], m["unit"], base, new,
                         verdict(base, new, m["bound"], m["better"])))
    return rows


def print_rows(rows, metrics):
    bounds = {m["name"]: m["bound"] for m in metrics}
    print(f"{'workload':18} {'metric':17} {'base median [q1, q3]':>32} "
          f"{'new median [q1, q3]':>32} {'change':>8} {'bound':>6}  verdict")
    for workload, name, unit, base, new, result in rows:
        b_q1, b_med, b_q3 = quartiles(base)
        n_q1, n_med, n_q3 = quartiles(new)
        change = (n_med - b_med) / abs(b_med) * 100 if b_med else 0.0
        print(f"{workload:18} {name:17} "
              f"{b_med:>12.5g} [{b_q1:.5g}, {b_q3:.5g}] "
              f"{n_med:>12.5g} [{n_q1:.5g}, {n_q3:.5g}] "
              f"{change:>+7.2f}% {bounds[name] * 100:>5.1f}%  {result}"
              f"  ({len(base)} pairs, {unit})")


def self_test():
    up = {"name": "throughput_qps", "unit": "queries/s", "better": "higher",
          "bound": 0.05}
    down = {"name": "query_p50_us", "unit": "us", "better": "lower",
            "bound": 0.05}
    steady = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 1.1 for v in steady]
    slower = [v * 0.9 for v in steady]
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    checks = [
        (verdict(steady, steady, 0.05, "higher"), "ok"),
        (verdict(steady, slower, 0.05, "higher"), "regression"),
        (verdict(steady, faster, 0.05, "higher"), "gain"),
        # Lower is better: a 10% rise is a regression, a 10% drop a gain.
        (verdict(steady, faster, 0.05, "lower"), "regression"),
        (verdict(steady, slower, 0.05, "lower"), "gain"),
        (verdict(steady, noisy, 0.05, "higher"), "unresolved"),
        # Every new pass beats every base pass: resolved despite noise.
        (verdict(noisy, [v + 100 for v in noisy], 0.05, "higher"), "gain"),
        # Wins 8 of 10 pairs: not enough for a gain.
        (verdict(steady, [v * 1.02 if i < 8 else v * 0.99
                          for i, v in enumerate(steady)], 0.05, "higher"),
         "ok"),
    ]
    failures = [(got, want) for got, want in checks if got != want]
    base_runs = {"w": {i: {"throughput_qps": v, "query_p50_us": 50.0}
                       for i, v in enumerate(steady)}}
    new_runs = {"w": {i: {"throughput_qps": v, "query_p50_us": 60.0}
                      for i, v in enumerate(slower)}}
    verdicts = {row[1]: row[5] for row in compare(base_runs, new_runs, [up, down])}
    if verdicts != {"throughput_qps": "regression", "query_p50_us": "regression"}:
        failures.append((verdicts, "both regress"))
    if quartiles([1.0, 2.0, 3.0, 4.0]) != tuple(
            statistics.quantiles([1.0, 2.0, 3.0, 4.0], n=4)):
        failures.append(("quartiles", "statistics.quantiles"))
    for got, want in failures:
        print(f"self-test FAILED: got {got}, want {want}")
    print("self-test", "failed" if failures else "passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.new:
        parser.error("BASE_DIR and NEW_DIR are required")
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    rows = compare(load(args.base), load(args.new), metrics)
    if not rows:
        sys.exit("compare.py: no workload and pass present on both sides")
    print_rows(rows, metrics)
    return 1 if any(row[5] == "regression" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
