#!/usr/bin/env python3
"""Repeat benchmark runs, judge their spread, and compare two sets.

    python3 perfbench/runs.py collect --workload syscall_storm --seeds 1-10 \
        [--trace 0] [--seconds 20] -o parent.jsonl
        One perfbench/run.py run per seed; appends one JSON line per run
        carrying the workload, seed, trace mode, host fingerprint, host
        speed line and the run's result object.

    python3 perfbench/runs.py spread parent.jsonl [...]
        Per workload and metric: the median of the runs, the quartiles and
        the spread (q3 - q1) / median, checked against the metric's bound
        in BENCHMARK.json.  Exits 1 when a bounded spread exceeds a third
        of its bound.

    python3 perfbench/runs.py compare parent.jsonl change.jsonl
        Per workload and end-to-end metric, the rule for a small sandbox:
        each side's median and quartiles, the share of seed-paired runs
        the change wins (ties count for neither), and a verdict:
          better      the change wins >= 9/10 of the pairs and the medians
                      differ by more than the parent's quartile distance;
          worse       the change's median is worse than the parent's by
                      more than the metric's bound;
          unresolved  the parent's spread exceeds the bound and not every
                      change run beats every parent run;
          same        otherwise.
        Exits 1 when any pairing is worse.

Quartiles are Python's statistics.quantiles(values, n=4).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    return spec, metrics


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def collect(args):
    spec, _ = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    for seed in parse_seeds(args.seeds):
        cmd = spec["command"] + ["--workload", args.workload, "--seed", str(seed),
                                 "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"runs.py: {' '.join(cmd)} exited {proc.returncode}")
        host = next((l for l in lines if l.startswith("host:")), "host: unknown")
        speed = next((l for l in lines if l.startswith("host speed:")), "host speed: unknown")
        result = json.loads(lines[-1])
        row = {"workload": args.workload, "seed": seed, "trace": args.trace,
               "host": host[len("host:"):].strip(),
               "speed": speed[len("host speed:"):].strip(), "result": result}
        with open(args.out, "a") as f:
            f.write(json.dumps(row) + "\n")
        print(f"{args.workload} seed={seed} trace={args.trace} correct={result['correct']} "
              f"failed={result['failed']}/{result['attempted']}", flush=True)


def load_rows(paths):
    rows = []
    for path in paths:
        with open(path) as f:
            rows.extend(json.loads(line) for line in f if line.strip())
    return rows


def by_group(rows):
    """{(workload, trace): {metric: [(seed, value)]}}."""
    groups = {}
    for row in rows:
        g = groups.setdefault((row["workload"], row["trace"]), {})
        for name, m in row["result"]["metrics"].items():
            g.setdefault(name, []).append((row["seed"], m["value"]))
    return groups


def quartiles(values):
    """(q1, median, q3)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def spread(args):
    _, metrics = load_spec()
    rows = load_rows(args.files)
    status = 0
    for (workload, trace), g in sorted(by_group(rows).items()):
        bad = [r for r in rows if r["workload"] == workload and r["trace"] == trace
               and (not r["result"]["correct"] or r["result"]["failed"])]
        hosts = sorted({r["host"] for r in rows if r["workload"] == workload})
        print(f"== {workload} trace={trace}: {len(g[next(iter(g))])} runs, "
              f"{len(bad)} with failures; host {'; '.join(hosts)}")
        for name, pairs in g.items():
            vals = [v for _, v in pairs]
            q1, med, q3 = quartiles(vals)
            sp = (q3 - q1) / med if med else float("inf") if q3 > q1 else 0.0
            bound = metrics.get(name, {}).get("bound")
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if sp < bound / 3 else ("WIDE" if sp > bound else "near")
                if sp >= bound / 3:
                    status = 1
            print(f"  {name:28s} median {med:14.6g}  q1 {q1:14.6g}  q3 {q3:14.6g}  "
                  f"spread {sp:7.4f}  bound {bound if bound is not None else '-'} {flag}")
        if bad:
            status = 1
    sys.exit(status)


def compare(args):
    _, metrics = load_spec()
    parent, change = by_group(load_rows([args.parent])), by_group(load_rows([args.change]))
    status = 0
    for key in sorted(set(parent) & set(change)):
        print(f"== {key[0]} trace={key[1]}")
        for name in parent[key]:
            if name not in change[key] or name not in metrics:
                continue
            spec = metrics[name]
            lower = spec["better"] == "lower"
            p = dict(parent[key][name])
            c = dict(change[key][name])
            pv, cv = list(p.values()), list(c.values())
            pq1, _, pq3 = quartiles(pv)
            cq1, _, cq3 = quartiles(cv)
            pm, cm = statistics.median(pv), statistics.median(cv)
            seeds = sorted(set(p) & set(c))
            pairs = list(zip([p[s] for s in seeds], [c[s] for s in seeds])) if seeds \
                else list(zip(pv, cv))
            wins = sum(1 for a, b in pairs if (b < a if lower else b > a))
            share = wins / len(pairs) if pairs else 0.0
            bound = spec.get("bound")
            worse_by = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
            p_spread = (pq3 - pq1) / pm if pm else 0.0
            every_better = all((b < a if lower else b > a) for a in pv for b in cv)
            if share >= 0.9 and abs(cm - pm) > (pq3 - pq1):
                verdict = "better"
            elif bound is not None and worse_by > bound:
                verdict = "worse"
                status = 1
            elif bound is not None and p_spread > bound and not every_better:
                verdict = "unresolved"
            else:
                verdict = "same"
            print(f"  {name:28s} parent {pm:12.6g} [{pq1:.6g}, {pq3:.6g}]  "
                  f"change {cm:12.6g} [{cq1:.6g}, {cq3:.6g}]  "
                  f"won {wins}/{len(pairs)} ({share:.0%})  {verdict}")
    sys.exit(status)


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    c = sub.add_parser("collect")
    c.add_argument("--workload", required=True)
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--trace", type=int, default=0)
    c.add_argument("--seconds", type=int)
    c.add_argument("-o", "--out", required=True)
    s = sub.add_parser("spread")
    s.add_argument("files", nargs="+")
    k = sub.add_parser("compare")
    k.add_argument("parent")
    k.add_argument("change")
    args = ap.parse_args()
    {"collect": collect, "spread": spread, "compare": compare}[args.cmd](args)


if __name__ == "__main__":
    main()
