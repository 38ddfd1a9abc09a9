#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

1. BENCHMARK.json keeps to its schema: exactly the expected keys, names,
   units and bounds within their limits, and a setup_s metric.
2. Every workload runs at small size, untraced and traced.  Each result's
   last line has exactly the keys correct/attempted/failed/metrics, the
   metric names are exactly BENCHMARK.json's end-to-end (--trace 0) or
   per-layer (--trace 1) names with their units, nothing failed, and the
   host fingerprint is printed.
3. README.md's per-layer table has a row for every per-layer metric, and
   covers every layer: isa, kern, recorder, syscallbuf, trace, compress,
   replayer, index and gc.
4. A directory holding only BENCHMARK.json and perfbench/ makes the
   command exit non-zero without printing a result.

Exits 1 on the first failed check.
"""

import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
LAYERS = {"isa", "kern", "recorder", "syscallbuf", "trace", "compress", "replayer",
          "index", "gc"}
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(msg):
    sys.exit(f"selftest: FAIL: {msg}")


def check_spec(spec):
    want = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != want:
        fail(f"BENCHMARK.json keys {sorted(spec)}")
    if not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds out of range")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or not NAME.match(w["name"]) or len(w["why"]) > 200:
            fail(f"workload entry {w}")
        names.add(w["name"])
    for section, keys in (("end_to_end", {"name", "unit", "better", "bound"}),
                          ("per_layer", {"name", "unit", "better"})):
        for m in spec[section]:
            if set(m) != keys or not NAME.match(m["name"]) or not UNIT.match(m["unit"]) \
                    or m["better"] not in ("lower", "higher"):
                fail(f"{section} entry {m}")
            if m["name"] in names:
                fail(f"name {m['name']} used twice")
            names.add(m["name"])
            if section == "end_to_end" and not 0 < m["bound"] <= 0.25:
                fail(f"bound of {m['name']}")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s missing or malformed")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        fail("setup_s must have the largest bound")


def run(args, cwd=ROOT):
    return subprocess.run(["python3", "perfbench/run.py"] + args, cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_run(spec, workload, trace):
    proc = run(["--workload", workload, "--seed", "7", "--seconds", "1",
                "--trace", str(trace), "--small"])
    if proc.returncode != 0:
        fail(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    if not any(l.startswith("host: nproc=") for l in lines):
        fail(f"{workload} trace={trace}: no host fingerprint")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"{workload}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"failed={result['failed']}/{result['attempted']}\n{proc.stderr}")
    section = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in section}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
             f"units {[k for k in want if k in got and got[k] != want[k]]}")
    for k, v in result["metrics"].items():
        if set(v) != {"value", "unit"} or not isinstance(v["value"], (int, float)):
            fail(f"{workload}: metric {k} is {v}")
        if not trace and not v["value"] > 0:
            fail(f"{workload}: end-to-end metric {k} reads {v['value']}")
    print(f"ok  {workload} trace={trace}: {len(got)} metrics, "
          f"{result['attempted']} operations, 0 failed")


def check_layer_table(spec):
    with open(os.path.join(HERE, "README.md")) as f:
        rows = [l for l in f if l.startswith("| ") and l.count("|") == 6]
    table = {}
    for row in rows:
        cells = [c.strip() for c in row.strip().strip("|").split("|")]
        names = re.findall(r"`([^`]+)`", cells[1])
        if len(names) == 1:
            table[names[0]] = (cells[0], cells[3], cells[4])
    for m in spec["per_layer"]:
        if m["name"] not in table:
            fail(f"README per-layer table has no row for {m['name']}")
        layer, moves, on = table[m["name"]]
        if not moves or not on:
            fail(f"README row for {m['name']} lacks what it moves or where")
    covered = {table[m["name"]][0] for m in spec["per_layer"]}
    if not LAYERS <= covered:
        fail(f"per-layer table misses layers {sorted(LAYERS - covered)}")
    print(f"ok  per-layer table: {len(spec['per_layer'])} metrics over layers "
          f"{', '.join(sorted(covered))}")


def check_bare_dir(spec):
    bare = os.path.join(HERE, "out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    try:
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run(["--workload", spec["workloads"][0]["name"], "--seed", "1",
                    "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a directory without the sources must fail without a result")
    print("ok  a directory without the sources exits non-zero without a result")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_spec(spec)
    print("ok  BENCHMARK.json schema")
    check_layer_table(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    check_bare_dir(spec)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
