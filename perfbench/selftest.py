#!/usr/bin/env python3
"""Self-test of the benchmark at the reduced ("smoke") input size.

    python3 perfbench/selftest.py

Checks that
  * the same seed gives byte-identical inputs and two seeds give different
    ones;
  * every metric BENCHMARK.json names is emitted, with its unit, by both
    the end-to-end (--trace 0) and the per-layer (--trace 1) runs of every
    workload, and those runs pass their output check;
  * correct pinned fingerprints pass, and a deliberately wrong pinned
    fingerprint is reported as a failed run in both modes.
Its files go under the benchmark's build directory. Exits 0 when every
check passes.
"""

import copy
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SCALE = "smoke"
SEED = 1

failures = []


def expect(ok, what):
    print(("PASS " if ok else "FAIL ") + what, flush=True)
    if not ok:
        failures.append(what)


def run_bench(workload, trace, pins=None):
    cmd = [sys.executable, os.path.join(HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace), "--scale", SCALE]
    if pins:
        cmd += ["--pins", pins]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None
    return json.loads(lines[-1])


def inputs(bin_dir, workload, seed):
    return bench.run_driver(bin_dir, "inputs", workload, seed, SCALE)


def check_inputs(bin_dir):
    for w in bench.WORKLOADS:
        a, b = inputs(bin_dir, w, SEED), inputs(bin_dir, w, SEED)
        c = inputs(bin_dir, w, SEED + 1)
        expect(a is not None and a == b,
               f"{w}: the same seed gives byte-identical reads")
        expect(a is not None and c is not None and
               a["reads_digest"] != c["reads_digest"] and
               a["genome_digest"] != c["genome_digest"],
               f"{w}: two seeds give different inputs")


def check_metrics(spec, pins):
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        want = {m["name"]: m["unit"] for m in spec[key]}
        for w in bench.WORKLOADS:
            r = run_bench(w, trace, pins)
            expect(r is not None and r["correct"] and r["failed"] == 0,
                   f"{w} --trace {trace}: runs pass their output check")
            got = {n: m["unit"] for n, m in (r or {}).get("metrics",
                                                          {}).items()}
            expect(got == want,
                   f"{w} --trace {trace}: emits exactly the {key} metrics "
                   f"with their units")


def check_wrong_pin(pins_path, work_dir):
    pins = bench.load_pins(pins_path)
    wrong = copy.deepcopy(pins)
    for fp in wrong["workloads"].values():
        fp["stages"]["traverse"]["commands"] += 1
    wrong_path = os.path.join(work_dir, "wrong_pins.json")
    with open(wrong_path, "w") as f:
        json.dump(wrong, f)
    for trace in (0, 1):
        r = run_bench("deep-hashmap", trace, wrong_path)
        expect(r is not None and not r["correct"] and r["failed"] >= 1,
               f"--trace {trace}: a wrong pinned fingerprint is a failure")


def main():
    with open(SPEC) as f:
        spec = json.load(f)
    bin_dir = bench.build()
    work_dir = os.path.join(bench.build_dir(), "selftest")
    os.makedirs(work_dir, exist_ok=True)
    pins_path = os.path.join(work_dir, "pins.json")
    bench.write_pins(bin_dir, SCALE, SEED, pins_path)

    check_inputs(bin_dir)
    check_metrics(spec, pins_path)
    check_wrong_pin(pins_path, work_dir)
    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
