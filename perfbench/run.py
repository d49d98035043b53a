#!/usr/bin/env python3
"""The repository benchmark: host time of the PIM-Assembler pipeline.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (the repository's libraries, pima_devd and the driver) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later calls only check that the build is current.

--trace 0 measures end-to-end host cost: it starts one fresh driver process
per sample (so peak RSS is per sample) for about --seconds seconds and
reports medians. Its times are in reference-host seconds: each sample's
host times are scaled by how fast a fixed calibration kernel ran next to
it (see REF_CALIB_S). --trace 1 runs the per-layer breakdown (paired
traced and untraced runs, module timings, a command replay) as many times
as fit in --seconds and reports medians. --report also prints the
per-layer result as a module -> metric table with each stage's child spans
and residual.

Every run is checked: its contigs must verify against the generated
reference, and its model fingerprint (simulated command counts, time,
energy, contig shape, fault counters) must equal the pinned one at the
default seed (perfbench/fingerprints.json), the in-process run of the same
input for the isolated workload, and every other sample of the same run.
A mismatch counts as a failed run. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["w-traverse", "deep-hashmap", "isolate-4dev", "faulty-retry"]
ISOLATED = {"isolate-4dev"}
PINS = os.path.join(HERE, "fingerprints.json")
SAMPLE_TIMEOUT_S = 150
# The host-speed unit of the end-to-end times: a sample's host seconds are
# scaled by REF_CALIB_S / its calibration time (the mean CPU time per thread
# of a fixed reference kernel the driver runs right before and after the
# sample), so they read as seconds on a host where that kernel takes
# REF_CALIB_S. A shared host's cores slow down by 2x for minutes at a time;
# the scaling cancels that, and a change to the program still moves the
# times one for one.
REF_CALIB_S = 0.03
# Simulated time and energy compare to 4 significant digits, the precision
# EXPERIMENTS.md reports; every count compares exactly.
FLOAT_REL_TOL = 1e-4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    """Configures (once) and builds the driver; returns its bin directory."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(out, ignore_errors=True)
            sys.exit("perfbench: configure failed")
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", out, "-j", jobs,
           "--target", "perfbench_driver", "pima_devd"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    return os.path.join(out, "bin")


def child_env():
    """The environment minus the program's own knobs (PIMA_DEVD_PATH,
    PIMA_IOFAULT, test hooks), so no setting outside the benchmark reaches
    the measured run."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PIMA_")}


def run_driver(bin_dir, mode, workload, seed, scale, extra=()):
    """One driver process; returns its JSON result or None on failure."""
    cmd = [os.path.join(bin_dir, "perfbench_driver"), mode,
           "--workload", workload, "--seed", str(seed), "--scale", scale,
           *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=child_env(),
                              timeout=SAMPLE_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {mode} timed out after {SAMPLE_TIMEOUT_S} s")
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode != 0 or result is None or "error" in result:
        log(f"perfbench: {mode} failed (exit {proc.returncode}): "
            f"{(result or {}).get('error', 'no result')}")
        return None
    return result


# ---------------------------------------------------------------- checks

def fingerprint_diff(got, want, path="fingerprint"):
    """First difference between two fingerprints, or None. Per-kind counts
    ('kinds') are only compared when both sides carry them."""
    if isinstance(want, dict) and isinstance(got, dict):
        keys = (set(got) | set(want)) - ({"kinds"} - (set(got) & set(want)))
        for k in sorted(keys):
            if k not in got or k not in want:
                return f"{path}.{k} missing"
            d = fingerprint_diff(got[k], want[k], f"{path}.{k}")
            if d:
                return d
        return None
    if isinstance(want, float) or isinstance(got, float):
        if abs(got - want) <= FLOAT_REL_TOL * max(abs(want), abs(got)):
            return None
    elif got == want:
        return None
    return f"{path}: got {got}, want {want}"


def load_pins(path):
    with open(path) as f:
        return json.load(f)


def pinned_fingerprint(pins, workload, seed, scale):
    if pins.get("scale") != scale or pins.get("default_seed") != seed:
        return None
    return pins["workloads"].get(workload)


def check(result, refs):
    """Problems with one driver result against reference fingerprints."""
    problems = []
    if not result["verify"]["ok"]:
        problems.append(f"contigs do not verify: {result['verify']}")
    for name, ref in refs:
        d = fingerprint_diff(result["fingerprint"], ref)
        if d:
            problems.append(f"{name} mismatch: {d}")
    return problems


# ---------------------------------------------------------------- runs

def median(values):
    return statistics.median(values) if values else 0.0


def keep_going(t_start, done, seconds):
    """True while another iteration is expected to end within the budget."""
    if done == 0:
        return True
    elapsed = time.monotonic() - t_start
    return elapsed + elapsed / done <= seconds


def end_to_end(bin_dir, args, pins):
    refs = []
    pinned = pinned_fingerprint(pins, args.workload, args.seed, args.scale)
    if pinned is not None:
        refs.append(("pinned fingerprint", pinned))
    attempted = failed = 0
    if args.workload in ISOLATED:
        # The isolated run must reproduce the in-process device pool.
        attempted += 1
        ref = run_driver(bin_dir, "sample", args.workload, args.seed,
                         args.scale, ["--inprocess"])
        if ref is None or check(ref, refs):
            failed += 1
            log(f"perfbench: in-process reference failed: "
                f"{check(ref, refs) if ref else 'no result'}")
        else:
            refs.append(("in-process fingerprint", ref["fingerprint"]))
    samples = []
    t_start = time.monotonic()
    while keep_going(t_start, len(samples), args.seconds):
        attempted += 1
        r = run_driver(bin_dir, "sample", args.workload, args.seed,
                       args.scale)
        if r is None:
            failed += 1
            samples.append(None)
            continue
        sample_refs = refs + ([("first sample", samples[0]["fingerprint"])]
                              if samples and samples[0] else [])
        problems = check(r, sample_refs)
        if problems:
            failed += 1
            log("perfbench: sample failed its output check: " +
                "; ".join(problems))
        samples.append(r)
    good = [s for s in samples if s is not None]
    log(f"perfbench: {args.workload} seed {args.seed}: {len(good)} samples, "
        f"{failed} failed; raw medians: wall "
        f"{median([s['wall_s'] for s in good]):.4f} s, calibration "
        f"{median([s['calib_s'] for s in good]):.4f} s")
    ref = [(s, REF_CALIB_S / s["calib_s"]) for s in good]
    metrics = {
        "wall_ref_s": (median([s["wall_s"] * k for s, k in ref]), "s"),
        "sim_mcmd_per_ref_s": (median([s["sim_commands"] / (s["wall_s"] * k)
                                       / 1e6 for s, k in ref]), "Mcmd/s"),
        "cpu_ref_s": (median([s["cpu_s"] * k for s, k in ref]), "s"),
        "peak_rss_mb": (median([s["peak_rss_mb"] for s in good]), "MB"),
        "setup_s": (median([s["setup_s"] * k for s, k in ref]), "s"),
    }
    return attempted, failed, metrics, None


def per_layer(bin_dir, args, pins):
    pinned = pinned_fingerprint(pins, args.workload, args.seed, args.scale)
    workdir = os.path.join(build_dir(), "work", str(os.getpid()))
    attempted = failed = 0
    runs = []
    t_start = time.monotonic()
    while keep_going(t_start, attempted, args.seconds):
        attempted += 1
        r = run_driver(bin_dir, "layers", args.workload, args.seed,
                       args.scale, ["--workdir", workdir])
        if r is None:
            failed += 1
            continue
        inproc = r["inprocess_fingerprint"]
        problems = check(r, [("in-process fingerprint", inproc)])
        if pinned is not None:
            d = fingerprint_diff(inproc, pinned)
            if d:
                problems.append(f"pinned fingerprint mismatch: {d}")
        stage_sum = {}
        for stage in inproc["stages"].values():
            for kind, n in stage["kinds"].items():
                stage_sum[kind] = stage_sum.get(kind, 0) + n
        if stage_sum != r["traced_kinds"]:
            problems.append("per-kind counts of the traced run differ from "
                            "the in-process run")
        if runs and fingerprint_diff(inproc, runs[0]["inprocess_fingerprint"]):
            problems.append("fingerprint differs between iterations")
        if r["trace_dropped"]:
            log(f"perfbench: warning: {r['trace_dropped']} trace events "
                f"dropped; span metrics undercount")
        if problems:
            failed += 1
            log("perfbench: layers run failed its output check: " +
                "; ".join(problems))
        runs.append(r)
    shutil.rmtree(workdir, ignore_errors=True)
    metrics = {}
    if runs:
        for name, m in runs[0]["metrics"].items():
            metrics[name] = (median([r["metrics"][name]["value"]
                                     for r in runs]), m["unit"])
    return attempted, failed, metrics, runs


# ---------------------------------------------------------------- report

def print_report(workload, metrics, runs):
    """Module -> metric table, then each stage's span split."""
    print(f"per-layer report: {workload} (median of {len(runs)} traced "
          f"run{'s' if len(runs) != 1 else ''})")
    print(f"{'module':18s} {'metric':44s} {'value':>14s}  unit")
    for name, (value, unit) in metrics.items():
        parts = name.split(".")
        module = ".".join(parts[:2]) if parts[0] == "runtime" else parts[0]
        metric = name[len(module) + 1:]
        print(f"{module:18s} {metric:44s} {value:14.6g}  {unit}")
    if not runs:
        return
    print("stage split of the first traced run (controller track):")
    for b in runs[0]["stages"]:
        print(f"  stage:{b['stage']:9s} {b['span_s']:10.6f} s")
        for child, s in sorted(b["children_s"].items()):
            print(f"    {child:24s} {s:10.6f} s")
        print(f"    {'(unattributed)':24s} {b['residual_s']:10.6f} s")
        total = sum(b["children_s"].values()) + b["residual_s"]
        print(f"    {'children + residual':24s} {total:10.6f} s")


# ---------------------------------------------------------------- pins

def write_pins(bin_dir, scale, seed, path):
    """Pins each workload's fingerprint at `seed`: the in-process run of the
    layers mode, which carries per-stage command counts by kind. Only for a
    change that is meant to alter the simulated chip."""
    pins = {"default_seed": seed, "scale": scale, "workloads": {}}
    workdir = os.path.join(build_dir(), "work", str(os.getpid()))
    for w in WORKLOADS:
        r = run_driver(bin_dir, "layers", w, seed, scale,
                       ["--workdir", workdir])
        if r is None or not r["verify"]["ok"]:
            sys.exit(f"perfbench: cannot pin {w}")
        pins["workloads"][w] = r["inprocess_fingerprint"]
    shutil.rmtree(workdir, ignore_errors=True)
    with open(path, "w") as f:
        json.dump(pins, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"perfbench: wrote {path}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "smoke"], default="full",
                   help="smoke: the reduced inputs of the self-test")
    p.add_argument("--pins", default=PINS,
                   help="pinned fingerprints (default perfbench/"
                        "fingerprints.json)")
    p.add_argument("--report", action="store_true",
                   help="with --trace 1, print the module -> metric table")
    p.add_argument("--write-pins", metavar="PATH",
                   help="pin every workload's fingerprint at --seed, write "
                        "them to PATH and exit")
    args = p.parse_args()
    if args.workload is None and not args.write_pins:
        p.error("--workload is required")
    if not args.write_pins and not os.path.exists(args.pins):
        sys.exit("perfbench: missing " + args.pins)
    bin_dir = build()
    if args.write_pins:
        write_pins(bin_dir, args.scale, args.seed, args.write_pins)
        return
    pins = load_pins(args.pins)
    run = per_layer if args.trace else end_to_end
    attempted, failed, metrics, runs = run(bin_dir, args, pins)
    if args.report and args.trace:
        print_report(args.workload, metrics, runs)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u}
                    for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
