#!/usr/bin/env python3
"""Entry point of the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench/ (and the library from the
repository's sources) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, runs the workload, and passes its output through:
the last stdout line is the JSON result. Detailed results (with sample
counts, the source id and a host fingerprint) and, for --trace 1, a Chrome
trace_event file land in <build dir>/results/. See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

WORKLOADS = ("serve_mixed", "serve_int8", "tune_search", "train_xdev")
# Variables that change what a workload runs; the benchmark refuses them.
FORBIDDEN_ENV = ("CDMPP_PRECISION", "CDMPP_KERNEL_ISA", "CDMPP_NUM_THREADS", "CDMPP_TRACE_SAMPLE")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_id(root):
    """The git commit when there is one, else a hash of the source tree."""
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            sha = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
            dirty = subprocess.run(["git", "-C", root, "status", "--porcelain", "--", "src",
                                    "perfbench", "CMakeLists.txt"], capture_output=True,
                                   text=True, timeout=10).stdout.strip()
            return "git:" + sha + ("-dirty" if dirty else "")
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, root).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "tree:" + h.hexdigest()[:16]


def run_child(cmd, timeout, stdout):
    """Runs cmd to completion; kills and reaps it on timeout or on SIGTERM/SIGINT."""
    proc = subprocess.Popen(cmd, stdout=stdout, stderr=sys.stderr, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    previous = {sig: signal.signal(sig, stop) for sig in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("%s did not finish within %d s" % (os.path.basename(cmd[0]), timeout))
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return proc.returncode, out


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the result.
        returncode, _ = run_child(cmd, BUILD_TIMEOUT_S, sys.stderr)
        if returncode != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for var in FORBIDDEN_ENV:
        if var in os.environ:
            fail("refusing to run: %s is set and would change the workload" % var)
    root = os.getcwd()
    spec_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(root, "src", "core", "predictor.h")) or \
            not os.path.isfile(spec_path):
        fail("run from the repository root (library sources or BENCHMARK.json not found)")
    with open(spec_path) as f:
        spec = json.load(f)

    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")
    build(root, build_dir)
    out_dir = os.path.join(build_dir, "results")
    os.makedirs(out_dir, exist_ok=True)

    cmd = [os.path.join(build_dir, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--source-id", source_id(root), "--out-dir", out_dir]
    returncode, stdout = run_child(cmd, RUN_TIMEOUT_S, subprocess.PIPE)
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    try:
        record = json.loads(lines[-1])
    except ValueError:
        fail("no result line (exit code %d)" % returncode)
    # The result carries exactly the metrics BENCHMARK.json declares for this
    # mode. An end-to-end metric a correct run did not produce is a harness
    # bug; a per-layer metric of a layer the workload does not exercise is 0.
    measured = record["metrics"]
    metrics = {}
    for m in spec["end_to_end" if args.trace == 0 else "per_layer"]:
        name, unit = m["name"], m["unit"]
        if name in measured and measured[name]["unit"] != unit:
            fail("%s measured in %s, declared in %s" % (name, measured[name]["unit"], unit))
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": unit}
        elif args.trace == 1:
            metrics[name] = {"value": 0, "unit": unit}
        elif record["correct"]:
            fail("the workload did not produce %s" % name)
    result = {"correct": record["correct"], "attempted": record["attempted"],
              "failed": record["failed"], "metrics": metrics}
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(returncode)


if __name__ == "__main__":
    main()
