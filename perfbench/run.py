#!/usr/bin/env python3
"""Build and run the EAGr repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --selftest

The first form builds the benchmark (perfbench/, its own cargo package) and
the `eagr-shard-host` binary from source, runs one workload and prints its
report; the last line of standard output is the JSON result. The second
runs the benchmark's unit tests and its smoke mode, which runs every
workload at toy size in both modes and checks that every named metric
appears with its unit.

Build output goes to $CARGO_TARGET_DIR (default .bench_build); spans of
traced runs and the shard hosts' sockets go under it as well.
"""

import json
import os
import subprocess
import sys

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def cargo(args, env):
    """Run cargo with its output on stderr; True when it succeeded."""
    return subprocess.run(["cargo", *args], env=env, stdout=sys.stderr).returncode == 0


def build(env):
    manifest = os.path.join("perfbench", "Cargo.toml")
    if not cargo(["build", "--release", "--offline", "--manifest-path", manifest], env):
        return "building perfbench failed"
    # The process transport spawns this binary; a missing one must fail the
    # run, not skip the workload.
    if not cargo(["build", "--release", "--offline", "-p", "eagr-shard-host"], env):
        return "building eagr-shard-host failed"
    return None


def check_result(line):
    """Why the result line breaks the output contract, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return "result keys are not %s" % sorted(RESULT_KEYS)
    for name, metric in result["metrics"].items():
        if set(metric) != {"value", "unit"} or not isinstance(metric["value"], (int, float)):
            return "metric %s is malformed" % name
    return None


def main(argv):
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    problem = build(env)
    if problem:
        print("perfbench: " + problem, file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    exe = os.path.join(release, "eagr-perfbench")
    host = os.path.join(release, "eagr-shard-host")
    if not os.path.isfile(exe) or not os.path.isfile(host):
        print("perfbench: build produced no %s or %s" % (exe, host), file=sys.stderr)
        return 1
    # Shard-host sockets live in TMPDIR; a relative path keeps them inside
    # the checkout and short enough for a Unix socket address.
    tmp = os.path.join(target, "perfbench-tmp")
    os.makedirs(tmp, exist_ok=True)
    env["EAGR_SHARD_HOST_BIN"] = host
    env["TMPDIR"] = tmp
    trace_dir = os.path.join(target, "perfbench")

    if argv == ["--selftest"]:
        manifest = os.path.join("perfbench", "Cargo.toml")
        if not cargo(["test", "--release", "--offline", "--manifest-path", manifest], env):
            return 1
        return subprocess.run([exe, "--smoke", "--trace-dir", trace_dir], env=env).returncode

    proc = subprocess.run(
        [exe, *argv, "--trace-dir", trace_dir], env=env, stdout=subprocess.PIPE, text=True
    )
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if proc.returncode != 0:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    problem = check_result(lines[-1]) if lines else "no output"
    if problem:
        print("perfbench: " + problem, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
