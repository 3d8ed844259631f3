#!/usr/bin/env python3
"""Builds DeepDirect and its benchmark from source, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload serve-trained --seed 1 --seconds 10 --trace 0

Workloads: train-paper, serve-trained, serve-stream (see perfbench/README.md).
The release `dd` binary and the `dd-perfbench` runner are built into
$CARGO_TARGET_DIR (default .bench_build). The run's report goes to standard
output; its last line is the JSON result. The exit code is 0 only when every
served answer checked out.
"""

import argparse
import os
import signal
import subprocess
import sys

# Wall-clock limit of one measured run, builds excluded.
RUN_TIMEOUT_S = 170


def build(env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "dd-cli", "--bin", "dd"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in steps:
        # Build chatter goes to stderr so stdout stays the report.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def kill_group(pgid):
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["train-paper", "serve-trained", "serve-stream"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args = ap.parse_args()

    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")):
        print("perfbench: run from the root of a DeepDirect checkout "
              "(Cargo.toml and crates/ not found)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    if not build(env):
        return 2

    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "dd-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--dd", os.path.join(release, "dd"), "--out", ".bench_out"]
    # Own process group, so the fleet it starts can be reaped as a whole.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        kill_group(proc.pid)
        proc.communicate()
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s and was stopped", file=sys.stderr)
        return 3
    finally:
        kill_group(proc.pid)
    sys.stdout.write(out)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
