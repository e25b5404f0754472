#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload train_cell --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --selftest

Run from the root of a checkout. The first call configures and builds the
library sources and the `perfbench` program with CMake (Release) into
$CARGO_TARGET_DIR, or .bench_build when it is unset; later calls only
re-check the build. The program's output is passed through; its last line
is the JSON result. The exit code is the program's, or 1 when the build or
the run fails.

--selftest builds and runs the helper tests (self-time fold, query-node and
Poisson generators, least-stolen window selection) and checks that the traffic
constants compiled into the program are the ones BENCHMARK.json states.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Only these knobs of the program are set; every other CPDG_* variable is
# removed so the environment cannot change what is measured. Prefetch must
# be on for the prefetch metrics; depth 1 with 1 worker is the shallowest
# pipelined configuration bench_train_pipeline measures (its
# pretrain_d1_w1 scenario). The library default, depth 0 (inline batch
# preparation), is therefore not what train_cell measures.
PROGRAM_ENV = {"CPDG_PREFETCH_DEPTH": "1", "CPDG_PREFETCH_WORKERS": "1"}


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def build(targets):
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "-j", jobs, "--target"] + targets]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            # Build chatter goes to stderr; stdout carries only the result.
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as err:
            print(f"perfbench build failed: {err}", file=sys.stderr)
            return None
        if done.returncode != 0:
            print(f"perfbench build failed: {' '.join(cmd)}", file=sys.stderr)
            return None
    return out


def program_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("CPDG_")}
    env.update(PROGRAM_ENV)
    return env


def run(args):
    out = build(["perfbench"])
    if out is None:
        return 1
    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=program_env(),
                          text=True) as child:
        try:
            stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            print(f"perfbench timed out after {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        finally:
            # perfbench removes its scratch directory itself; this covers
            # a run that crashed or was killed.
            for name in ("train_cell", "serve_read"):
                shutil.rmtree(os.path.join(".bench_work", f"{name}-{child.pid}"),
                              ignore_errors=True)
            try:
                os.rmdir(".bench_work")
            except OSError:
                pass  # absent, or still used by another run
    lines = stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n" if len(lines) > 1 else "")
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (ValueError, AssertionError):
        sys.stdout.write(lines[-1] + "\n")
        print("perfbench printed no result line", file=sys.stderr)
        return 1
    sys.stdout.write(lines[-1] + "\n")
    return child.returncode


def selftest():
    out = build(["perfbench", "perfbench_selftest"])
    if out is None:
        return 1
    if subprocess.run([os.path.join(out, "perfbench_selftest")]).returncode != 0:
        return 1
    config = json.loads(subprocess.run(
        [os.path.join(out, "perfbench"), "--print-config"],
        stdout=subprocess.PIPE, text=True, check=True).stdout)
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        why = {w["name"]: w["why"] for w in json.load(f)["workloads"]}
    missing = [f"{workload}: {value}"
               for workload, stated in config.items()
               for value in stated if value not in why.get(workload, "")]
    if missing:
        print("BENCHMARK.json does not state: " + ", ".join(missing),
              file=sys.stderr)
        return 1
    print("selftest passed; BENCHMARK.json states the compiled traffic constants")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=["train_cell", "serve_read"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
