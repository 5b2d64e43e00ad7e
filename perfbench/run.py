#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see BENCHMARK.json).

    python3 perfbench/run.py --workload mine --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --test      # builds and runs the harness tests

Run from the root of a checkout. The benchmark binary is compiled from the
checkout's sources into $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); inputs are generated from --seed into a per-run
directory under the build directory, which is removed on exit. The last
line of stdout is the result JSON; every other line is metadata. A harness
failure exits nonzero without printing a result; a wrong, refused or
missing answer from the program is counted in ok_share instead.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
# The pool is pinned below the core count: with every core busy, host
# noise moved mining times by more than a tenth between runs.
PINNED_THREADS = "2"
WORKLOADS = ("mine", "serve-paced", "serve-scan")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def run_command(cmd, timeout, **kwargs):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, **kwargs)
    try:
        out, err = proc.communicate(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise
    return proc.returncode, out, err


def build(target):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError("no program sources (src/CMakeLists.txt) here")
    out_dir = build_dir()
    # Compiler temporaries stay inside the checkout too.
    env = dict(os.environ, TMPDIR=os.path.join(out_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log_file:
        if not os.path.isfile(os.path.join(out_dir, "CMakeCache.txt")):
            code, _, _ = run_command(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out_dir,
                 "-DCMAKE_BUILD_TYPE=Release"],
                BUILD_TIMEOUT_S, env=env, stdout=log_file,
                stderr=subprocess.STDOUT)
            if code != 0:
                raise RuntimeError(f"cmake configure failed, see {log_path}")
        code, _, _ = run_command(
            ["cmake", "--build", out_dir, "--target", target, "-j",
             str(os.cpu_count() or 2)],
            BUILD_TIMEOUT_S, env=env, stdout=log_file,
            stderr=subprocess.STDOUT)
    if code != 0:
        with open(log_path) as log_file:
            sys.stderr.write(log_file.read()[-4000:])
        raise RuntimeError(f"build of {target} failed, see {log_path}")
    return os.path.join(out_dir, target)


def source_rev():
    """git revision when there is one, plus a digest of the sources."""
    rev = "unknown"
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        code, out, _ = run_command(["git", "rev-parse", "--short", "HEAD"], 10,
                                   cwd=ROOT, stdout=subprocess.PIPE,
                                   stderr=subprocess.DEVNULL, text=True)
        if code == 0 and out.strip():
            rev = out.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha1()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return f"{rev}+src.{digest.hexdigest()[:12]}"


def child_env(run_dir):
    env = dict(os.environ)
    env["OSSM_THREADS"] = PINNED_THREADS
    env["TMPDIR"] = run_dir
    # The measured configuration: heap storage, no exporters or profiler.
    for name in ("OSSM_STORAGE", "OSSM_METRICS", "OSSM_PROFILE", "OSSM_PERF",
                 "OSSM_SLOWLOG_US"):
        env.pop(name, None)
    return env


def check_result(line):
    result = json.loads(line)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError("result keys")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        raise ValueError("attempted")
    for metric in result["metrics"].values():
        if set(metric) != {"value", "unit"}:
            raise ValueError("metric keys")


def bench(args):
    binary = build("ossm_perfbench")
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = os.path.join(build_dir(), "runs")
    os.makedirs(runs, exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs)
    try:
        env = child_env(run_dir)
        common = ["--workload", args.workload, "--seed", str(args.seed),
                  "--dir", run_dir]
        code, _, err = run_command(
            [binary, "prepare"] + common,
            max(1.0, deadline - time.monotonic()), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        if code != 0:
            raise RuntimeError(f"prepare failed ({code}): {err.strip()}")
        cmd = [binary, "run"] + common + [
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--source-rev", source_rev()]
        if args.trace:
            traces = os.path.join(build_dir(), "traces")
            os.makedirs(traces, exist_ok=True)
            trace_path = os.path.join(
                traces, f"{args.workload}-seed{args.seed}.json")
            cmd += ["--trace-out", trace_path]
        code, out, err = run_command(
            cmd, max(1.0, deadline - time.monotonic()), env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        sys.stderr.write(err)
        if code != 0:
            raise RuntimeError(f"run failed with exit code {code}")
        lines = out.rstrip("\n").split("\n")
        check_result(lines[-1])
        if args.trace:
            log(f"spans written to {trace_path}")
        print("\n".join(lines), flush=True)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def selftest():
    binary = build("perfbench_test")
    code, _, _ = run_command([binary], 300)
    return code


def main():
    # SIGTERM unwinds like an exception, so child process groups are killed
    # and the per-run directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--test", action="store_true",
                        help="build and run the harness tests instead")
    args = parser.parse_args()
    try:
        if args.test:
            return selftest()
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds < 1:
            parser.error("--seconds must be at least 1")
        bench(args)
    except (RuntimeError, OSError, ValueError, subprocess.TimeoutExpired,
            json.JSONDecodeError, IndexError) as error:
        log(f"harness failure: {error}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
