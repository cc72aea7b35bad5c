"""Benchmark entry point.

Run from the checkout root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: rdgbg-noisy, cell-grid, spark-partitions (see perfbench/README.md).
The first run compiles the program and the harness (perfbench/build.py).
The harness JVM prints a readable summary and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}; this script checks that
line and prints it last. With --trace 1 the metrics are the per-layer ones
and the spans are written to .bench_build/perfbench/trace-*.jsonl.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

WORKLOADS = ("rdgbg-noisy", "cell-grid", "spark-partitions")
# A traced cell-grid run takes about twice its budget (it replays every
# round); set-up and the JVM exit take up to about a minute more.
SETUP_ALLOWANCE_S = 90
# Options the Spark launcher passes to a JDK 17 driver.
JVM_OPENS = [
    "--add-opens=java.base/" + pkg + "=ALL-UNNAMED"
    for pkg in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
                "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
                "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
                "sun.util.calendar")
] + ["-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def jvm_command(classpath, main_args):
    out = os.path.relpath(build.OUT, os.getcwd())
    tmp = os.path.join(build.OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return ([build.java(), "-Xms3g", "-Xmx3g", "-Djava.io.tmpdir=" + tmp] + JVM_OPENS +
            ["-cp", classpath, "perfbench.Main", "--out", out] + main_args)


def run_jvm(cmd, log_name, timeout_s):
    """Run the harness JVM; return its stdout lines, or exit on failure."""
    log = os.path.join(build.OUT, log_name)
    with open(log, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                                  timeout=timeout_s)
        except subprocess.TimeoutExpired:
            sys.exit(f"harness timed out after {timeout_s} s (log: {log})")
    if proc.returncode != 0:
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        sys.exit(f"harness failed with exit code {proc.returncode} (log: {log})")
    return proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        classpath = build.build()
    except build.BuildError as e:
        sys.exit(f"build failed: {e}")
    launch_ns = time.time_ns()
    lines = run_jvm(jvm_command(classpath, [
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--launch-ns", str(launch_ns)]),
        f"{args.workload}-seed{args.seed}-trace{args.trace}.log",
        3 * args.seconds + SETUP_ALLOWANCE_S)
    if not lines:
        sys.exit("harness printed nothing")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        sys.exit("harness printed a malformed result")
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
