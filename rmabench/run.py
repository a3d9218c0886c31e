#!/usr/bin/env python3
"""Build rmabench from source and run one workload.

Usage (from the repository root):
    python3 rmabench/run.py --workload <dht-volume|kv-zipf|mc-check> \
        --seed <n> --seconds <s> --trace <0|1>

Configures and builds rmabench/ (which compiles the library from src/)
into .bench_build/rmabench on first use, then runs the rmabench binary with
the given arguments. Build output goes to stderr. The binary's stdout is
passed through after checking that its last line, the JSON result, names
exactly the metrics BENCHMARK.json lists for the requested mode, with the
listed units. Trace artifacts land in .bench_build/out. Exits non-zero if
the build, a correctness check, or that validation fails.
"""
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "rmabench")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "rmabench")
RUN_TIMEOUT_S = 175


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    try:
        if not os.path.exists(os.path.join(BUILD, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True)
        subprocess.run(["cmake", "--build", BUILD, "--target", "rmabench",
                        "-j", "4"], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as error:
        fail("build failed: %s" % error)


def expected_metrics(trace):
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as error:
        fail("cannot read BENCHMARK.json: %s" % error)
    section = spec["per_layer" if trace == "1" else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def validate(lines, trace):
    if not lines:
        fail("rmabench printed nothing")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("the last output line is not JSON")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("unexpected result keys %s" % sorted(result))
    if result["correct"] is not True or result["attempted"] < 1:
        fail("result is not a correct run")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))


def run_binary(argv):
    """Runs the rmabench binary; it is stopped and reaped if this script is
    terminated or the run exceeds RUN_TIMEOUT_S."""
    proc = subprocess.Popen([BINARY] + argv + ["--out", OUT],
                            stdout=subprocess.PIPE, text=True)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail("rmabench did not finish within %d s" % RUN_TIMEOUT_S)
    return proc.returncode, out


def main(argv):
    trace = argv[argv.index("--trace") + 1] if "--trace" in argv else ""
    build()
    returncode, out = run_binary(argv)
    sys.stdout.write(out)
    sys.stdout.flush()
    if returncode != 0:
        return returncode
    validate(out.splitlines(), trace)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
