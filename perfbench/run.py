#!/usr/bin/env python3
"""Builds the benchmark runner from source and runs one workload.

    python3 perfbench/run.py --workload replay-hit --seed 42 --seconds 30
    python3 perfbench/run.py --selftest

Run from the repository root. The runner (perfbench.cc) is compiled, with the
simulator libraries under src/, into $CARGO_TARGET_DIR (default .bench_build).
The last line of standard output is the runner's JSON result. --trace 1 also
writes the run's spans to <build dir>/spans/<workload>-seed<N>.json.

--selftest runs every workload twice, in separate processes, at a reduced
size and at two seeds, and fails if any run is incorrect or, for a workload
the runner declares exact, the two runs' sim_digest values differ.
"""
import argparse
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["replay-hit", "replay-miss", "serve-kv", "serve-cluster"]
# A run must end within 180 s; the runner stops itself after --seconds plus
# at most one rep, so this only catches a hung run.
RUN_TIMEOUT_S = 170


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Configures and builds the runner; returns its path."""
    out = build_dir() / "perfbench"
    # Keep the compiler's temporary files inside the build directory too.
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    subprocess.run(
        ["cmake", "-S", str(HERE), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench", "-j", jobs],
        check=True, stdout=sys.stderr, stderr=sys.stderr, env=env)
    return out / "perfbench"


def run_binary(binary, args):
    """Runs the benchmark binary; returns (exit code, stdout)."""
    proc = subprocess.Popen([str(binary)] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run timed out\n")
        return 1, ""
    return proc.returncode, stdout


def selftest(binary):
    ok = True
    for workload in WORKLOADS:
        for seed in (42, 7):
            digests = []
            exact = True
            for _ in range(2):
                code, stdout = run_binary(
                    binary, [f"--workload={workload}", f"--seed={seed}",
                             "--seconds=0", "--trace=0", "--small"])
                match = re.search(r"exact=([01]) .*sim_digest=([0-9a-f]{16})",
                                  stdout)
                if code != 0 or match is None:
                    sys.stderr.write(stdout)
                    digests.append(None)
                else:
                    exact = match.group(1) == "1"
                    digests.append(match.group(2))
            ran = None not in digests
            same = ran and digests[0] == digests[1]
            if same:
                verdict = "ok"
            elif ran and not exact:
                verdict = "differs (workload declared inexact)"
            else:
                verdict = "FAIL"
                ok = False
            print(f"{workload} seed={seed} digests={digests} {verdict}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        sys.stderr.write(f"perfbench: build failed: {err}\n")
        return 1
    if args.selftest:
        return selftest(binary)

    bench_args = [f"--workload={args.workload}", f"--seed={args.seed}",
                   f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        spans = build_dir() / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        bench_args.append(
            f"--spans={spans / f'{args.workload}-seed{args.seed}.json'}")
    code, stdout = run_binary(binary, bench_args)
    sys.stdout.write(stdout)
    return code


if __name__ == "__main__":
    sys.exit(main())
