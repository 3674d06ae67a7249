#!/usr/bin/env python3
"""Serving benchmark of picola.

Builds the server (`picola serve --tcp`) and the C++ load generator from
the checkout, then runs one workload and prints its metrics; the last
line of standard output is the JSON result.

  python3 perfbench/run.py --workload cold_con --seed 1 --seconds 40 --trace 0
  python3 perfbench/run.py --selftest        # the benchmark's own tests
  python3 perfbench/run.py --write-expected  # rewrite expected/*.tsv (seed 1)

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/),
relative to the checkout root.  See perfbench/README.md.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("cold_con", "hot_con", "kiss_mix", "portfolio_fsm")
# One run must end within 180 s; the load generator's own caps keep it
# well inside this.
RUN_TIMEOUT_S = 175


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(targets):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        sys.exit("perfbench: no program sources beside perfbench/ "
                 "(run it from a full checkout)")
    bdir = build_dir()
    bdir.mkdir(parents=True, exist_ok=True)
    log = bdir / "build.log"
    steps = []
    if not (bdir / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j2", "--target", *targets])
    with open(log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                out.flush()
                tail = log.read_text(errors="replace").splitlines()[-30:]
                sys.stderr.write("\n".join(tail) + "\n")
                sys.exit(f"perfbench: build failed (log in {log})")
    return bdir


def run(cmd):
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write(f"perfbench: run exceeded {RUN_TIMEOUT_S} s\n")
        return 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--write-expected", action="store_true")
    args = ap.parse_args()

    if args.selftest:
        bdir = build(["perfbench_tests"])
        return run([str(bdir / "perfbench_tests")])

    bdir = build(["perfbench_loadgen", "picola_cli"])
    loadgen = str(bdir / "perfbench_loadgen")
    expected = str(HERE / "expected")
    if args.write_expected:
        for w in [args.workload] if args.workload else WORKLOADS:
            rc = run([loadgen, "--write-expected", "--workload", w,
                      "--expected-dir", expected])
            if rc:
                return rc
        return 0
    if not args.workload:
        ap.error("--workload is required")
    return run([loadgen, "--workload", args.workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--picola", str(bdir / "picola" / "tools" / "picola"),
                "--expected-dir", expected,
                "--work-dir", str(bdir / "runs")])


if __name__ == "__main__":
    sys.exit(main())
