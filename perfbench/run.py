#!/usr/bin/env python3
"""finelb end-to-end benchmark: build, run one workload, check, report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call configures and builds the
finelb libraries from src/ plus this benchmark into .bench_build/ (or
$CARGO_TARGET_DIR when set) and runs the benchmark's own math tests; later
calls reuse the build. The workload runs in the `perfbench` binary, which
prints its metrics and correctness checks as JSON. This script prints a
readable report with the host and build fingerprint, then, as the last line
of standard output, one JSON object with the keys correct, attempted, failed
and metrics. It exits non-zero, without that line, if the build fails, and
with `"correct": false` and a non-zero code if any check fails.

    python3 perfbench/run.py --selftest   # build and run the math tests only
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sim_poll3_fine", "proto_tiny_poll3")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def build():
    """Configures once, then builds incrementally; returns the build dir."""
    out = build_dir()
    t0 = time.monotonic()
    steps = [["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1)),
              "--target", "perfbench", "perfbench_math_test"]]
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", out,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-6000:])
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    log("perfbench: build step took %.1f s" % (time.monotonic() - t0))
    return out


def selftest(out):
    proc = subprocess.run([os.path.join(out, "perfbench_math_test")],
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=60)
    if proc.returncode != 0:
        log(proc.stdout[-4000:])
    return proc.returncode == 0


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def cpu_ticks():
    """(steal, total) jiffies from /proc/stat's cpu line; (0, 0) if absent."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    steal = fields[7] if len(fields) > 7 else 0
    return steal, sum(fields[:8])


def fingerprint(build_info):
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "kernel": platform.release(),
        "compiler": build_info.get("compiler", "unknown"),
        "build_type": build_info.get("build_type", "unknown"),
        "finelb_telemetry": build_info.get("finelb_telemetry", "unknown"),
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and args.workload is None:
        ap.error("--workload is required")

    out = build()
    math_ok = selftest(out)
    if args.selftest:
        log("perfbench: math tests " + ("passed" if math_ok else "FAILED"))
        return 0 if math_ok else 1

    cmd = [os.path.join(out, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    steal0, total0 = cpu_ticks()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=RUN_TIMEOUT_S)
    steal1, total1 = cpu_ticks()
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(proc.stderr[-4000:])
        raise SystemExit("perfbench: workload run failed (exit %d)"
                         % proc.returncode)
    doc = json.loads(lines[-1])

    checks = doc["checks"] + [{
        "name": "perfbench.math_tests", "ok": math_ok,
        "detail": "bench_math_test on synthetic inputs"}]
    correct = all(c["ok"] for c in checks)
    fp = fingerprint(doc.get("build", {}))
    # CPU time the hypervisor gave to other guests while this ran: the
    # prototype figures move with it.
    fp["host_steal_pct"] = round(100.0 * (steal1 - steal0)
                                 / max(1, total1 - total0), 2)

    print("perfbench %s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, args.seconds, args.trace))
    print("fingerprint " + json.dumps(fp, sort_keys=True))
    for name, m in doc["metrics"].items():
        print("  %-36s %16.6g %s" % (name, m["value"], m["unit"]))
    for c in checks:
        print("  check %-52s %s  %s"
              % (c["name"], "ok" if c["ok"] else "FAIL", c["detail"]))
    print("info " + json.dumps(doc.get("info", {}), sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "metrics": doc["metrics"],
    }))
    sys.stdout.flush()
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
