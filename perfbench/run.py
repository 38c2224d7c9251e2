#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name|all> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the simulator libraries from src/) in a
Release configuration under .bench_build/perfbench, prints a machine
fingerprint, runs the workload and passes its report through. The last
line of stdout is the JSON result; the exit code is non-zero when the
build fails or any correctness check does.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["mesh4_faults", "ring64_part", "ring8_ff_24h", "fuzz_attack_campaign"]
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build(jobs):
    """Configure once, then (re)build; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("src/ is missing: perfbench builds the simulator from a full checkout")
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    with open(log_path, "w") as log:
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            cfg = subprocess.run(
                ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"], stdout=log, stderr=subprocess.STDOUT)
            if cfg.returncode != 0:
                fail(f"cmake configure failed; see {log_path}")
        res = subprocess.run(["cmake", "--build", out, "-j", str(jobs)],
                             stdout=log, stderr=subprocess.STDOUT)
    if res.returncode != 0:
        with open(log_path) as log:
            sys.stderr.write("".join(log.readlines()[-30:]))
        fail(f"build failed; see {log_path}")
    with open(os.path.join(out, "CMakeCache.txt")) as cache:
        build_type = next((l.split("=", 1)[1].strip() for l in cache
                           if l.startswith("CMAKE_BUILD_TYPE:")), "")
    if build_type != "Release":
        fail(f"refusing to benchmark a '{build_type}' build; it must be Release", 3)
    return os.path.join(out, "perfbench")


def source_digest():
    """sha256 over the simulator and benchmark sources (stands in for the
    git SHA in checkouts that are not git repositories)."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    h.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as f:
                        h.update(f.read())
    return h.hexdigest()[:12]


def fingerprint():
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), cpu)
    except OSError:
        pass
    sha = ""
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
                                 capture_output=True, text=True, timeout=10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return (f"nproc={os.cpu_count()} cpu='{cpu}' "
            f"git={sha or 'none'} src={source_digest()}")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_one(binary, args, workload, fp):
    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", trace_dir, "--fingerprint", fp]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    lines = []
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if not line.startswith("{"):
                print(line, end="", flush=True)
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines[-1])
        want = expected_metrics(args.trace)
        if sorted(result["metrics"]) != sorted(want):
            print(f"error: {workload} printed metrics {sorted(result['metrics'])}, "
                  f"BENCHMARK.json lists {sorted(want)}")
            return None, 1
    return result, code


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()

    binary = build(min(4, os.cpu_count() or 1))
    fp = fingerprint()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    results, worst = {}, 0
    for w in workloads:
        result, code = run_one(binary, args, w, fp)
        worst = worst or code
        if result is None:
            print(f"error: {w} printed no result (exit {code})")
            sys.exit(code or 1)
        results[w] = result

    if len(workloads) == 1:
        print(json.dumps(results[workloads[0]]))
    else:
        print("\nsummary (" + fp + ")")
        for w, r in results.items():
            cells = "  ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in r["metrics"].items())
            print(f"  {w}: correct={r['correct']} failed={r['failed']}/{r['attempted']}  {cells}")
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}.{k}": v for w, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    sys.exit(worst)


if __name__ == "__main__":
    main()
