#!/usr/bin/env python3
"""Build the benchmark driver from this source tree and run one workload.

    python3 perfbench/run.py --workload <live-v1|uplink-burst|fleet-failover>
                             --seed <n> --seconds <s> --trace <0|1>

Run from the root of the source tree. The driver is configured and
built with CMake under $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench); an up-to-date build is reused. The last line
of standard output is the result object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1). The line before it is the run record. Runs with the same
seed must agree on every deterministic metric: the values of each run
are kept next to the build, keyed by the driver binary, and a run that
disagrees with an earlier one is reported as incorrect. See
perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("live-v1", "uplink-burst", "fleet-failover")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = Path.cwd() / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds the driver; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (
        ROOT / "src" / "CMakeLists.txt"
    ).is_file():
        fail(f"no EdgePCC sources next to {HERE.name}/, nothing to build")
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found")
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"={HERE}\n" not in cache.read_text():
        shutil.rmtree(out)  # configured for another source tree
    out.mkdir(parents=True, exist_ok=True)
    if not cache.exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = [cmake, "-S", str(HERE), "-B", str(out), *generator,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = [cmake, "--build", str(out), "--target",
                   "perfbench_driver", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return out / "perfbench_driver"


def source_identity():
    """The git commit when there is one, and a digest of the sources."""
    commit = "none"
    if (ROOT / ".git").exists() and shutil.which("git"):
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if res.returncode == 0:
            commit = res.stdout.strip()
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "include", HERE.name):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file():
                digest.update(str(f.relative_to(ROOT)).encode())
                digest.update(f.read_bytes())
    return commit, digest.hexdigest()[:16]


def check_determinism(out, driver, args, values):
    """Compares this run's deterministic values with an earlier run
    of the same binary, workload and seed; returns a list of errors."""
    if not values:
        return []
    binary = hashlib.sha256(driver.read_bytes()).hexdigest()[:16]
    path = out / "records" / binary / f"{args.workload}-{args.seed}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        return [f"{name}: {earlier.get(name)} earlier, {value} now"
                for name, value in values.items()
                if earlier.get(name) != value]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True))
    return []


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    driver = build(out)
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        traces = out / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        command += ["--trace-out",
                    str(traces / f"{args.workload}-{args.seed}.json")]
    try:
        res = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s")
    if res.returncode != 0:
        fail(f"driver exited with code {res.returncode}")

    record, values, result = {}, {}, None
    for line in res.stdout.splitlines():
        if line.startswith("perfbench-record "):
            record = json.loads(line.split(" ", 1)[1])
        elif line.startswith("perfbench-deterministic "):
            values = json.loads(line.split(" ", 1)[1])
        elif line.startswith("{"):
            result = json.loads(line)
    if result is None:
        fail("driver printed no result")

    errors = check_determinism(out, driver, args, values)
    for error in errors:
        print(f"perfbench: not deterministic: {error}", file=sys.stderr)
    if errors:
        result["correct"] = False
    record["commit"], record["source_digest"] = source_identity()
    print("perfbench-record " + json.dumps(record, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
