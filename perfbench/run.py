#!/usr/bin/env python3
"""Repository benchmark: build the library and the driver, run one workload.

Run from the root of a source tree:

    python3 perfbench/run.py --workload archive-sz --seed 1 --seconds 20 --trace 0

The library under src/ and the driver in perfbench/ are configured and
built (Release) into .bench_build/ (or $CARGO_TARGET_DIR when set); the
first run builds, later runs reuse the build.  The driver's result is
relayed as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list; a per-layer metric of a layer the workload
does not exercise reads 0.  The line before it is the run's record
(environment, build, source digest, seed, failures by kind, notes), also
written to .bench_build/results/.  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_digest(root):
    """sha256 over every file under src/ and perfbench/ (path + bytes)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit(root):
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    cmake = shutil.which("cmake")
    if cmake is None:
        fail("cmake not found", 1)
    jobs = str(os.cpu_count() or 1)
    steps = [
        [cmake, "-S", str(root / "perfbench"), "-B", str(build_dir),
         "-DCMAKE_BUILD_TYPE=Release"],
        [cmake, "--build", str(build_dir), "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 1)
    return build_dir / "perfbench_driver"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = pathlib.Path.cwd()
    spec_path = root / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found; run from the repository root")
    spec = json.loads(spec_path.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload '{args.workload}'")
    if not (root / "src" / "CMakeLists.txt").is_file():
        fail("library sources (src/) not found; run from a full source tree", 1)

    out_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    driver = build(root, out_dir / "perfbench")
    work_dir = out_dir / "work" / f"{args.workload}-{os.getpid()}"
    command = [str(driver), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--work-dir", str(work_dir)]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver did not finish within {RUN_TIMEOUT_S} s", 1)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    lines = [line for line in done.stdout.splitlines() if line.strip()]
    try:
        raw = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        fail(f"driver exited with {done.returncode} and no result", 1)

    # The driver flushes its result before main returns.  An exit after
    # that (a crash during static teardown) is reported, not masked: the
    # result is kept but marked incorrect and the exit code is nonzero.
    abnormal = done.returncode != 0
    if abnormal:
        print(f"perfbench: driver exited abnormally ({done.returncode}) "
              "after writing its result", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        measured = raw["metrics"].get(name)
        if measured is None:
            if not args.trace:
                fail(f"workload did not report end-to-end metric {name}", 1)
            measured = {"value": 0.0, "unit": unit}
        if measured["unit"] != unit:
            fail(f"metric {name} reported in {measured['unit']}, "
                 f"BENCHMARK.json says {unit}", 1)
        metrics[name] = {"value": measured["value"], "unit": unit}

    result = {
        "correct": bool(raw["correct"]) and not abnormal,
        "attempted": int(raw["attempted"]),
        "failed": int(raw["failed"]),
        "metrics": metrics,
    }
    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "build_type": "Release", "commit": git_commit(root),
        "source_digest": source_digest(root),
        "env": raw["env"], "failures": raw["failures"], "notes": raw["notes"],
        "exit_code": done.returncode, "result": result,
    }
    results_dir = out_dir / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 3 if abnormal else 0


if __name__ == "__main__":
    sys.exit(main())
