#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark binary is built from source
(perfbench/CMakeLists.txt plus src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset. With --trace 0 the run reports the
end-to-end metrics of BENCHMARK.json, with --trace 1 the per-layer ones.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. A record of the run with its
provenance (seed, git sha, source digest, compiler, build type, hardware
threads) is written under <build dir>/perfbench-results/.

Exit status: 0 when every output matched its reference; 1 on a mismatch
(the result line is still printed) or when the benchmark could not run or
its output was malformed (no result line); 2 on bad arguments.
"""

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def load_spec(root=ROOT):
    with open(root / "BENCHMARK.json") as f:
        return json.load(f)


def required_metrics(spec, trace):
    """Name -> unit of the metrics a run with this --trace must report."""
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in group}


def parse_metrics_file(text, required):
    """Validates the metrics file the benchmark binary writes.

    Returns the result object (correct, attempted, failed, metrics) with
    exactly the `required` metrics. Raises ValueError when the file is not
    what the binary promises: a missing or non-finite metric, a unit that
    disagrees with BENCHMARK.json, or malformed counts.
    """
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("metrics file is not a JSON object")
    correct = data.get("correct")
    if not isinstance(correct, bool):
        raise ValueError("'correct' must be true or false")
    counts = {}
    for key in ("attempted", "failed"):
        value = data.get(key)
        if not isinstance(value, int) or isinstance(value, bool) or value < 0:
            raise ValueError(f"'{key}' must be a non-negative integer")
        counts[key] = value
    if counts["attempted"] < 1:
        raise ValueError("no operation was attempted")
    if counts["failed"] > counts["attempted"]:
        raise ValueError("more operations failed than were attempted")
    if correct != (counts["failed"] == 0):
        raise ValueError("'correct' disagrees with the failed count")
    reported = data.get("metrics")
    if not isinstance(reported, dict):
        raise ValueError("'metrics' must be an object")
    metrics = {}
    for name, unit in required.items():
        entry = reported.get(name)
        if not isinstance(entry, dict):
            raise ValueError(f"metric {name} is missing")
        value = entry.get("value")
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"metric {name} has no finite value")
        if entry.get("unit") != unit:
            raise ValueError(
                f"metric {name} is in {entry.get('unit')!r}, "
                f"BENCHMARK.json says {unit!r}")
        metrics[name] = {"value": value, "unit": unit}
    return {"correct": correct, "attempted": counts["attempted"],
            "failed": counts["failed"], "metrics": metrics}


def git_sha(root=ROOT):
    """HEAD of the repository at `root`, or "unknown" outside a git tree."""
    try:
        top = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "--show-toplevel"],
            capture_output=True, text=True, check=True).stdout.strip()
        if Path(top).resolve() != root.resolve():
            return "unknown"
        return subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def source_digest(root=ROOT):
    """SHA-256 over the paths and bytes of every file the binary builds from."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("library sources (src/) are missing; cannot build the benchmark")
        return False
    steps = []
    if not (build_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(step))
            return False
    return True


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 60:
        parser.error("--seed must be >= 0 and --seconds within 1..60")

    try:
        spec = load_spec()
    except (OSError, ValueError) as error:
        log(f"cannot read BENCHMARK.json: {error}")
        return 1
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(build_dir):
        return 1

    out_dir = build_dir / "perfbench-results"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-s{args.seed}-t{args.trace}"
    metrics_path = out_dir / f"{stem}.metrics.json"
    metrics_path.unlink(missing_ok=True)
    command = [str(build_dir / "perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out", str(metrics_path)]
    if args.trace:
        command += ["--trace-out", str(out_dir / f"{stem}.spans.json")]
    try:
        code = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BINARY_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        log(f"benchmark exceeded {BINARY_TIMEOUT_S} s")
        return 1
    if code not in (0, 1):
        log(f"benchmark exited with status {code}")
        return 1
    try:
        text = metrics_path.read_text()
        result = parse_metrics_file(text, required_metrics(spec, args.trace))
    except (OSError, ValueError) as error:
        log(f"malformed benchmark output: {error}")
        return 1
    if (code == 0) != result["correct"]:
        log("exit status disagrees with the reported correctness")
        return 1

    record = json.loads(text)
    record["provenance"]["git_sha"] = git_sha()
    record["provenance"]["source_sha256"] = source_digest()
    (out_dir / f"{stem}.record.json").write_text(
        json.dumps(record, indent=2, sort_keys=True) + "\n")

    provenance = record["provenance"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"git={provenance['git_sha']} compiler={provenance['compiler']!r} "
          f"build={provenance['build_type']} "
          f"threads={provenance['hardware_concurrency']}")
    for error in record.get("errors", []):
        print(f"# FAILED {error}")
    for name, metric in result["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
