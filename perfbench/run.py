#!/usr/bin/env python3
"""End-to-end benchmark of the eqc library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (which compiles the library from src/) into
.bench_build/, runs the helper tests, runs one workload through the
eqcbench program and prints, as the last line of standard output, one
JSON object with the keys correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end metrics of BENCHMARK.json, with
--trace 1 its per-layer metrics. Exits 0 when every output check
passed, 1 when the correctness gate failed and 2 on any other error
(then no result line is printed). See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("train-vqe", "serve-unique", "serve-hotkey")


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_logged(cmd, log):
    with open(log, "a") as f:
        return subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT).returncode


def build(build_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die(f"no library sources at {ROOT / 'src'}; run from a full checkout")
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "perfbench-build.log"
    log.write_text("")
    if not (build_dir / "CMakeCache.txt").is_file():
        if run_logged(["cmake", "-S", str(HERE), "-B", str(build_dir),
                       "-DCMAKE_BUILD_TYPE=Release"], log):
            die(f"cmake configure failed; see {log}")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    if run_logged(["cmake", "--build", str(build_dir), "-j", jobs,
                   "--target", "eqcbench", "perfbench_tests"], log):
        die(f"build failed; see {log}")
    if run_logged([str(build_dir / "perfbench_tests")], log):
        die(f"perfbench helper tests failed; see {log}")


def load_expected(workload, seed):
    """Recorded outcome of (workload, seed), or None."""
    path = HERE / "expected.json"
    for entry in json.loads(path.read_text()).get(workload, []):
        if entry["seed"] == seed:
            return entry
    return None


def check_expected(report, expected):
    """Mismatches between a report and its recorded outcome."""
    facts = report.get("facts", {})
    problems = []
    for key, want in expected.items():
        if key == "seed":
            continue
        got = report.get("digest") if key == "digest" else facts.get(key)
        if got != want:
            problems.append(f"{key}: got {got!r}, recorded {want!r}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        die("--seed must be >= 0 and --seconds > 0")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die(f"missing {spec_path}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build_dir = ROOT / ".bench_build"
    build(build_dir)

    tag = f"{args.workload}-{args.seed}-{args.trace}"
    report_path = build_dir / f"report-{tag}.json"
    spans_path = build_dir / f"spans-{tag}.jsonl"
    report_path.unlink(missing_ok=True)
    cmd = [str(build_dir / "eqcbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--report", str(report_path)]
    if args.trace:
        cmd += ["--spans", str(spans_path)]
    sys.stdout.flush()
    code = subprocess.run(cmd).returncode
    if code not in (0, 1) or not report_path.is_file():
        die(f"eqcbench exited with {code}")
    report = json.loads(report_path.read_text())

    # The report must carry exactly the metrics BENCHMARK.json names, in
    # its units. Per-layer metrics of layers a workload does not use read
    # 0 and are listed.
    got = report["metrics"]
    unknown = sorted(set(got) - {m["name"] for m in wanted})
    if unknown:
        die(f"metrics not in BENCHMARK.json: {unknown}")
    metrics = {}
    absent = []
    for m in wanted:
        name, unit = m["name"], m["unit"]
        if name in got:
            if got[name]["unit"] != unit:
                die(f"{name}: unit {got[name]['unit']}, BENCHMARK.json {unit}")
            metrics[name] = {"value": got[name]["value"], "unit": unit}
        elif args.trace:
            absent.append(name)
            metrics[name] = {"value": 0, "unit": unit}
        else:
            die(f"end-to-end metric {name} missing from the run")
    if absent:
        print("not applicable on this workload (reported as 0): "
              + ", ".join(absent))

    correct = bool(report["correct"])
    expected = load_expected(args.workload, args.seed)
    if expected is not None and not args.trace:
        mismatches = check_expected(report, expected)
        for line in mismatches:
            print(f"FAIL   recorded outcome: {line}")
        correct = correct and not mismatches
        if not mismatches:
            print(f"recorded outcome of seed {args.seed} matched "
                  "bit for bit")

    print(json.dumps({"correct": correct,
                      "attempted": int(report["attempted"]),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
