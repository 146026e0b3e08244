#!/usr/bin/env python3
"""Build and run rsbench, the end-to-end and per-layer benchmark of rselect.

Run it from the root of a source checkout:

    python3 rsbench/run.py --workload suite-live --seed 1 --seconds 15
    python3 rsbench/run.py --workload all       # the four workloads, one table
    python3 rsbench/run.py --trace 1            # the per-layer ledger
    python3 rsbench/run.py --self-test          # small sizes, perturbed golden
    python3 rsbench/run.py --record-goldens     # re-verify and rewrite goldens

The first run configures and builds the benchmark, with the library it
measures, under .bench_build/rsbench. Build output goes to standard
error; the last line of standard output is the run's JSON result.
NOTES.md describes the workloads and metrics.
"""

import argparse
import functools
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "rsbench"
BINARY = BUILD / "rsbench"
GOLDENS = HERE / "goldens.txt"
WORKLOADS = ["suite-live", "suite-replay", "suite-churn", "serve-4096"]
# A run is allowed 180 s; the binary gets most of it.
RUN_TIMEOUT_S = 170


def build():
    """Configure once, then build; the build is a no-op when current."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError("src/ is missing beside the benchmark; run it "
                           "from a checkout of the repository")
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                   check=True, stdout=sys.stderr)


@functools.lru_cache(maxsize=None)
def source_revision():
    """The git commit, or a digest of src/ where there is no git data."""
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if out.returncode == 0:
            return out.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def run(args, goldens=GOLDENS, echo=True):
    """Run the binary; return its exit code and its parsed last line."""
    cmd = [str(BINARY), "--commit", source_revision(),
           "--goldens", str(goldens)] + args
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def run_all(common):
    """Each workload in its own process (peak RSS is per workload), then
    one table of every metric and a combined result line."""
    results = {}
    code = 0
    for workload in WORKLOADS:
        rc, result = run(["--workload", workload] + common)
        if result is None:
            print(f"rsbench: {workload} printed no result (exit {rc})",
                  file=sys.stderr)
            return rc or 1
        results[workload] = result
        code = max(code, rc)
    print()
    print(f"{'metric':<22}{'unit':<10}" +
          "".join(f"{w:>16}" for w in WORKLOADS))
    for name, metric in results[WORKLOADS[0]]["metrics"].items():
        cells = "".join(f"{results[w]['metrics'][name]['value']:>16.6g}"
                        for w in WORKLOADS)
        print(f"{name:<22}{metric['unit']:<10}{cells}")
    shares = "".join(
        f"{results[w]['failed'] / results[w]['attempted']:>16.6g}"
        for w in WORKLOADS)
    print(f"{'mismatch_share':<22}{'share':<10}{shares}")
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    merged = {f"{w}.{name}": metric for w, r in results.items()
              for name, metric in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": merged}))
    return code


def self_test():
    """Small sizes: every workload and the ledger must pass and report
    every metric BENCHMARK.json names; a perturbed golden must fail."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    per_layer = {m["name"] for m in spec["per_layer"]}
    small = ["--scale", "small", "--seconds", "0"]
    failures = []

    def expect(ok, what):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        rc, result = run(["--workload", workload] + small, echo=False)
        expect(rc == 0 and result is not None and result["correct"] and
               end_to_end <= set(result["metrics"]),
               f"{workload}: correct, every end-to-end metric reported")
    rc, result = run(["--trace", "1"] + small, echo=False)
    expect(rc == 0 and result is not None and result["correct"] and
           per_layer <= set(result["metrics"]),
           "traced ledger: correct, every per-layer metric reported")

    lines = GOLDENS.read_text().splitlines()
    target = next(i for i, line in enumerate(lines)
                  if line.startswith("small live "))
    digit = lines[target][-1]
    lines[target] = lines[target][:-1] + ("1" if digit == "0" else "0")
    perturbed = BUILD / "perturbed-goldens.txt"
    perturbed.write_text("\n".join(lines) + "\n")
    rc, result = run(["--workload", "suite-live"] + small,
                     goldens=perturbed, echo=False)
    expect(rc != 0 and result is not None and not result["correct"] and
           result["failed"] == 1,
           "suite-live fails against one perturbed golden fingerprint")
    print("self-test " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description="Build and run rsbench (see rsbench/NOTES.md).")
    parser.add_argument("--workload", default="suite-live",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0,
                        help="input seed; 0 = the golden inputs")
    parser.add_argument("--seconds", type=float, default=15,
                        help="repeat the workload for this long")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = the per-layer ledger of all workloads")
    parser.add_argument("--scale", choices=["full", "small"],
                        default="full")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-goldens", action="store_true")
    args = parser.parse_args()
    try:
        build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"rsbench: cannot build the benchmark: {err}",
              file=sys.stderr)
        return 1
    if args.self_test:
        return self_test()
    if args.record_goldens:
        return run(["--record-goldens", str(GOLDENS)])[0]
    common = ["--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--scale", args.scale]
    if args.workload == "all" and args.trace == 0:
        return run_all(common)
    workload = "suite-live" if args.workload == "all" else args.workload
    return run(["--workload", workload] + common)[0]


if __name__ == "__main__":
    sys.exit(main())
