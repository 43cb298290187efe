#!/usr/bin/env python3
"""End-to-end benchmark of the uncertain k-center library.

Run from the repository root:

    python3 e2ebench/run.py --workload batch --seed 1 --seconds 12 --trace 0
    python3 e2ebench/run.py --selftest

Workloads: batch, local_search, stream, serve (see e2ebench/NOTES.md).
The first run builds two trees under .bench_build/ from the sources in
src/: the default configuration (observability on) and a -DUKC_OBS=OFF
one for the instrumentation-cost diagnostic.

--trace 0 measures untraced and reports the end-to-end metrics listed in
BENCHMARK.json. --trace 1 is the traced run: spans around every layer
call (written to .bench_build/traces/), the per-layer metrics, the
tracing overhead, and the instrumentation overhead against the
-DUKC_OBS=OFF build. Human-readable lines (provenance, every metric with
its unit and sample count) come first; the last line of standard output
is one JSON object: correct, attempted, failed, metrics. A failed output
check makes the command exit 1.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("batch", "local_search", "stream", "serve")
# Share of --seconds for the traced run; the rest times the OBS=OFF build.
TRACE_SHARE = 0.6


def fail(message):
    print("e2ebench: " + message, file=sys.stderr, flush=True)
    sys.exit(2)


def build(tree, obs):
    """Configures (once) and builds one tree; returns its directory."""
    directory = BUILD / tree
    if not (directory / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH), "-B", str(directory),
                     "-DCMAKE_BUILD_TYPE=Release",
                     "-DUKC_OBS=" + ("ON" if obs else "OFF")]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring %s failed" % tree)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(directory), "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("building %s failed" % tree)
    return directory


def provenance_of_checkout():
    """Commit of the checkout, marked -dirty when the tree is dirty."""
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=True).stdout.strip()
        dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown (git unavailable)"
    return head + ("-dirty" if dirty else "")


def run_workload(binary, args, timeout):
    """Runs ukc_e2e; returns (exit code, parsed result)."""
    try:
        proc = subprocess.run([str(binary)] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail("%s timed out after %d s" % (" ".join(args), timeout))
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail("ukc_e2e %s printed no result (exit %d)" % (" ".join(args), proc.returncode))
    return proc.returncode, json.loads(lines[-1])


def load_spec():
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        fail("BENCHMARK.json not found at the repository root")
    return json.loads(spec_path.read_text())


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build, then run the harness self-tests and smoke runs")
    args = parser.parse_args()

    if not (ROOT / "src" / "core").is_dir():
        fail("library sources not found under %s" % (ROOT / "src"))
    spec = load_spec()
    obs_on = build("obs-on", True)

    if args.selftest:
        sys.exit(subprocess.run(["ctest", "--test-dir", str(obs_on),
                                 "--output-on-failure"], stdout=sys.stderr).returncode)
    if args.workload is None:
        parser.error("--workload is required")
    obs_off = build("obs-off", False)

    work = BUILD / "work"
    traces = BUILD / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--workdir", str(work)]

    runs = []
    if args.trace == 0:
        runs.append(run_workload(obs_on / "ukc_e2e",
                                 common + ["--seconds", str(args.seconds)], 170))
        wanted = spec["end_to_end"]
    else:
        trace_file = traces / ("%s-seed%d.json" % (args.workload, args.seed))
        runs.append(run_workload(
            obs_on / "ukc_e2e",
            common + ["--mode", "trace", "--trace-out", str(trace_file),
                      "--seconds", str(args.seconds * TRACE_SHARE)], 110))
        runs.append(run_workload(
            obs_off / "ukc_e2e",
            common + ["--mode", "unit", "--seconds", str(args.seconds * (1 - TRACE_SHARE))],
            60))
        wanted = spec["per_layer"]

    measured = dict(runs[0][1]["metrics"])
    if args.trace == 1:
        on = measured["unit.untraced_s"]["value"]
        off = runs[1][1]["metrics"]["unit.untraced_s"]["value"]
        measured["obs.overhead_frac"] = {"value": on / off - 1.0, "unit": "ratio",
                                         "note": "UKC_OBS=ON vs OFF, one unit of work"}

    provenance = dict(runs[0][1]["provenance"])
    provenance["commit"] = provenance_of_checkout()
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name in sorted(measured):
        metric = measured[name]
        note = "  (%s)" % metric["note"] if metric["note"] else ""
        print("metric %-36s %.6g %s%s" % (name, metric["value"], metric["unit"], note))

    correct = all(code == 0 and result["correct"] for code, result in runs)
    metrics = {}
    for entry in wanted:
        name = entry["name"]
        if name in measured:
            metrics[name] = {"value": measured[name]["value"], "unit": entry["unit"]}
        elif args.trace == 1:
            # A layer this workload's traced run does not attribute.
            metrics[name] = {"value": 0, "unit": entry["unit"]}
        else:
            fail("workload %s did not report %s" % (args.workload, name))
    summary = {
        "correct": correct,
        "attempted": sum(result["attempted"] for _, result in runs),
        "failed": sum(result["failed"] for _, result in runs),
        "metrics": metrics,
    }
    record = dict(summary, provenance=provenance, all_metrics=measured)
    results = BUILD / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / ("%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
     ).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(summary), flush=True)
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
