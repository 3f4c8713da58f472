#!/usr/bin/env python3
"""The repository benchmark: builds exthash and the perfbench program from
source (Release), runs one workload in its own process, and prints every
metric by name and unit. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload archive --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py --workload all          # every workload, both modes

--trace 0 reports the end-to-end metrics. --trace 1 runs the workload twice,
untraced and traced, checks that the counted I/O of the two runs is
identical, and reports the per-layer metrics of the traced run with the
tracing overhead. Workloads, sizes and metrics: perfbench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench-release")
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench-out")
PROGRAM = os.path.join(BUILD_DIR, "perfbench")
WORKLOADS = ("archive", "dedup", "mixed-file")
# A run (both processes of --trace 1) must end within 180 s of the build.
RUN_BUDGET_S = 170
BUILD_TIMEOUT_S = 880


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configure and build once per checkout; later runs only re-check."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("the repository sources (CMakeLists.txt, src/) are missing")
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(BUILD_DIR, "build.lock"), "w") as lock, \
            open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S, check=False)
            except subprocess.TimeoutExpired:
                fail("build timed out", 1)
            if done.returncode != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail(f"build step failed: {' '.join(step)}", 1)


def provenance(seed):
    """Where the numbers come from: recorded beside every result."""
    git_sha = "none (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, check=False)
        if done.returncode == 0:
            git_sha = done.stdout.strip()
    # The code that runs: the library, bench/ helpers and this benchmark
    # (not its docs or recorded baseline).
    digest = hashlib.sha256()
    for base in ("src", "perfbench", "bench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                if not name.endswith((".cpp", ".h", ".py", ".txt")):
                    continue
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    os.makedirs(OUT_DIR, exist_ok=True)
    fs = subprocess.run(["stat", "-f", "-c", "%T", OUT_DIR],
                        capture_output=True, text=True, check=False)
    return {
        "git_sha": git_sha,
        "source_sha256": digest.hexdigest(),
        "host": platform.node(),
        "nproc": str(os.cpu_count()),
        "file_dir_fs": fs.stdout.strip() if fs.returncode == 0 else "unknown",
        "seed": str(seed),
    }


def run_program(workload, seed, seconds, trace, deadline):
    """One workload in its own process; returns the program's RESULT object."""
    # A private scratch directory per run: backing files, then the trace.
    work = os.path.join(OUT_DIR, f"run-{os.getpid()}-{trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(os.path.join(OUT_DIR, "results"), exist_ok=True)
    cmd = [PROGRAM, f"--workload={workload}", f"--seed={seed}",
           f"--seconds={seconds}", f"--trace={trace}", f"--out_dir={work}"]
    try:
        os.makedirs(work)
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False, cwd=ROOT)
        trace_file = os.path.join(work, f"trace-{workload}-{seed}.json")
        if os.path.isfile(trace_file):
            os.replace(trace_file, os.path.join(OUT_DIR, "results",
                                                os.path.basename(trace_file)))
    except subprocess.TimeoutExpired:
        fail(f"{workload} (trace {trace}) did not finish within the "
             f"{RUN_BUDGET_S}s budget", 1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = done.stdout.splitlines()
    result = None
    if lines and lines[-1].startswith("RESULT "):
        result = json.loads(lines[-1][len("RESULT "):])
        lines = lines[:-1]
    label = "traced" if trace else "untraced"
    print(f"--- {workload} seed={seed} {label} run (exit {done.returncode})")
    for line in lines:
        print(line)
    if done.stderr.strip():
        print(done.stderr.rstrip(), file=sys.stderr)
    if result is None:
        fail(f"{workload}: the program printed no result "
             f"(exit {done.returncode})", 1)
    return result


def layer_report(untraced, traced):
    """Self time of every layer, tracing overhead and drops (traced run)."""
    m = traced["metrics"]
    overhead = (m["ops_per_s"]["value"] / untraced["metrics"]["ops_per_s"]["value"]
                if untraced["metrics"]["ops_per_s"]["value"] > 0 else 0.0)
    print("--- self time by layer (traced run; share of the timed phase)")
    wall_ms = m["timed_s"]["value"] * 1000.0
    rows = [("client (benchmark loop)", "client.self_ms"),
            ("pipeline", "pipeline.self_ms"),
            ("tables (+ core, extmem.cache, extmem.device)", "tables.self_ms"),
            ("extmem.storage", "extmem.storage.self_ms"),
            ("durability.wal", "durability.wal.self_ms"),
            ("durability.checkpoint", "durability.checkpoint.self_ms")]
    for label, key in rows:
        ms = m[key]["value"]
        share = ms / wall_ms if wall_ms > 0 else 0.0
        print(f"self    {label:<46} {ms:12.3f} ms {share:8.4f}")
    print("self    core, extmem.cache, extmem.device: no public seam; "
          "their time is inside tables")
    print(f"trace   overhead (traced / untraced ops_per_s) {overhead:.4f}")
    print(f"trace   dropped events {int(m['trace.dropped_events']['value'])}")
    return overhead


def pick(result, kind):
    """The program's metrics of one kind, as {name: {"value", "unit"}}."""
    return {name: {"value": m["value"], "unit": m["unit"]}
            for name, m in result["metrics"].items() if m["kind"] == kind}


def run_workload(workload, seed, seconds, trace, info):
    """One workload in one mode: {"correct", "attempted", "failed", "metrics"}
    plus the program's raw results."""
    deadline = time.monotonic() + RUN_BUDGET_S
    runs = [run_program(workload, seed, seconds, 0, deadline)]
    metrics = pick(runs[0], "e2e")
    if trace:
        untraced = runs[0]
        traced = run_program(workload, seed, seconds, 1, deadline)
        runs.append(traced)
        metrics = pick(traced, "layer")
        metrics["trace.overhead"] = {"value": layer_report(untraced, traced),
                                     "unit": "ratio"}
        if untraced["counted"] != traced["counted"]:
            untraced["failures"].append(
                "counted I/O differs between the untraced and the traced run "
                f"of one seed: {untraced['counted']} vs {traced['counted']}")
            untraced["correct"] = False
    record = {"provenance": info, "seconds": seconds, "runs": runs}
    path = os.path.join(OUT_DIR, "results",
                        f"{workload}-seed{seed}-trace{int(trace)}.json")
    with open(path, "w") as f:
        json.dump(record, f, indent=1)
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": metrics,
    }, runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=8)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        fail("--seconds must be between 1 and 60")

    build()
    info = provenance(args.seed)
    for key, value in info.items():
        print(f"info    {key} = {value}")

    if args.workload != "all":
        result, _ = run_workload(args.workload, args.seed, args.seconds,
                                 args.trace, info)
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    # Every workload, traced: its untraced run gives the end-to-end metrics.
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        result, runs = run_workload(workload, args.seed, args.seconds, 1, info)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in {**pick(runs[0], "e2e"),
                             **result["metrics"]}.items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
