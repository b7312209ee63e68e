#!/usr/bin/env python3
"""Build and run the dtrain wall-clock benchmark.

Run from the root of the repository:

    python3 perfbench/run.py --workload cnn_threaded --seed 11 --seconds 15 --trace 0
    python3 perfbench/run.py --all [--seed 11] [--seconds 15]

The first form builds the benchmark (a cargo package of its own in this
directory, plus the proc path's worker binary) into $CARGO_TARGET_DIR
(default `.bench_build`), runs one workload, and passes its output through:
every metric with its unit, a `report:` line with the self-describing
document, and as the last line the JSON summary of the metrics
BENCHMARK.json declares. `--all` runs every workload untraced and traced,
prints every metric with its unit, and exits non-zero if any check failed.

The kernel pool is pinned to one thread (DTRAIN_THREADS=1), so no workload
runs more compute threads than the host has CPUs; every other DTRAIN_*
variable is cleared so the environment cannot change what is measured.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MANIFEST = os.path.join(HERE, "Cargo.toml")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
RUN_TIMEOUT_S = 178


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def revision():
    """The git commit when there is one, and always a hash of the sources."""
    h = hashlib.sha256()
    for top in ("Cargo.toml", "Cargo.lock", "crates", "shims", "perfbench"):
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else []
        for d, dirs, fs in os.walk(path):
            dirs[:] = sorted(x for x in dirs if x != "target" and not x.startswith("."))
            files += sorted(os.path.join(d, f) for f in fs
                            if f.endswith((".rs", ".toml", ".lock", ".py")))
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    rev = f"sources-sha256:{h.hexdigest()[:16]}"
    try:
        git = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        if git.returncode == 0:
            rev = f"git:{git.stdout.strip()} {rev}"
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev


def build():
    """Build the benchmark and the proc worker; return (binary, env)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DTRAIN_")}
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    for extra in (["--bin", "perfbench"], ["-p", "dtrain-proc", "--bin", "dtrain-proc-worker"]):
        cmd = ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST, *extra]
        # Cargo's progress goes to stderr; stdout stays the benchmark's.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            log(f"build failed: {' '.join(cmd)}")
            sys.exit(1)
    release = os.path.join(target, "release")
    env["DTRAIN_THREADS"] = "1"
    env["DTRAIN_PROC_WORKER"] = os.path.join(release, "dtrain-proc-worker")
    env["PERFBENCH_REVISION"] = revision()
    return os.path.join(release, "perfbench"), env


def run_one(binary, env, workload, seed, seconds, trace, echo=True):
    """Run one workload; return (exit code, summary dict or None, stdout)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--spec", SPEC]
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None, ""
    lines = out.splitlines()
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    try:
        summary = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        summary = None
    return proc.returncode, summary, out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--seconds", type=int, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="every workload, untraced and traced")
    args = ap.parse_args()
    if not os.path.isfile(SPEC):
        log(f"missing {SPEC}")
        sys.exit(1)
    with open(SPEC) as fh:
        spec = json.load(fh)
    workloads = [w["name"] for w in spec["workloads"]]
    args.seconds = args.seconds or spec["run_seconds"]
    if not args.all and args.workload not in workloads:
        ap.error(f"--workload must be one of {workloads} (or use --all)")

    binary, env = build()
    if not args.all:
        code, _, _ = run_one(binary, env, args.workload, args.seed, args.seconds, args.trace)
        sys.exit(code)

    failed = []
    for workload in workloads:
        for trace in (0, 1):
            log(f"{workload} trace={trace}")
            code, summary, out = run_one(binary, env, workload, args.seed, args.seconds,
                                         trace, echo=False)
            if code != 0 or not summary or not summary.get("correct"):
                failed.append(f"{workload} trace={trace} (exit {code})")
                for line in out.splitlines():
                    if line.startswith("FAILED CHECK"):
                        print(f"   {line}")
                continue
            print(f"== {workload} trace={trace}: attempted {summary['attempted']}, "
                  f"failed {summary['failed']}")
            for name, m in sorted(summary["metrics"].items()):
                print(f"   {name:<40} {m['value']:>16.6f} {m['unit']}")
    if failed:
        print("FAILED: " + "; ".join(failed))
        sys.exit(1)
    print("all workloads passed every check")


if __name__ == "__main__":
    main()
