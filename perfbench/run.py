#!/usr/bin/env python3
"""Build and run the nanocost benchmark.

    python3 perfbench/run.py --workload explore|sweep|figures|all \
        --seed N --seconds S --trace 0|1

Builds the shipped `serve` binary and the benchmark binary (into
$CARGO_TARGET_DIR, default `.bench_build`), then runs the workload. The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}. With `--workload all` the
three workloads run in turn; their metrics are reported as
`<workload>.<metric>`, and a traced run also prints the explore and
sweep stage tables side by side. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ["explore", "sweep", "figures"]
STAGES = ["net.connect_us.p50", "server.wait_us.p50", "http.parse_us.p50",
          "api.handle_us.p50", "http.encode_us.p50", "net.read_us.p50"]


def build(target_dir):
    """Builds both binaries; returns their paths."""
    for cmd in (
        ["cargo", "build", "--release", "--quiet", "-p", "nanocost-serve", "--bin", "serve"],
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "perfbench/Cargo.toml"],
    ):
        # Cargo's own output goes to stderr; stdout carries the result.
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=sys.stderr,
                       env=dict(os.environ, CARGO_TARGET_DIR=target_dir))
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "serve"), os.path.join(release, "nanocost-perfbench")


def run_one(bench, serve, workload, args):
    """Runs one workload; echoes its output and returns its result."""
    out = subprocess.run(
        [bench, "--serve-bin", serve, "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.rstrip("\n").split("\n")
    print("\n".join(lines[:-1]))
    return json.loads(lines[-1])


def stage_table(results):
    """The explore and sweep per-stage p50s side by side (us)."""
    cols = [w for w in ("explore", "sweep") if w in results]
    rows = ["stage p50 (us)".ljust(26) + "".join(c.rjust(14) for c in cols)]

    for name in STAGES + ["client.latency_us.p50", "unattributed_us.p50"]:
        rows.append(name.ljust(26)
                    + "".join(f"{results[w]['metrics'][name]['value']:14.1f}" for w in cols))
    return "\n".join(rows)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: no Cargo workspace at the checkout root; nothing to build")
    target_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    try:
        serve, bench = build(target_dir)
        if args.workload != "all":
            print(json.dumps(run_one(bench, serve, args.workload, args)))
            return
        results = {w: run_one(bench, serve, w, args) for w in WORKLOADS}
    except subprocess.CalledProcessError as e:
        sys.exit(f"perfbench: {' '.join(e.cmd[:2])} failed with status {e.returncode}")
    if args.trace:
        print(stage_table(results))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
