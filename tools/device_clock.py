#!/usr/bin/env python3
"""Write the benchmark's device-clock metrics to BENCH_device_clock.json.

Runs one short round of each e2ebench workload with tracing off and keeps
the six metrics of its result line that come from the simulated device
clock. They depend on the code alone, not on the host, so a change that
must keep the device clock can be checked with

    python3 tools/device_clock.py
    git diff --exit-code -- BENCH_device_clock.json

Run it from anywhere; it builds e2ebench (its own cargo workspace) in
release mode first.
"""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ["read-hot", "write-grow"]
ARGS = ["--seed", "5", "--seconds", "0.01", "--trace", "0"]
METRICS = [
    "device_ops_per_s",
    "device_get_p99_us",
    "device_put_p99_us",
    "write_amp",
    "flash_reads_per_get",
    "space_amp",
]


def device_metrics(workload):
    cargo = ["cargo", "run", "--release", "--offline", "--quiet"]
    cargo += ["--manifest-path", "e2ebench/Cargo.toml", "--"]
    out = subprocess.run(
        cargo + ["--workload", workload] + ARGS,
        cwd=ROOT,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: correct={result['correct']} failed={result['failed']}")
    return {name: result["metrics"][name]["value"] for name in METRICS}


def main():
    report = {
        "command": "e2ebench --workload <workload> " + " ".join(ARGS),
        "workloads": {w: device_metrics(w) for w in WORKLOADS},
    }
    path = ROOT / "BENCH_device_clock.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
