#!/usr/bin/env python3
"""Write the device-clock figures to BENCH_device_clock.json.

Two parts, both computed from the simulated device clock alone, so they
depend on the code and not on the host:

* the six device-clock metrics of one short round of each e2ebench
  workload, with tracing off;
* a SHA-256 of each figure-bench output that repeats byte-for-byte: the
  JSON that fig2, fig5, fig6, fig8, lsm_vs_hash, table1 and tail_latency
  write under target/experiments/ at --scale small, and the stdout of
  ablations. Each bench runs in a temporary directory, since they write
  into their working directory. Two runs of one build gave the same bytes
  for every one of these outputs, so none is left out.

A change that must keep the device clock can be checked with

    python3 tools/device_clock.py
    git diff --exit-code -- BENCH_device_clock.json

Run it from anywhere; it builds e2ebench (its own cargo workspace) and the
bench binaries in release mode first.
"""

import hashlib
import json
import pathlib
import subprocess
import sys
import tempfile

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
# Benches whose target/experiments/*.json are digested, and the one whose
# stdout is (ablations writes no JSON).
FIGURE_JSON = ["fig2", "fig5", "fig6", "fig8", "lsm_vs_hash", "table1", "tail_latency"]
FIGURE_STDOUT = ["ablations"]
FIGURE_ARGS = ["--scale", "small"]


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


def bench_executables():
    """Build the bench binaries; map each one's name to its executable."""
    cargo = ["cargo", "build", "--release", "--offline", "--quiet"]
    cargo += ["-p", "rhik-bench", "--bins", "--message-format=json"]
    out = subprocess.run(cargo, cwd=ROOT, check=True, capture_output=True, text=True).stdout
    exes = {}
    for line in out.splitlines():
        msg = json.loads(line)
        if msg.get("reason") == "compiler-artifact" and msg.get("executable"):
            exes[msg["target"]["name"]] = msg["executable"]
    return exes


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def figure_digests():
    exes = bench_executables()
    digests = {}
    for name in FIGURE_JSON + FIGURE_STDOUT:
        with tempfile.TemporaryDirectory() as tmp:
            out = subprocess.run(
                [exes[name]] + FIGURE_ARGS, cwd=tmp, check=True, capture_output=True
            ).stdout
            if name in FIGURE_STDOUT:
                digests[f"{name} stdout"] = sha256(out)
                continue
            written = sorted(pathlib.Path(tmp, "target", "experiments").glob("*.json"))
            if not written:
                sys.exit(f"{name} wrote no target/experiments/*.json")
            for path in written:
                digests[f"target/experiments/{path.name}"] = sha256(path.read_bytes())
    return digests


def main():
    report = {
        "command": "e2ebench --workload <workload> " + " ".join(ARGS),
        "workloads": {w: device_metrics(w) for w in WORKLOADS},
        "figures": {
            "command": "<bench> " + " ".join(FIGURE_ARGS) + ", run in a temporary directory",
            "sha256": figure_digests(),
        },
    }
    path = ROOT / "BENCH_device_clock.json"
    path.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
