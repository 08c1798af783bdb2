#!/usr/bin/env python3
"""Run the repository benchmark on two checkouts in alternating pairs.

Each checkout is built with its own CARGO_TARGET_DIR, then BENCHMARK.json's
command runs from each for every workload, once per seed, with the side
that runs first alternating from pair to pair. Every run's end-to-end
metrics and round count, each side's medians and quartiles, the win count
per metric and the verdict of the choosing-metrics rule (section 8) go to
BENCH_paired.json. Make both checkouts with `git archive`, outside this
repository (building one rewrites its `e2ebench/Cargo.lock`):

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    git archive --prefix=change/ HEAD | tar -x -C /tmp
    python3 tools/paired_bench.py --parent /tmp/parent --change /tmp/change \\
        --seeds 41-50 --held-out 61,62 --claim read-hot:ops_per_cpu_s

Held-out seeds run after the others and count as pairs like them; each
metric also reports the wins on the held-out pairs alone. A claim holds
when the change wins at least nine tenths of all pairs (ties count for
neither side), its median is better than the parent's by more than the
distance between the parent's quartiles, every run on the workload is
correct and no more operations fail than at the parent. Every other
metric is checked against its BENCHMARK.json bound: its median may be
worse by at most the bound; where the spread between quartiles is wider
than the bound and the change's runs do not all read better, the metric
is reported unresolved.

`--traced-pairs N` adds N alternating pairs of short traced runs
(`--trace 1`, seed 5, 0.01 s) per workload and records where the time
went: every benchmark span's mean, and whether the per-layer values that
count cache, index and flash decisions are identical on both sides. With
`--seeds ''` only the traced pairs run:

    python3 tools/paired_bench.py --parent /tmp/parent --change /tmp/change \\
        --seeds '' --traced-pairs 3 --out BENCH_paired_traced.json
"""

import argparse
import json
import os
import pathlib
import re
import shlex
import statistics
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
ROUNDS = re.compile(r"(\d+) untraced \+ (\d+) traced rounds")
SPAN = re.compile(r"^\s+(\S+)\s+(\d+)\s+([-\d.]+)\s+([-\d.]+)$")
# Per-layer values that count decisions (cache, index, flash), not time:
# a change that only saves CPU leaves every one of them unchanged.
DECISIONS = (
    "hotcache.",
    "kvssd.lockfree_",
    "ftl.index_cache_",
    "nand.",
    "rhik-core.metadata_reads_per_lookup",
    "stage.",
)
# The traced runs: the seed and length whose device-clock metrics
# BENCH_device_clock.json pins.
TRACED_SEED = 5
TRACED_SECONDS = 0.01


def seed_list(text):
    """`41-50,61` → [41, ..., 50, 61]."""
    seeds = []
    for part in filter(None, text.split(",")):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def build(checkout, target):
    """Build the checkout's benchmark into its own target directory."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    manifest = checkout / "e2ebench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=checkout,
        env=env,
        check=True,
    )


def run_once(bench, checkout, target, workload, seed, seconds):
    """One benchmark run: its end-to-end metrics and untraced round count."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(
        bench["command"] + args + ["--trace", "0"],
        cwd=checkout,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    result = json.loads(out.strip().splitlines()[-1])
    rounds = ROUNDS.search(out)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "rounds": int(rounds.group(1)) if rounds else None,
        "metrics": {m["name"]: result["metrics"][m["name"]]["value"] for m in bench["end_to_end"]},
    }


def run_traced(bench, checkout, target, workload, seed, seconds):
    """One traced run: its benchmark span means and decision values."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    out = subprocess.run(
        bench["command"] + args + ["--trace", "1"],
        cwd=checkout,
        env=env,
        check=True,
        capture_output=True,
        text=True,
    ).stdout
    lines = out.splitlines()
    start = lines.index("bench spans (count, mean us, mean self us):")
    spans = {}
    for line in lines[start + 1 :]:
        m = SPAN.match(line)
        if not m:
            break
        spans[m.group(1)] = float(m.group(3))
    metrics = json.loads(lines[-1])["metrics"]
    decisions = {k: v["value"] for k, v in metrics.items() if k.startswith(DECISIONS)}
    return {"span_mean_us": spans, "decisions": decisions}


def summary(values):
    """Median and quartiles (linear interpolation between runs)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3}


def better(metric, a, b):
    """+1 when `a` is better than `b`, -1 when worse, 0 on a tie."""
    if a == b:
        return 0
    return 1 if (a > b) == (metric["better"] == "higher") else -1


def compare(metric, parent_runs, change_runs, held_out_seeds, claimed):
    """Win count, both summaries and the verdict for one metric."""
    name = metric["name"]
    p = [r["metrics"][name] for r in parent_runs]
    c = [r["metrics"][name] for r in change_runs]
    outcomes = [better(metric, cv, pv) for pv, cv in zip(p, c)]
    held_out = [o for o, r in zip(outcomes, parent_runs) if r["seed"] in held_out_seeds]
    ps, cs = summary(p), summary(c)
    sign = 1 if metric["better"] == "higher" else -1
    gain = sign * (cs["median"] - ps["median"])
    row = {
        "parent": ps,
        "change": cs,
        "wins": outcomes.count(1),
        "losses": outcomes.count(-1),
        "pairs": len(outcomes),
        "held_out": {"wins": held_out.count(1), "pairs": len(held_out)},
        "median_ratio": cs["median"] / ps["median"] if ps["median"] else None,
    }
    if claimed:
        iqr = ps["q3"] - ps["q1"]
        failed = [sum(r["failed"] for r in rs) for rs in (parent_runs, change_runs)]
        sound = all(r["correct"] for r in parent_runs + change_runs) and failed[1] <= failed[0]
        held = sound and 10 * row["wins"] >= 9 * len(outcomes) and gain > iqr
        row["verdict"] = "claim met" if held else "claim not met"
        row["parent_iqr"] = iqr
        return row
    base = abs(ps["median"])
    spread = max(ps["q3"] - ps["q1"], cs["q3"] - cs["q1"])
    all_better = all(better(metric, cv, pv) > 0 for cv in c for pv in p)
    if base and -gain > metric["bound"] * base:
        row["verdict"] = "worse than bound"
    elif base and spread > metric["bound"] * base and not all_better:
        row["verdict"] = "unresolved (spread wider than bound)"
    else:
        row["verdict"] = "within bound"
    return row


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True, type=pathlib.Path, help="parent checkout")
    ap.add_argument("--change", required=True, type=pathlib.Path, help="change checkout")
    ap.add_argument("--seeds", default="41-50", help="paired seeds, e.g. 41-50")
    ap.add_argument("--held-out", default="", help="seeds run last, e.g. 61,62")
    ap.add_argument("--claim", action="append", default=[], help="workload:metric claimed")
    ap.add_argument("--traced-pairs", type=int, default=0, help="traced pairs per workload")
    ap.add_argument("--target-root", type=pathlib.Path, help="parent of both target dirs")
    ap.add_argument("--out", type=pathlib.Path, default=ROOT / "BENCH_paired.json")
    opts = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    claims = {tuple(c.split(":", 1)) for c in opts.claim}
    sides = {"parent": opts.parent.resolve(), "change": opts.change.resolve()}
    if ROOT in sides.values():
        ap.error("check out both sides with `git archive` outside this repository")
    target_root = (opts.target_root or sides["change"] / "target").resolve()
    targets = {side: target_root / f"paired-{side}" for side in sides}
    for side, checkout in sides.items():
        print(f"building {side} ({checkout})", file=sys.stderr)
        build(checkout, targets[side])

    def run_pairs(seeds):
        runs = {w: {"parent": [], "change": []} for w in workloads}
        for i, seed in enumerate(seeds):
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            for workload in workloads:
                for side in order:
                    run = run_once(bench, sides[side], targets[side], workload, seed, seconds)
                    run["ran_first"] = side == order[0]
                    runs[workload][side].append(run)
                    print(
                        f"{workload} seed {seed} {side}: "
                        + " ".join(f"{k}={v:.6g}" for k, v in run["metrics"].items()),
                        file=sys.stderr,
                    )
        return runs

    seeds = seed_list(opts.seeds)
    held_out_seeds = seed_list(opts.held_out)
    runs = run_pairs(seeds + held_out_seeds) if seeds + held_out_seeds else None

    traced = {}
    for workload in workloads if opts.traced_pairs else []:
        traced_runs = {"parent": [], "change": []}
        for i in range(opts.traced_pairs):
            for side in ["parent", "change"] if i % 2 == 0 else ["change", "parent"]:
                run = run_traced(
                    bench, sides[side], targets[side], workload, TRACED_SEED, TRACED_SECONDS
                )
                traced_runs[side].append(run)
        p, c = traced_runs["parent"], traced_runs["change"]
        names = sorted(set().union(*(r["span_mean_us"] for r in p + c)))
        differing = {k for rp, rc in zip(p, c) for k, v in rp["decisions"].items()
                     if rc["decisions"].get(k) != v}
        traced[workload] = {
            "span_mean_us": {
                name: {side: [r["span_mean_us"].get(name) for r in rs]
                       for side, rs in traced_runs.items()}
                for name in names
            },
            "decision_values": len(p[0]["decisions"]),
            "decisions_differing": sorted(differing),
        }

    report = {"tool": "python3 tools/paired_bench.py " + shlex.join(sys.argv[1:])}
    if runs:
        report.update(
            command=" ".join(bench["command"])
            + f" --workload <w> --seed <s> --seconds {seconds:g} --trace 0",
            seconds=seconds,
            seeds=seeds,
            held_out_seeds=held_out_seeds,
            workloads={},
        )
    if traced:
        report["traced"] = {
            "command": " ".join(bench["command"])
            + f" --workload <w> --seed {TRACED_SEED} --seconds {TRACED_SECONDS:g}"
            + " --trace 1",
            "seed": TRACED_SEED,
            "seconds": TRACED_SECONDS,
            "pairs": opts.traced_pairs,
            "workloads": traced,
        }
    for workload in workloads if runs else []:
        p, c = runs[workload]["parent"], runs[workload]["change"]
        entry = {
            "runs": runs[workload],
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in runs[workload].items()},
            "all_correct": all(r["correct"] for rs in runs[workload].values() for r in rs),
            "rounds": {side: summary([r["rounds"] for r in rs]) for side, rs in runs[workload].items()},
            "metrics": {
                m["name"]: compare(m, p, c, held_out_seeds, (workload, m["name"]) in claims)
                for m in bench["end_to_end"]
            },
        }
        report["workloads"][workload] = entry
    opts.out.write_text(json.dumps(report, indent=1) + "\n")
    for workload, entry in traced.items():
        for name, means in entry["span_mean_us"].items():
            print(f"{workload:11} span {name:26} parent {means['parent']} change {means['change']}")
        print(f"{workload:11} decision values differing: {entry['decisions_differing'] or 'none'}")
    for workload, entry in report.get("workloads", {}).items():
        for name, row in entry["metrics"].items():
            print(
                f"{workload:11} {name:20} parent {row['parent']['median']:.6g} "
                f"change {row['change']['median']:.6g} wins {row['wins']}/{row['pairs']} "
                f"{row['verdict']}"
            )
    print(f"wrote {opts.out}")


if __name__ == "__main__":
    main()
