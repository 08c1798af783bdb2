#!/usr/bin/env python3
"""Profile where the benchmark's host CPU goes, per checkout and workload.

Each checkout (made with `git archive`, outside this repository, as for
tools/paired_bench.py) is built with frame pointers into its own
CARGO_TARGET_DIR. One untraced e2ebench run per workload then runs under
the SIGPROF sampler in tools/cpu_profile/sampler.c (compiled with gcc and
loaded with LD_PRELOAD), which records the interrupted program counter and
a frame-pointer walk every millisecond of CPU time (the kernel rounds the
interval up to its tick: 4 ms at HZ=250). Frames in the
benchmark binary are resolved with readelf and addr2line, inlined
functions included; frames in shared libraries are labelled by library
(without libc debug info, addr2line would name memcpy after a neighbouring
export such as __nss_database_lookup). For every checkout and workload,
BENCH_profile.json gets the sample count and the top functions by self
share (the innermost frame, every function at 0.5 % or more) and by
inclusive share (anywhere on the stack, every function at 1 % or more):

    git archive --prefix=parent/ HEAD~1 | tar -x -C /tmp
    git archive --prefix=change/ HEAD | tar -x -C /tmp
    python3 tools/cpu_profile.py --parent /tmp/parent --change /tmp/change \\
        --workloads write-grow,read-hot --seed 5 --seconds 20

The shares are timings of one run on one host, so this is not a CI step.
"""

import argparse
import bisect
import collections
import json
import os
import pathlib
import re
import shlex
import struct
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SAMPLER = ROOT / "tools" / "cpu_profile" / "sampler.c"
BINARY = "rhik-e2ebench"
HASH = re.compile(r"::h[0-9a-f]{16}$")
# Functions reported: every one at or above these shares of the samples.
MIN_SELF_PCT = 0.5
MIN_INCLUSIVE_PCT = 1.0


def build(checkout, target):
    """Build the checkout's benchmark with frame pointers; its binary."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    env["RUSTFLAGS"] = "-C force-frame-pointers=yes"
    manifest = checkout / "e2ebench" / "Cargo.toml"
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        cwd=checkout,
        env=env,
        check=True,
    )
    return target / "release" / BINARY


def read_samples(path):
    """Samples of one prof.<pid>.bin: lists of addresses, innermost first."""
    data = path.read_bytes()
    if data[:8] != b"RHIKPROF":
        raise ValueError(f"{path}: not a sampler file")
    samples, at = [], 8
    while at + 4 <= len(data):
        (depth,) = struct.unpack_from("<I", data, at)
        at += 4
        samples.append(list(struct.unpack_from(f"<{depth}Q", data, at)))
        at += 8 * depth
    return samples


def read_maps(path):
    """Executable mappings of a prof.<pid>.maps: (start, end, offset, path)."""
    maps = []
    for line in path.read_text().splitlines():
        parts = line.split(None, 5)
        if len(parts) < 6 or "x" not in parts[1]:
            continue
        lo, hi = (int(x, 16) for x in parts[0].split("-"))
        maps.append((lo, hi, int(parts[2], 16), parts[5].strip()))
    return sorted(maps)


def load_segments(binary):
    """PT_LOAD segments of `binary` as (file offset, file size, vaddr)."""
    out = subprocess.run(
        ["readelf", "-lW", str(binary)], check=True, capture_output=True, text=True
    ).stdout
    segs = []
    for line in out.splitlines():
        parts = line.split()
        if parts and parts[0] == "LOAD":
            segs.append((int(parts[1], 16), int(parts[4], 16), int(parts[2], 16)))
    return segs


def resolve(binary, maps, addrs):
    """Map each address to its function names, innermost inline first."""
    starts = [m[0] for m in maps]
    segs = load_segments(binary)
    names, in_binary = {}, {}
    for addr in addrs:
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= maps[i][1]:
            names[addr] = ["[unknown]"]
            continue
        lo, _, offset, path = maps[i]
        if os.path.realpath(path) != os.path.realpath(binary):
            names[addr] = [f"[{os.path.basename(path) or 'anon'}]"]
            continue
        file_off = addr - lo + offset
        vaddr = next(
            (v + file_off - o for o, size, v in segs if o <= file_off < o + size), None
        )
        if vaddr is None:
            names[addr] = ["[unknown]"]
        else:
            in_binary[addr] = vaddr
    if in_binary:
        query = "\n".join(f"{v:x}" for v in in_binary.values())
        out = subprocess.run(
            ["addr2line", "-a", "-f", "-i", "-C", "-e", str(binary)],
            input=query,
            check=True,
            capture_output=True,
            text=True,
        ).stdout.splitlines()
        groups, cur = [], None
        for j, line in enumerate(out):
            if line.startswith("0x") and (j == 0 or cur is None or len(cur) % 2 == 0):
                cur = []
                groups.append(cur)
            else:
                cur.append(line)
        for addr, group in zip(in_binary, groups):
            funcs = [HASH.sub("", f) for f in group[0::2]] or ["??"]
            names[addr] = funcs
    return names


def profile(samples, names):
    """Self and inclusive shares (percent of samples) per function."""
    self_count, incl_count = collections.Counter(), collections.Counter()
    for frames in samples:
        stack = []
        for k, addr in enumerate(frames):
            stack.extend(names[addr if k == 0 else addr - 1])
        if not stack:
            continue
        self_count[stack[0]] += 1
        for func in set(stack):
            incl_count[func] += 1
    total = max(len(samples), 1)

    def top(counter, min_pct):
        return [
            {"function": f, "share_pct": round(100.0 * c / total, 2)}
            for f, c in counter.most_common()
            if 100.0 * c >= min_pct * total
        ]

    return top(self_count, MIN_SELF_PCT), top(incl_count, MIN_INCLUSIVE_PCT)


def run_one(binary, sampler, workload, seed, seconds):
    """One sampled run; the benchmark process's samples and memory map."""
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--trace", "0"]
    with tempfile.TemporaryDirectory(prefix="cpu_profile_") as tmp:
        env = dict(os.environ, LD_PRELOAD=str(sampler))
        limit = str(int(seconds * 3 + 300))
        subprocess.run(
            ["timeout", "--signal=INT", limit, str(binary)] + args,
            cwd=tmp,
            env=env,
            check=True,
            stdout=subprocess.DEVNULL,
        )
        best = None
        for maps_path in pathlib.Path(tmp).glob("prof.*.maps"):
            if str(binary.resolve()) not in maps_path.read_text():
                continue  # the timeout wrapper
            samples = read_samples(maps_path.with_suffix(".bin"))
            if best is None or len(samples) > len(best[0]):
                best = (samples, read_maps(maps_path))
        if best is None:
            raise RuntimeError(f"no samples from {binary} {workload}")
        return best


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=pathlib.Path, help="parent checkout")
    ap.add_argument("--change", type=pathlib.Path, help="change checkout")
    ap.add_argument("--workloads", default="write-grow,read-hot")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--target-root", type=pathlib.Path, help="parent of the target dirs")
    ap.add_argument("--out", type=pathlib.Path, default=ROOT / "BENCH_profile.json")
    a = ap.parse_args()
    sides = [(name, path.resolve()) for name, path in (("parent", a.parent), ("change", a.change)) if path]
    if not sides:
        ap.error("give --parent, --change or both")
    for name, path in sides:
        if path == ROOT.resolve():
            ap.error(f"--{name} is this repository; profile a `git archive` checkout")
    target_root = (a.target_root or sides[-1][1] / "target").resolve()
    target_root.mkdir(parents=True, exist_ok=True)
    sampler = target_root / "cpu_profile_sampler.so"
    subprocess.run(
        ["gcc", "-O2", "-shared", "-fPIC", "-o", str(sampler), str(SAMPLER)], check=True
    )
    binaries = {name: build(path, target_root / f"{name}-fp") for name, path in sides}
    runs = []
    for workload in filter(None, a.workloads.split(",")):
        for name, _ in sides:
            binary = binaries[name]
            samples, maps = run_one(binary, sampler, workload, a.seed, a.seconds)
            addrs = {addr - (k > 0) for frames in samples for k, addr in enumerate(frames)}
            names = resolve(binary, maps, sorted(addrs))
            top_self, top_incl = profile(samples, names)
            runs.append(
                {
                    "side": name,
                    "workload": workload,
                    "seed": a.seed,
                    "seconds": a.seconds,
                    "samples": len(samples),
                    "top_self": top_self,
                    "top_inclusive": top_incl,
                }
            )
            print(f"{workload} {name}: {len(samples)} samples", file=sys.stderr)
            for row in top_incl[:8]:
                print(f"  {row['share_pct']:6.2f}%  {row['function']}", file=sys.stderr)
    report = {
        "command": " ".join(shlex.quote(x) for x in sys.argv),
        "sampler": "tools/cpu_profile/sampler.c (ITIMER_PROF, 1 ms of CPU time or the kernel tick)",
        "runs": runs,
    }
    a.out.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {a.out}", file=sys.stderr)


if __name__ == "__main__":
    main()
