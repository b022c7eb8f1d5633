#!/usr/bin/env python3
"""Build and run the repository benchmark, or diff two traced results.

Run from the root of the repository:

    python3 perfbench/run.py --workload oltp_soak --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --diff before.txt after.txt

The first form builds the `perfbench` package (a workspace of its own that
depends on the simulator crates by path) with `cargo build --release
--offline`, runs one workload in its own process and prints its table, a
`REPORT` line stamped with the host, and the JSON result line last. Build
output goes to standard error. The binary lands in `$CARGO_TARGET_DIR`
(resolved against the repository root) or `perfbench/target`.

The second form reads saved standard output of earlier runs (one or more
runs per file) and prints, per workload and per layer, the change of every
metric from the first file to the second.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MANIFEST = os.path.join("perfbench", "Cargo.toml")


def build():
    """Build the benchmark binary; return its path or exit on failure."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST]
    rc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode
    if rc != 0:
        print(f"perfbench: build failed ({rc})", file=sys.stderr)
        sys.exit(1)
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join("perfbench", "target")
    return os.path.join(ROOT, target, "release", "perfbench")


def output_of(cmd):
    # Keep git from reporting an enclosing repository's commit.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, env=env)
    except OSError:
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest():
    """SHA-256 over the simulator sources and build files, so a result
    names the code it measured even where git is not available."""
    h = hashlib.sha256()
    paths = ["Cargo.toml"]
    for top in ["crates", "perfbench"]:
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs[:] = sorted(x for x in dirs if x != "target")
            paths += [os.path.relpath(os.path.join(d, f), ROOT) for f in files
                      if f.endswith((".rs", ".toml", ".json"))]
    for p in sorted(paths):
        h.update(p.encode())
        with open(os.path.join(ROOT, p), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def host_stamp():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            model = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), model)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "rustc": output_of(["rustc", "--version"]) or "unknown",
        "commit": output_of(["git", "rev-parse", "--short", "HEAD"]) or "unknown",
        "source_digest": source_digest(),
    }


def run(args):
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if r.returncode != 0:
        sys.stderr.write(r.stdout)
        print(f"perfbench: benchmark exited with {r.returncode}", file=sys.stderr)
        sys.exit(r.returncode if r.returncode > 0 else 1)
    host = host_stamp()
    for line in r.stdout.splitlines():
        if line.startswith("REPORT "):
            report = json.loads(line[len("REPORT "):])
            report["host"] = host
            line = "REPORT " + json.dumps(report)
        print(line)


def reports(path):
    """REPORT lines of a saved output, keyed by (workload, traced)."""
    out = {}
    with open(path) as f:
        for line in f:
            if line.startswith("REPORT "):
                r = json.loads(line[len("REPORT "):])
                out[(r["workload"], r["traced"])] = r
    return out


def diff(a_path, b_path):
    a, b = reports(a_path), reports(b_path)
    keys = [k for k in a if k in b]
    if not keys:
        print(f"perfbench: no workload appears in both {a_path} and {b_path}", file=sys.stderr)
        sys.exit(1)
    for workload, traced in keys:
        ra, rb = a[(workload, traced)], b[(workload, traced)]
        print(f"== {workload} ({'per-layer' if traced else 'end-to-end'})")
        for side, r in (("a", ra), ("b", rb)):
            h = r.get("host", {})
            print(f"   {side}: seed={r['seed']} commit={h.get('commit')} "
                  f"source={h.get('source_digest')} nproc={h.get('nproc')} "
                  f"threads={r['detail'].get('threads')}")
        layers = {}
        for name, ma in ra["metrics"].items():
            if name in rb["metrics"]:
                layers.setdefault(ma["tag"], []).append(name)
        for layer, names in layers.items():
            print(f"  [{layer}]")
            for name in names:
                ma, mb = ra["metrics"][name], rb["metrics"][name]
                va, vb = ma["value"], mb["value"]
                if va is None or vb is None:
                    print(f"    {name:<32} {str(va):>16} {str(vb):>16}  (absent)")
                    continue
                pct = f"{(vb - va) / va * 100:+.1f}%" if va else ""
                print(f"    {name:<32} {va:>16.6g} {vb:>16.6g} {vb - va:>+14.6g} {pct:>8} {ma['unit']}")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=3735928559)
    p.add_argument("--seconds", type=float, default=35)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--diff", nargs=2, metavar=("A", "B"))
    args = p.parse_args()
    if args.diff:
        diff(*args.diff)
    elif args.workload:
        run(args)
    else:
        p.error("give --workload or --diff")


if __name__ == "__main__":
    main()
