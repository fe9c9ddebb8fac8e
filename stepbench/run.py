#!/usr/bin/env python3
"""Builds and runs the step-loop benchmark.

Run from the root of a checkout:

  python3 stepbench/run.py --workload adi_remap --seed 1 --seconds 25 --trace 0
  python3 stepbench/run.py --all [--seconds 25] [--seed 1]   # every workload
  python3 stepbench/run.py --selfcheck                       # tiny-size check

The first call configures and builds the library sources of the checkout
together with the driver into .bench_build/ (CMake, Release).  The driver's
output is passed through; its last line is the JSON result.  Traced runs
(--trace 1) also write .bench_build/traces/<workload>.json, a Chrome
trace-event file that Perfetto opens.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
BIN = BUILD / "stepbench"
WORKLOADS = ["adi_remap", "adi_gather", "smooth9", "amr_churn"]
END_TO_END = ["steps_per_s", "step_p50_us", "step_p90_us", "setup_s", "peak_rss_mb"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"stepbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    if not (ROOT / "src").is_dir() or not (ROOT / "include" / "vf").is_dir():
        fail(f"library sources (src/, include/vf/) not found under {ROOT}")
    cmds = []
    if not (BUILD / "CMakeCache.txt").exists():
        cmds.append(["cmake", "-S", str(ROOT / "stepbench"), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"])
    cmds.append(["cmake", "--build", str(BUILD), "-j", "4", "--target", "stepbench"])
    for cmd in cmds:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            fail("build failed: " + " ".join(cmd))


def source_id():
    """The git commit when the checkout is a repository, else a digest of
    the library and benchmark sources."""
    try:
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for d in ("src", "include", "stepbench"):
        for p in sorted((ROOT / d).rglob("*")):
            if p.is_file() and p.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def run_one(workload, seed, seconds, trace, sha, echo=True):
    cmd = [str(BIN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--git-sha", sha]
    if trace:
        (BUILD / "traces").mkdir(exist_ok=True)
        cmd += ["--trace-out", str(BUILD / "traces" / f"{workload}.json")]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
        out = r.stdout
        if r.returncode != 0:
            fail(f"driver exited with {r.returncode}: {r.stderr.strip()}")
    except subprocess.TimeoutExpired:
        out = (f"FAILED: no result within {RUN_TIMEOUT_S} s\n"
               + json.dumps({"correct": False, "attempted": 1, "failed": 1,
                             "metrics": {}}) + "\n")
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    return json.loads(out.strip().splitlines()[-1])


def run_all(seed, seconds, sha):
    results = {}
    for w in WORKLOADS:
        results[w] = (run_one(w, seed, seconds, 0, sha, echo=False),
                      run_one(w, seed, seconds, 1, sha, echo=False))
    runs = [r for pair in results.values() for r in pair]
    failed = sum(1 for r in runs if not r["correct"] or r["failed"])
    print(f"context: source {sha}, seed {seed}, {seconds} s per run, "
          f"VF_TRANSPORT={os.environ.get('VF_TRANSPORT', '(unset)')}")
    print(f"\n{'end-to-end':24}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for name in END_TO_END:
        unit = results[WORKLOADS[0]][0]["metrics"].get(name, {}).get("unit", "")
        row = "".join(f"{results[w][0]['metrics'].get(name, {}).get('value', float('nan')):14.6g}"
                      for w in WORKLOADS)
        print(f"{name + ' [' + unit + ']':24}{row}")
    print(f"{'fail_frac [ratio]':24}{failed / len(runs):14.6g}  "
          f"({failed} of {len(runs)} runs failed)")
    print(f"\n{'layer share (traced)':24}" + "".join(f"{w:>14}" for w in WORKLOADS))
    for layer in ("rt.distribute", "rt.exchange_overlap", "rt.set_overlap", "rt.sweep",
                  "parti.gather", "parti.scatter", "apps.kernel"):
        row = "".join(f"{results[w][1]['metrics'].get(layer + '.share', {}).get('value', float('nan')):14.4f}"
                      for w in WORKLOADS)
        print(f"{layer:24}{row}")
    for name in ("msg.modeled_us_per_step", "trace.overhead"):
        row = "".join(f"{results[w][1]['metrics'].get(name, {}).get('value', float('nan')):14.6g}"
                      for w in WORKLOADS)
        print(f"{name:24}{row}")
    remap = results["adi_remap"][0]["metrics"].get("steps_per_s", {}).get("value")
    gather = results["adi_gather"][0]["metrics"].get("steps_per_s", {}).get("value")
    if remap and gather:
        print(f"\nSection 4 comparison: adi_remap / adi_gather steps_per_s = "
              f"{remap:.4g} / {gather:.4g} = {remap / gather:.4f} (diagnostic)")
    return 0 if failed == 0 else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--selfcheck", action="store_true",
                    help="check each driver loop against its apps::run_* checksum")
    a = ap.parse_args()
    if not (a.all or a.selfcheck or a.workload):
        ap.error("one of --workload, --all or --selfcheck is required")
    build()
    if a.selfcheck:
        sys.exit(subprocess.run([str(BIN), "--selfcheck"]).returncode)
    sha = source_id()
    if a.all:
        sys.exit(run_all(a.seed, a.seconds, sha))
    run_one(a.workload, a.seed, a.seconds, a.trace, sha)


if __name__ == "__main__":
    main()
