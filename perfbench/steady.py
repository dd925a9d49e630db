#!/usr/bin/env python3
"""Run every workload once per seed and report how steady each end-to-end
metric is across the runs.

    python3 perfbench/steady.py [--seeds 1-10] [--workloads a,b] [--seconds N]
                                [--out FILE] [--compare FILE]

Run from the root of the repository. For each workload and metric it
prints the unit, the number of runs, the median and quartiles of the
per-run values (Python's statistics.quantiles, n=4) and the spread: the
distance between the quartiles as a share of the median. Each spread is
checked against the metric's bound in BENCHMARK.json (setup_s is not
spread-checked). With --compare, each median is also checked against the
median of an earlier summary: it may be worse by at most the bound.

Every run's output checks must pass (correct, no failed operations).
The summary, with the environment and every run's values, is written to
--out (default perfbench/out/steady.json). Exits non-zero if a run
fails, a check fails, or a bound is broken.
"""

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def options(argv):
    opts = {"--seeds": "1-10", "--workloads": "", "--seconds": "", "--out": "", "--compare": ""}
    it = iter(argv)
    for a in it:
        if a not in opts:
            sys.exit(f"unknown option {a}\n{__doc__}")
        opts[a] = next(it, "")
    return opts


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    took = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        sys.exit(f"{workload} seed {seed}: exit code {proc.returncode}")
    return json.loads(lines[-1]), took


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    opts = options(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = opts["--seconds"] or bench["run_seconds"]
    seeds = parse_seeds(opts["--seeds"])
    names = [w["name"] for w in bench["workloads"]]
    workloads = opts["--workloads"].split(",") if opts["--workloads"] else names
    metrics = bench["end_to_end"]
    previous = json.loads(Path(opts["--compare"]).read_text()) if opts["--compare"] else None

    summary = {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "rustc": subprocess.run(["rustc", "-V"], capture_output=True, text=True).stdout.strip(),
        "profile": "release",
        "seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for w in workloads:
        runs = []
        for seed in seeds:
            result, took = run_once(w, seed, seconds)
            if not result["correct"] or result["failed"]:
                print(f"{w} seed {seed}: output check failed "
                      f"({result['failed']} of {result['attempted']} operations)")
                ok = False
            runs.append({"seed": seed, "took_s": took, "attempted": result["attempted"],
                         "failed": result["failed"],
                         "values": {k: v["value"] for k, v in result["metrics"].items()}})
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()) + f" ({took:.1f} s)",
                flush=True)
        rows = {}
        print(f"{w}: {len(runs)} runs")
        print(f"  {'metric':<12} {'unit':>5} {'n':>3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            values = [r["values"][m["name"]] for r in runs]
            med = statistics.median(values)
            q1, q3 = quartiles(values)
            spread = (q3 - q1) / med if med else 0.0
            row = {"unit": m["unit"], "n": len(values), "median": med, "q1": q1, "q3": q3,
                   "spread": spread, "bound": m["bound"]}
            verdict = ""
            if m["name"] != "setup_s" and spread > m["bound"]:
                verdict, ok = "SPREAD > BOUND", False
            elif m["name"] != "setup_s" and spread > m["bound"] / 3:
                verdict = "spread > bound/3"
            if previous:
                before = previous["workloads"][w]["metrics"][m["name"]]["median"]
                worse = (med - before) / before if m["better"] == "lower" else (before - med) / before
                row["vs_previous"] = worse
                verdict += f" worse-by {worse:+.3f}"
                if worse > m["bound"]:
                    verdict, ok = verdict + " > BOUND", False
            rows[m["name"]] = row
            print(f"  {m['name']:<12} {m['unit']:>5} {len(values):>3} {med:>14.6f} {q1:>14.6f} "
                  f"{q3:>14.6f} {spread:>8.4f} {m['bound']:>6} {verdict}")
        summary["workloads"][w] = {"metrics": rows, "runs": runs}

    out = Path(opts["--out"]) if opts["--out"] else HERE / "out" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(summary, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
