#!/usr/bin/env python3
"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--workloads figures,rates,near_metal]
        [--seeds 0-9] [--seconds N] [--record perfbench/record.json]

For every workload the benchmark runs once per seed, one process at a time.
Each end-to-end metric is summarised by its median and by its spread: the
distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  The spread
is set against a third of the metric's bound in BENCHMARK.json.  With
``--record`` the summary, one traced run per workload (seed 0) and the
machine are written to a JSON run record.
"""

from __future__ import annotations

import argparse
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


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    """The run's JSON result, with each metric's sample count and wall-clock
    value (from the report lines) under "samples" and "wall"."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, check=True, capture_output=True, text=True)
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} failed rates")
    result["samples"], result["wall"] = {}, {}
    for line in lines[1:-1]:
        fields = line.split()
        if fields and fields[0] in result["metrics"]:
            result["samples"][fields[0]] = int(fields[3].removeprefix("n="))
            if len(fields) > 5 and fields[4] == "(wall":
                result["wall"][fields[0]] = float(fields[5].rstrip(")"))
    return result


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "min": min(values), "max": max(values), "runs": len(values)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def machine() -> dict:
    import numpy
    return {"cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_openmp_threads": 1, "processes": 1}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", default="figures,rates,near_metal")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--record", type=Path, default=None)
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    lo, _, hi = args.seeds.partition("-")
    seeds = list(range(int(lo), int(hi or lo) + 1))

    summary = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            t0 = time.perf_counter()
            runs.append(run_once(workload, seed, seconds, 0))
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.5g}" for k, v in runs[-1]["metrics"].items()),
                  flush=True)
        summary[workload] = {}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            s["samples_per_run"] = statistics.median(r["samples"][name] for r in runs)
            s["bound"] = bounds.get(name)
            if name in runs[0]["wall"]:
                s["wall"] = summarise([r["wall"][name] for r in runs])
            summary[workload][name] = s
            flag = ""
            if name != "setup_s" and s["bound"]:
                flag = "ok" if s["spread"] < s["bound"] / 3 else "WIDE"
                worst = max(worst, s["spread"] / s["bound"])
            wall = f"; wall-clock spread {s['wall']['spread']:.4f}" if "wall" in s else ""
            print(f"  {name:14s} median {s['median']:10.5g} {s['unit']:4s} spread "
                  f"{s['spread']:.4f} (bound {s['bound']}) {flag}{wall}", flush=True)

    if args.record:
        traced = {}
        for workload in summary:
            result = run_once(workload, seeds[0], seconds, 1)
            traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}
            traced[workload]["traced_rates"] = result["samples"]["quadrature.evals_per_rate"]
        record = {"machine": machine(), "seeds": seeds, "run_seconds": seconds,
                  "end_to_end": summary, "per_layer_seed": {"seed": seeds[0], **traced}}
        args.record.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"widest spread / bound: {worst:.3f} (steady if below 0.333)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
