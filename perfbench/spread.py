"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workload NAME ...] [--trace 0|1]
        [--out perfbench/reference.json]

For every workload and end-to-end metric this prints the median, the
quartiles and the spread (interquartile distance over the median) of the
per-seed values, next to the metric's bound.  The acceptance rule for a
steady benchmark is spread < bound for every metric but `setup_s`.  With
`--out` it also writes the summary, with the machine it ran on, as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run
import spec


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0,
            "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--workload", action="append",
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    metrics = spec.PER_LAYER if args.trace else spec.END_TO_END
    bounds = {m[0]: m[3] for m in spec.END_TO_END}
    report = {"machine": run.machine_info(os.cpu_count() or 1),
              "seeds": seeds, "run_seconds": spec.RUN_SECONDS,
              "trace": args.trace, "workloads": {}}
    ok = True
    for workload in args.workload or list(spec.WORKLOADS):
        values: dict[str, list[float]] = {m[0]: [] for m in metrics}
        runs = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(run.HERE / "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds",
                 str(spec.RUN_SECONDS), "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=run.ROOT)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr}", file=sys.stderr)
                ok = False
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            ok &= result["correct"]
            runs.append({k: result[k] for k in ("correct", "attempted",
                                                "failed")} | {"seed": seed})
            for name in values:
                values[name].append(result["metrics"][name]["value"])
        summary = {name: summarise(v) for name, v in values.items()
                   if len(v) >= 2}
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = ""
            if bound is not None and name != "setup_s":
                flag = "ok" if s["spread"] < bound / 3 else (
                    "WIDE" if s["spread"] >= bound else "over-third")
            print(f"{workload:14s} {name:42s} median={s['median']:.6g} "
                  f"spread={s['spread']:.4f} bound={bound} {flag}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
