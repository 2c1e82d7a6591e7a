"""Compare two clescreen source trees with perfbench, in alternating pairs.

    python3 tools/bench_pairs.py --before PARENT --after CHANGE \
        --out BENCH_11.json --description "what the change does"

Each tree is a checkout (or a plain copy) holding `src/` and `perfbench/`;
the unchanged `perfbench/run.py` of each tree measures that tree.  For
every workload and seed the script runs N pairs of `--trace 0` runs and
alternates which tree goes first, since a shared machine drifts over
minutes; each run lasts perfbench's own run length.  It adds an A/A
control (the `--before` tree against itself, 5 pairs of cv-lbp-aug at the
first seed) and one `--trace 1` run per tree, workload and seed (their
order alternating between seeds).  The result file has one fixed schema: per workload and
seed, each end-to-end metric's quartiles on both sides, the number of
pairs in which `--after` read lower, the failed step counts and the
`result_sha256` values; the A/A spread; the per-layer metrics; and a note
on the machine, with its load average at start and end.
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
from importlib import metadata
from pathlib import Path

WORKLOADS = ("cv-lbp-aug", "cv-ppf-aug", "cv-glcm-full")
END_TO_END = ("cv_s", "images_per_s", "setup_s", "peak_rss_mb", "accuracy",
              "auc")
AA_WORKLOAD, AA_PAIRS = "cv-lbp-aug", 5


def run_perfbench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One `perfbench/run.py` run in `tree`: its metric values, failed
    step count and result hash (None where the run reported none)."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", str(trace)],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    sha = next((line.split()[-1] for line in lines
                if line.startswith("# result_sha256 ")), None)
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        print(f"bench_pairs: {tree} {workload} seed {seed} failed: {tail}",
              file=sys.stderr)
        return {"metrics": {}, "failed": None, "sha256": sha}
    doc = json.loads(lines[-1])
    return {"metrics": {k: v["value"] for k, v in doc["metrics"].items()},
            "failed": doc["failed"], "sha256": sha}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": None, "median": values[0] if values else None,
                "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": round(q1, 4), "median": round(median, 4),
            "q3": round(q3, 4), "n": len(values)}


def pairs(first: Path, second: Path, workload: str, seed: int,
          n: int) -> list[tuple[dict, dict]]:
    """`n` (first, second) run pairs; odd pairs run `second` first."""
    out = []
    for i in range(n):
        pair = in_order((first, second), i % 2 == 1, workload, seed, 0)
        out.append(pair)
        print(f"# {workload} seed {seed} pair {i + 1}/{n}: cv_s "
              f"{pair[0]['metrics'].get('cv_s')} -> "
              f"{pair[1]['metrics'].get('cv_s')}", flush=True)
    return out


def in_order(trees: tuple[Path, Path], swap: bool, workload: str,
             seed: int, trace: int) -> tuple[dict, dict]:
    """The runs of both `trees`, in their order; `swap` runs the second
    tree first."""
    runs: list = [None, None]
    for slot in ((1, 0) if swap else (0, 1)):
        runs[slot] = run_perfbench(trees[slot], workload, seed, trace)
    return runs[0], runs[1]


def compare(runs: list[tuple[dict, dict]]) -> dict:
    """Quartiles per side and 'after lower in k/N pairs' per metric."""
    doc = {}
    for name in END_TO_END:
        got = [(b["metrics"][name], a["metrics"][name]) for b, a in runs
               if name in b["metrics"] and name in a["metrics"]]
        doc[name] = {
            "before": spread([b for b, _a in got]),
            "after": spread([a for _b, a in got]),
            "after_lower_in_pairs": f"{sum(a < b for b, a in got)}/"
                                    f"{len(got)}"}
    doc["failed"] = {"before": [b["failed"] for b, _a in runs],
                     "after": [a["failed"] for _b, a in runs]}
    before = sorted({b["sha256"] for b, _a in runs} - {None})
    after = sorted({a["sha256"] for _b, a in runs} - {None})
    doc["result_sha256"] = {"before": before, "after": after,
                            "equal": before == after and len(before) == 1}
    return doc


def machine() -> dict:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "missing"
    memory = None
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            memory = round(int(fh.readline().split()[1]) / 2 ** 20, 1)
    except (OSError, ValueError, IndexError):
        pass
    return {"cpus": os.cpu_count(), "memory_gb": memory,
            "python": platform.python_version(), "numpy": numpy,
            "load_average_start": os.getloadavg()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--before", required=True, type=Path,
                        help="the parent source tree")
    parser.add_argument("--after", required=True, type=Path,
                        help="the changed source tree")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                        default=list(WORKLOADS))
    parser.add_argument("--seeds", nargs="+", type=int, default=[42, 7331])
    parser.add_argument("--pairs", nargs="+", type=int, default=[10],
                        help="pairs per workload, one count per seed or "
                             "one for all")
    parser.add_argument("--description", default="")
    args = parser.parse_args(argv)
    counts = args.pairs * len(args.seeds) if len(args.pairs) == 1 \
        else args.pairs
    if len(counts) != len(args.seeds):
        parser.error("give one --pairs count, or one per seed")
    before, after = args.before.resolve(), args.after.resolve()
    for tree in (before, after):
        if not (tree / "perfbench" / "run.py").is_file():
            parser.error(f"{tree} holds no perfbench/run.py")

    doc = {"description": args.description, "machine": machine(),
           "before": before.name, "after": after.name,
           "commands": {
               "end_to_end": "python3 perfbench/run.py --workload W --seed S "
                             "--trace 0, in alternating pairs",
               "per_layer": "python3 perfbench/run.py --workload W --seed S "
                            "--trace 1, one run per tree"},
           "end_to_end": {}, "aa": {}, "per_layer": {}}
    started = time.monotonic()
    for seed, n in zip(args.seeds, counts):
        for workload in args.workloads:
            doc["end_to_end"][f"{workload}@seed{seed}"] = compare(
                pairs(before, after, workload, seed, n))
    seed = args.seeds[0]
    doc["aa"] = {"workload": f"{AA_WORKLOAD}@seed{seed}",
                 "trees": "--before against itself",
                 **compare(pairs(before, before, AA_WORKLOAD, seed,
                                 AA_PAIRS))}
    for k, seed in enumerate(args.seeds):
        for workload in args.workloads:
            first, second = in_order((before, after), k % 2 == 1, workload,
                                     seed, 1)
            doc["per_layer"][f"{workload}@seed{seed}"] = {
                "first": "after" if k % 2 else "before",
                "before": first, "after": second}
    doc["machine"]["load_average_end"] = os.getloadavg()
    doc["machine"]["minutes"] = round((time.monotonic() - started) / 60, 1)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
