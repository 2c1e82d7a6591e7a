"""Run one clescreen benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cv-lbp-aug --seed 42 --seconds 20 --trace 0

Run it from the root of a clescreen checkout; it imports the program from
`src/` and needs nothing built.  Every step runs in a fresh process:

* set-up, `SETUP_REPEATS` times: imports, `synth.generate_dataset` of the
  seeded cohort, `core.load_manifest`;
* `--trace 0`: LOPO-CVs at jobs = nproc, repeated until `--seconds` have
  passed, reporting the end-to-end metrics (medians over the repeats);
* `--trace 1`: one CV at jobs = nproc, one at jobs = 1, and two at jobs = 1
  with the outside-in tracer installed, reporting the per-layer metrics.

Every CV's `results.csv`, `roc.csv` and `summary.json` are checked and
hashed; the hash must be the same for every CV of the run, whatever the
worker count or tracing.  A step that raises, times out or fails a check
counts as failed.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
OUT_ROOT = ROOT / ".perfbench_out"
# The whole run must end within 180 s; keep a margin for clean-up.
TIME_BUDGET_S = 165.0
RESULT_FILES = ("results.csv", "roc.csv", "summary.json")
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class StepFailed(Exception):
    """A step raised, timed out, or produced output that fails a check."""


def machine_info(jobs: int) -> dict:
    def version(dist: str) -> str:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "missing"

    return {"nproc": os.cpu_count(), "jobs": jobs,
            "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "blas_env": {k: os.environ.get(k) for k in BLAS_ENV}}


def check_outputs(out_dir: Path) -> dict:
    """Hash the three result files and check what every correct run must
    satisfy; raise StepFailed on any violation."""
    digest = hashlib.sha256()
    texts = {}
    for name in RESULT_FILES:
        data = (out_dir / name).read_bytes()
        digest.update(name.encode() + b"\0" + data + b"\0")
        texts[name] = data.decode()
    summary = json.loads(texts["summary.json"])
    rows = list(csv.DictReader(io.StringIO(texts["results.csv"])))
    expected = spec.originals_count()
    problems = []
    if summary["n_images"] != expected:
        problems.append(f"n_images {summary['n_images']} != {expected}")
    if len(rows) != expected:
        problems.append(f"{len(rows)} result rows != {expected}")
    if len({(r["patient"], r["sequence"], r["frame"]) for r in rows}) != len(rows):
        problems.append("duplicate frames in results.csv")
    for r in rows:
        p = float(r["p_image"])
        if not (math.isfinite(p) and 0.0 <= p <= 1.0):
            problems.append(f"p_image {r['p_image']!r} outside [0, 1]")
            break
    roc = list(csv.DictReader(io.StringIO(texts["roc.csv"])))
    if not roc or (float(roc[-1]["fpr"]), float(roc[-1]["tpr"])) != (1.0, 1.0):
        problems.append("roc.csv does not end at (1, 1)")
    for key in ("accuracy", "auc"):
        v = summary[key]
        if not (isinstance(v, float) and 0.0 <= v <= 1.0):
            problems.append(f"{key} {v!r} outside [0, 1]")
    if problems:
        raise StepFailed("; ".join(problems))
    return {"sha256": digest.hexdigest(), "accuracy": summary["accuracy"],
            "auc": summary["auc"]}


class Runner:
    """Runs steps in fresh processes and keeps the attempted/failed tally."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self._proc: subprocess.Popen | None = None

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def fail(self, what: str, why: str) -> None:
        self.failed += 1
        print(f"perfbench: {what} failed: {why}", file=sys.stderr)

    def _child(self, role: str, params: dict) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), env.get("PYTHONPATH")) if p)
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), role, json.dumps(params)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env=env, cwd=ROOT, start_new_session=True)
        try:
            out, err = self._proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            self.stop()
            raise StepFailed("timed out") from None
        code = self._proc.returncode
        self._proc = None
        if code != 0:
            tail = err.strip().splitlines()[-1:] or ["no message"]
            raise StepFailed(f"exit code {code}: {tail[0]}")
        lines = out.strip().splitlines()
        if not lines:
            raise StepFailed("no output")
        return json.loads(lines[-1])

    def stop(self) -> None:
        """Kill the running step and any workers it forked, and wait."""
        proc, self._proc = self._proc, None
        if proc is None:
            return
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.communicate()

    def setup(self, index: int, seed: int, jobs: int) -> dict | None:
        out = self.work / f"cohort{index}"
        self.attempted += 1
        try:
            result = self._child("setup", {"out": str(out), "seed": seed,
                                           "jobs": jobs})
        except (StepFailed, ValueError) as exc:
            self.fail(f"set-up {index}", str(exc))
            return None
        result["dir"] = str(out)
        return result

    def cv(self, tag: str, params: dict, expect_sha: str | None) -> dict | None:
        out = self.work / tag
        self.attempted += 1
        try:
            result = self._child("cv", dict(params, out=str(out)))
            result.update(check_outputs(out))
            if expect_sha is not None and result["sha256"] != expect_sha:
                raise StepFailed(f"result hash {result['sha256'][:12]} != "
                                 f"{expect_sha[:12]}")
        except (StepFailed, OSError, ValueError, KeyError) as exc:
            self.fail(f"cv {tag}", str(exc))
            return None
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return result


def run_setups(runner: Runner, seed: int, jobs: int) -> list[dict]:
    """Set up SETUP_REPEATS times; every cohort must hash the same.  The
    first good cohort is kept for the CVs, the others are deleted."""
    good = []
    for i in range(spec.SETUP_REPEATS):
        s = runner.setup(i, seed, jobs)
        if s is None:
            continue
        if not good:
            good.append(s)
            continue
        shutil.rmtree(s["dir"], ignore_errors=True)
        if s["cohort_sha256"] != good[0]["cohort_sha256"]:
            runner.fail(f"set-up {i}", "cohort differs from the first set-up")
        else:
            good.append(s)
    return good


def quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)} value={values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"n={len(values)} min={min(values):.4f} q1={q1:.4f} "
            f"median={q2:.4f} q3={q3:.4f} max={max(values):.4f}")


def end_to_end(runner: Runner, params: dict, seconds: float,
               setups: list[dict]) -> dict | None:
    t_end = time.monotonic() + seconds
    runs: list[dict] = []
    sha = None
    while True:
        t0 = time.monotonic()
        r = runner.cv(f"cv{runner.attempted}", params, sha)
        if r is not None:
            runs.append(r)
            sha = sha or r["sha256"]
        step = time.monotonic() - t0
        if time.monotonic() >= t_end or runner.remaining() < 1.5 * step + 5:
            break
    if not runs:
        return None
    cv_s = [r["cv_s"] for r in runs]
    print(f"# cv_s {quartiles(cv_s)}")
    print(f"# result_sha256 {sha}")
    median_cv = statistics.median(cv_s)
    return {
        "cv_s": median_cv,
        "images_per_s": spec.originals_count() / median_cv,
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        "accuracy": runs[0]["accuracy"],
        "auc": runs[0]["auc"],
    }


def per_layer(runner: Runner, params: dict, jobs: int, setups: list[dict],
              spans_path: Path) -> dict | None:
    full = runner.cv("cv-jobs-n", params, None)
    if full is None:
        return None
    sha = full["sha256"]
    print(f"# result_sha256 {sha}")
    serial = runner.cv("cv-jobs-1", dict(params, jobs=1), sha)
    traced = [runner.cv(f"cv-traced-{i}",
                        dict(params, jobs=1, trace=True,
                             spans=str(spans_path) if i == 0 else None), sha)
              for i in range(2)]
    if serial is None or None in traced:
        return None
    layers = [t["layers"] for t in traced]
    counts = [{k: v for k, v in lay.items() if not k.endswith((".s", "_s"))}
              for lay in layers]
    if counts[0] != counts[1]:
        diff = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        runner.fail("traced cv", f"counts differ between traced runs: {diff}")
    traced_cv = statistics.mean(t["cv_s"] for t in traced)
    print(f"# jobs={jobs} cv_s={full['cv_s']:.4f} jobs=1 cv_s="
          f"{serial['cv_s']:.4f} traced jobs=1 cv_s={traced_cv:.4f}")
    kept = layers[0].get("classify.balance.rows_kept", 0.0)
    removed = layers[0].get("classify.balance.rows_removed", 0.0)
    derived = {
        "synth.generate_dataset.s":
            statistics.median(s["generate_s"] for s in setups),
        "util.parallel_efficiency": full["cpu_s"] / (full["cv_s"] * jobs),
        "trace.overhead_frac": (traced_cv - serial["cv_s"]) / serial["cv_s"],
        "classify.balance.kept_ratio":
            kept / (kept + removed) if kept + removed else 0.0,
    }
    out = {}
    for name, unit, _better in spec.PER_LAYER:
        if name in derived:
            out[name] = derived[name]
        elif unit == "s":
            out[name] = statistics.mean(lay.get(name, 0.0) for lay in layers)
        else:
            out[name] = layers[0].get(name, 0.0)
    return out


def measure(args, runner: Runner) -> dict | None:
    jobs = os.cpu_count() or 1
    method, k_aug, _why = spec.WORKLOADS[args.workload]
    info = machine_info(jobs)
    print(f"# workload={args.workload} method={method} k_aug={k_aug} "
          f"seed={args.seed} cohort={spec.COHORT} machine={json.dumps(info)}")
    setups = run_setups(runner, args.seed, jobs)
    if not setups:
        return None
    print(f"# setup_s {quartiles([s['setup_s'] for s in setups])}")
    params = {"data": setups[0]["dir"], "method": method, "k_aug": k_aug,
              "seed": args.seed, "jobs": jobs, "trace": False, "spans": None}
    if args.trace:
        OUT_ROOT.mkdir(exist_ok=True)
        spans = OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.json"
        values = per_layer(runner, params, jobs, setups, spans)
        metrics = spec.PER_LAYER
    else:
        values = end_to_end(runner, params, args.seconds, setups)
        metrics = spec.END_TO_END
    if values is None:
        return None
    return {name: {"value": int(values[name]) if unit == "count"
                   else values[name], "unit": unit}
            for name, unit, *_ in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "clescreen" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {SRC / 'clescreen'}; run "
              "from the root of a clescreen checkout", file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    runner = Runner(work, time.monotonic() + TIME_BUDGET_S)
    try:
        metrics = measure(args, runner)
    finally:
        runner.stop()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    if metrics is None:
        print("perfbench: too many steps failed to report metrics; no result",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted,
                      "failed": runner.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
