"""One measured step of the benchmark, run in a fresh process by run.py.

    python3 child.py setup '{"out": DIR, "seed": N, "jobs": J}'
    python3 child.py cv '{"data": DIR, "out": DIR, "method": M, "k_aug": K,
                          "seed": N, "jobs": J, "trace": bool,
                          "spans": FILE or null}'

`clescreen` must be importable (run.py puts the repository's `src` on
PYTHONPATH).  The last line of standard output is one JSON object with
the step's measurements; any exception exits non-zero.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

import spec


def _peak_rss_mb() -> float:
    """Largest resident set of this process or any worker it waited for
    (Linux reports kilobytes)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def setup(params: dict) -> dict:
    """Imports, cohort generation and manifest loading: the set-up a user
    pays before the first CV."""
    t0 = time.perf_counter()
    from clescreen import core, synth
    t1 = time.perf_counter()
    out = Path(params["out"])
    config = synth.SynthConfig(seed=params["seed"], **spec.COHORT)
    synth.generate_dataset(config, out, jobs=params["jobs"])
    t2 = time.perf_counter()
    manifest = core.load_manifest(out / "manifest.json")
    t3 = time.perf_counter()
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out)).encode())
        digest.update(path.read_bytes())
    return {"setup_s": t3 - t0, "import_s": t1 - t0, "generate_s": t2 - t1,
            "load_s": t3 - t2, "records": len(manifest.records),
            "cohort_sha256": digest.hexdigest()}


def cv(params: dict) -> dict:
    """One LOPO-CV through the public API, timed from the call to run_cv
    until the three result files are written."""
    from clescreen import core, evaluation
    manifest = core.load_manifest(Path(params["data"]) / "manifest.json")
    config = evaluation.RunConfig(method=params["method"],
                                  k_aug=params["k_aug"], seed=params["seed"],
                                  jobs=params["jobs"])
    tracer = None
    if params["trace"]:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    out = Path(params["out"])
    out.mkdir(parents=True, exist_ok=True)
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report = evaluation.run_cv(manifest, config)
    (out / "results.csv").write_text(evaluation.results_csv(report))
    (out / "roc.csv").write_text(evaluation.roc_csv(report))
    (out / "summary.json").write_text(
        json.dumps(evaluation.summary_dict(report), indent=1, sort_keys=True)
        + "\n")
    cv_s = time.perf_counter() - t0
    cpu_s = _cpu_s() - cpu0
    result = {"cv_s": cv_s, "cpu_s": cpu_s, "peak_rss_mb": _peak_rss_mb()}
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        if params.get("spans"):
            Path(params["spans"]).write_text(json.dumps(
                {"fields": ["name", "start", "end", "parent"],
                 "spans": tracer.spans}) + "\n")
    return result


if __name__ == "__main__":
    role, params = sys.argv[1], json.loads(sys.argv[2])
    step = {"setup": setup, "cv": cv}[role]
    print(json.dumps(step(params)))
