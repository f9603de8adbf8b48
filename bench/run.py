"""quatcalc benchmark: seeded CLI jobs in a closed loop, checked against references.

    python3 bench/run.py --workload quat-contour --seed 1 --seconds 18 --trace 0

One client, one process, one thread: each job is the CLI's real argv with
its document on stdin, run in-process through ``quatcalc.cli.run``, and the
next job starts when the previous one returns.  Every output is checked
against a reference computed with numpy/scipy outside the timed interval
(``reference.py``).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a fixed job
set twice, untraced and traced, and prints the per-layer metrics
(``tracing.py``).  The last stdout line is the result object; the line
before it holds the environment, job mix, tail percentile, any failures and
the outcome of the known-defect jobs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time

from harness import (
    BENCH_DIR,
    REPO_ROOT,
    THREAD_ENV,
    pin_threads,
    program_present,
    run_job,
    use_source_tree,
)

pin_threads()

import numpy as np  # noqa: E402  (after the thread pins)
import scipy  # noqa: E402

import reference  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Fresh processes timed for ``setup_s``; the median is reported.  A probe
#: takes about 0.2 s, and single probes vary by a third.
SETUP_PROBES = 25

#: Cycles in a traced run per 10 s of ``--seconds``.  The count is fixed so
#: that span counts repeat exactly for a seed.  Each cycle runs untraced and
#: traced; the counts make a traced run about as long as ``--seconds`` at the
#: commit that introduced them (pointwise is capped to bound the span count).
TRACE_CYCLES_PER_10S = {"quat-contour": 3, "op-calc": 3, "joint-surface": 2, "pointwise": 40}

#: The tail is the highest whole percentile with at least this many samples beyond it.
TAIL_BEYOND = 10

#: Failed jobs listed by id and reason in the detail line (all are counted).
MAX_LISTED_FAILURES = 100

NOTES = (
    "Timers are per-process only (time.perf_counter, /proc/self/status): no system-wide "
    "tracing, cache dropping or CPU pinning was available. Load is a closed loop with one "
    "client in one process and thread; BLAS pools are pinned to one thread."
)


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(THREAD_ENV["OPENBLAS_NUM_THREADS"]),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "notes": NOTES,
    }


class Ledger:
    """Outcomes of checked jobs: counts, failures and worst error per path."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.max_err = {}

    def record(self, job, code, out):
        ok, err, reason = reference.check(job, code, out)
        self.attempted += 1
        if not ok:
            self.failures.append({"id": job["id"], "cls": job["cls"], "reason": reason})
        if err is not None and job["path"]:
            self.max_err[job["path"]] = max(self.max_err.get(job["path"], 0.0), err)

    def record_all(self, jobs, outcomes):
        for job, (code, out) in zip(jobs, outcomes):
            self.record(job, code, out)


def probe(jobs, **env):
    """Run jobs in a fresh process (``probe.py``); returns its report."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "probe.py")],
        input=json.dumps({"jobs": [{"argv": job["argv"], "text": job["text"]} for job in jobs]}),
        capture_output=True, text=True, env=dict(os.environ, **THREAD_ENV, **env),
        cwd=REPO_ROOT, timeout=150,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout)


def measure_setup(workload, ledger):
    """Median seconds for a fresh process to import quatcalc.cli and run one job."""
    job = reference.attach(workloads.warmup_job(workload))
    times = []
    for _ in range(SETUP_PROBES):
        report = probe([job])
        times.append(report["seconds"])
        ledger.record_all([job], report["outcomes"])
    return statistics.median(times)


def measure_peak_rss(workload, ledger):
    """Peak RSS in MB of a fresh process running cycle 0 of seed 0.

    The benchmark process also holds scipy, references and earlier cycles,
    and its peak varied by a third between runs.  In a fresh process with
    numpy's transparent huge pages off (whether the kernel grants them
    varies from run to run) the peak repeats, provided the largest job runs
    before smaller ones leave heap behind for it to stack on, so the largest
    documents run first.  The jobs are the same for every seed, so that the
    peak does not depend on which inputs a seed draws.
    """
    jobs = sorted(prepared_cycle(workload, 0, 0), key=lambda job: -len(job["text"]))
    report = probe(jobs, NUMPY_MADVISE_HUGEPAGE="0")
    ledger.record_all(jobs, report["outcomes"])
    return report["peak_rss_mb"]


def prepared_cycle(workload, seed, cycle):
    return [reference.attach(job) for job in workloads.cycle_jobs(workload, seed, cycle)]


def run_cycle(cli, jobs, tracer=None):
    """Run jobs back to back; returns (latencies, outcomes, wall seconds)."""
    latencies, outcomes = [], []
    start = time.perf_counter()
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
        t0 = time.perf_counter()
        code, out = run_job(cli, job["argv"], job["text"])
        latencies.append(time.perf_counter() - t0)
        outcomes.append((code, out))
    if tracer is not None:
        tracer.job = None
    return latencies, outcomes, time.perf_counter() - start


def warm_up(cli, workload, seed, ledger):
    """One untimed cycle, so that lazy initialisation is not timed."""
    jobs = prepared_cycle(workload, seed, workloads.WARMUP_CYCLE)
    ledger.record_all(jobs, run_cycle(cli, jobs)[1])


def run_known_defects(cli, workload):
    """Run the workload's known-defect jobs once, untimed, for the detail line.

    They lie outside the posed range (``workloads.known_defect_jobs``), so
    they are reported here and not counted in ``attempted`` or ``failed``.
    """
    outcomes = []
    for job in workloads.known_defect_jobs(workload):
        reference.attach(job)
        code, out = run_job(cli, job["argv"], job["text"])
        ok, err, reason = reference.check(job, code, out)
        outcome = {"argv": job["argv"], "text": job["text"], "exit_code": code,
                   "rel_err": err, "passed": ok, "reason": reason}
        try:
            outcome["diagnostics"] = json.loads(out)["result"]["diagnostics"]
        except (ValueError, KeyError, TypeError):
            pass
        outcomes.append(outcome)
    return outcomes


def tail(latencies):
    """(value, percentile) at the highest whole percentile, at most 99, with
    TAIL_BEYOND samples or more beyond it (nearest-rank percentiles)."""
    ordered = sorted(latencies)
    n = len(ordered)
    pct = next((p for p in range(99, 0, -1) if n - math.ceil(p * n / 100) >= TAIL_BEYOND), 1)
    return ordered[max(0, math.ceil(pct * n / 100) - 1)], float(pct)


def timed_run(workload, seed, seconds, ledger, detail):
    setup_s = measure_setup(workload, ledger)
    import quatcalc.cli as cli

    warm_up(cli, workload, seed, ledger)
    wall, latencies, cycle = 0.0, [], 0
    while wall < seconds:
        jobs = prepared_cycle(workload, seed, cycle)
        lat, outcomes, elapsed = run_cycle(cli, jobs)
        wall += elapsed
        latencies += lat
        ledger.record_all(jobs, outcomes)
        cycle += 1
    detail["known_defects"] = run_known_defects(cli, workload)
    tail_s, tail_pct = tail(latencies)
    n = len(latencies)
    detail.update(cycles=cycle, timed_wall_s=wall, tail_percentile=tail_pct, samples=n,
                  setup_probes=SETUP_PROBES, max_rel_err=ledger.max_err)
    return {
        "setup_s": (setup_s, "s"),
        "job_p50_s": (statistics.median(latencies), "s"),
        "job_tail_s": (tail_s, "s"),
        "jobs_per_s": (n / wall, "1/s"),
        "job_ok_frac": (1.0 - len(ledger.failures) / ledger.attempted, "ratio"),
        "peak_rss_mb": (measure_peak_rss(workload, ledger), "MB"),
    }


def traced_run(workload, seed, seconds, ledger, detail):
    import quatcalc.cli as cli

    warm_up(cli, workload, seed, ledger)
    tracer = tracing.Tracer()
    cycles = max(1, round(seconds * TRACE_CYCLES_PER_10S[workload] / 10))
    plain_s = traced_s = 0.0
    out_bytes = 0
    for cycle in range(cycles):
        jobs = prepared_cycle(workload, seed, cycle)
        # alternate which pass runs first, so warm caches favour neither
        for traced in (cycle % 2 == 1, cycle % 2 == 0):
            if traced:
                tracer.install()
                try:
                    lat, outcomes, _ = run_cycle(cli, jobs, tracer)
                finally:
                    tracer.uninstall()
                traced_s += sum(lat)
                out_bytes += sum(len(out.encode()) for _, out in outcomes)
            else:
                lat, outcomes, _ = run_cycle(cli, jobs)
                plain_s += sum(lat)
            ledger.record_all(jobs, outcomes)
    out_dir = REPO_ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    trace_path = out_dir / f"trace-{workload}-seed{seed}.jsonl.gz"
    tracer.dump(trace_path)
    detail.update(trace_cycles=cycles, traced_jobs=len({span[0] for span in tracer.spans}),
                  spans=len(tracer.spans), trace_file=str(trace_path.relative_to(REPO_ROOT)))
    metrics = {name: (value, _unit(name)) for name, value in tracing.summarize(tracer.spans).items()}
    for path in ("contour_calc", "real_op", "joint_op", "func_model"):
        metrics[f"{path}.max_rel_err"] = (ledger.max_err.get(path, 0.0), "ratio")
    metrics["cli.out_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "ratio")
    return metrics


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not program_present():
        print(f"quatcalc sources not found under {REPO_ROOT / 'src'}", file=sys.stderr)
        return 2
    use_source_tree()

    ledger = Ledger()
    detail = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "env": environment(args.seed), "mix_per_cycle": workloads.mix(args.workload)}
    run = traced_run if args.trace else timed_run
    metrics = run(args.workload, args.seed, args.seconds, ledger, detail)
    detail["failed_jobs"] = ledger.failures[:MAX_LISTED_FAILURES]
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
