"""Tests of the benchmark itself: ``python3 -m pytest bench -q``."""

import json
import math

import pytest

import harness

harness.pin_threads()
harness.use_source_tree()

import quatcalc.cli as cli  # noqa: E402

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generation_is_seeded(workload):
    texts = [job["text"] for job in workloads.cycle_jobs(workload, 7, 3)]
    assert texts == [job["text"] for job in workloads.cycle_jobs(workload, 7, 3)]
    other = workloads.cycle_jobs(workload, 8, 3)
    assert texts != [job["text"] for job in other]
    # the mix of job classes does not depend on the seed, except that a
    # contour job whose one circle is ill-posed runs on two circles
    def classes(jobs):
        return sorted(job["cls"].removesuffix("/1c").removesuffix("/2c") for job in jobs)

    assert classes(other) == classes(workloads.cycle_jobs(workload, 7, 3))


def test_contour_jobs_are_posed_within_double_precision():
    for job in workloads.cycle_jobs("quat-contour", 5, 0):
        doc = json.loads(job["text"])
        q, order = doc["quaternion"], doc.get("order", 0)
        margin = float(job["argv"][-1])
        if job["cls"].endswith("/1c"):
            circles = [(q[0], margin + math.hypot(*q[1:]))]
        else:
            circles = [(complex(q[0], s * math.hypot(*q[1:])), margin) for s in (1, -1)]
        for center, radius in circles:
            amp = workloads.amplification(doc["function"], q, order, center, radius)
            assert amp <= workloads.MAX_AMPLIFICATION


def test_known_defect_check_accepts_a_reported_stall_only():
    job = _contour_job()
    job.update(check="matfun-or-stall", stall_code=3)
    code, out = harness.run_job(cli, job["argv"], job["text"])
    assert reference.check(job, code, out)[0]
    off = json.loads(_perturbed(out, lambda v: v * (1.0 + 1e-6) + 1e-6))
    assert not reference.check(job, code, json.dumps(off))[0]  # claims convergence
    off["result"]["diagnostics"]["converged"] = False
    assert reference.check(job, code, json.dumps(off))[0]  # reports the stall
    assert reference.check(job, 3, "")[0]  # AccuracyError exit
    assert not reference.check(job, 2, "")[0]


def _contour_job():
    job = next(j for j in workloads.cycle_jobs("quat-contour", 1, 0) if j["argv"][0] == "eval")
    return reference.attach(job)


def _perturbed(stdout, fn):
    doc = json.loads(stdout)
    doc["result"]["value"][0][0]["re"] = fn(doc["result"]["value"][0][0]["re"])
    return json.dumps(doc)


def test_check_counts_bad_outputs_as_failed():
    job = _contour_job()
    code, out = harness.run_job(cli, job["argv"], job["text"])
    ledger = run.Ledger()
    ledger.record(job, code, out)
    assert ledger.failures == []

    ledger.record(job, code, _perturbed(out, lambda v: v * (1.0 + 1e-6) + 1e-6))
    ledger.record(job, code, _perturbed(out, lambda v: math.nan))
    ledger.record(job, 3, "")
    ledger.record(job, harness.CRASHED, "")
    assert ledger.attempted == 5
    reasons = [f["reason"] for f in ledger.failures]
    assert len(reasons) == 4
    assert "relative error" in reasons[0]
    assert ledger.max_err["contour_calc"] > reference.CONTOUR_TOL  # a failed value counts
    assert "non-finite" in reasons[1]
    assert reasons[2] == "exit code 3, expected 0"


def test_expected_failure_exit_codes_pass_the_check():
    jobs = workloads.cycle_jobs("pointwise", 1, 0)
    for job in jobs:
        if job["code"] != 0:
            reference.attach(job)
            code, out = harness.run_job(cli, job["argv"], job["text"])
            assert reference.check(job, code, out) == (True, None, "")
            assert not reference.check(job, 0, out)[0]


def test_spectrum_check_matches_points_one_to_one():
    job = next(j for j in workloads.cycle_jobs("joint-surface", 1, 0)
               if j["check"] == "joint-spectrum")
    reference.attach(job)
    code, out = harness.run_job(cli, job["argv"], job["text"])
    assert reference.check(job, code, out)[0]
    doc = json.loads(out)
    points = doc["result"]["points"]
    points[1] = points[0]  # one joint eigenvalue twice, another missing
    ok, _, reason = reference.check(job, code, json.dumps(doc))
    assert not ok and "no remaining reference value" in reason


def test_traced_self_times_sum_to_job_wall_time():
    tracer = tracing.Tracer()
    original = cli.spectrum
    tracer.install()
    try:
        for job in workloads.cycle_jobs("op-calc", 1, 0)[:3]:
            tracer.job = job["id"]
            harness.run_job(cli, job["argv"], job["text"])
            tracer.job = None
    finally:
        tracer.uninstall()
    assert cli.spectrum is original
    sums = tracing.job_self_sums(tracer.spans)
    assert len(sums) == 3
    for total, root in sums.values():
        assert root > 0.0
        assert math.isclose(total, root, rel_tol=1e-9)
    metrics = tracing.summarize(tracer.spans)
    layer_self = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert math.isclose(layer_self, metrics["cli.total_s"], rel_tol=1e-9)
    assert metrics["linalg.solve.calls"] > 0
    assert 0.0 < metrics["real_op.useful_node_frac"] <= 1.0


def test_missing_program_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(run, "program_present", lambda: False)
    assert run.main(["--workload", "pointwise", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""


def test_tail_is_highest_percentile_with_ten_beyond():
    value, pct = run.tail([float(v) for v in range(100)])
    assert value == 89.0
    assert pct == 90.0
    value, pct = run.tail([float(v) for v in range(1500)])
    assert (value, pct) == (1484.0, 99.0)  # 15 samples beyond p99


@pytest.mark.parametrize("trace", [0, 1])
def test_result_line_names_every_declared_metric(trace, capsys):
    declared = json.loads((harness.REPO_ROOT / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    assert run.main(["--workload", "pointwise", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    units = {m["name"]: m["unit"] for m in declared[key]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units
