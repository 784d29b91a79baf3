"""Tests of the benchmark's own code: corpus, tracer, checks and a smoke run.

    PYTHONPATH=src python -m pytest -q benchmarks/tests
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import corpus  # noqa: E402
import harness  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402

EXPECTED = json.loads((BENCH / "expected.json").read_text())


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_generator_is_deterministic(workload):
    first = [(j.key, j.doc) for j in corpus.jobs(workload, 7)]
    again = [(j.key, j.doc) for j in corpus.jobs(workload, 7)]
    other = [(j.key, j.doc) for j in corpus.jobs(workload, 8)]
    assert first == again
    assert first != other


def test_every_document_has_an_expected_outcome():
    for workload in corpus.PER_JOB_WORKLOADS:
        for job in corpus.pool(workload):
            if job.expect == "ok":
                assert job.key in EXPECTED["digests"], job.slot


def _snapshot():
    return {(name, attr): id(value)
            for name, module in sys.modules.items()
            if name == "relutoric" or name.startswith("relutoric.")
            for attr, value in vars(module).items()}


def test_tracer_restores_every_binding():
    import relutoric.cli  # noqa: F401  (loads every module the tracer touches)
    from relutoric import divisor, fan

    before = _snapshot()
    original = fan.build_relu_fan
    tracer = Tracer()
    with tracer:
        assert fan.build_relu_fan is not original
        assert divisor.cone_containing is fan.cone_containing
        changed = [k for k, v in _snapshot().items() if before.get(k) != v]
        assert len(changed) > 50
    assert _snapshot() == before
    assert fan.build_relu_fan is original


def test_tracer_records_nested_spans():
    from relutoric import cli, jsonio

    tracer = Tracer()
    with tracer:
        support = cli.support_of_network(jsonio.decode_network(corpus.GOLDEN_NET))
    assert support.fan.maximal_cones
    names = [s.name for s in tracer.spans]
    assert names[0] == "jsonio.decode_network"
    build = names.index("fan.build_relu_fan")
    assert tracer.spans[build].parent == names.index("divisor.support_of_network")
    assert all(t >= 0 for t in tracer.self_times())


def _golden_job():
    return corpus.Job("test/golden", 0, "divisor", (), corpus.GOLDEN_NET)


def test_check_rejects_corrupted_report_and_wrong_exit(tmp_path):
    from relutoric.cli import main

    job = _golden_job()
    doc = tmp_path / "doc.json"
    doc.write_text(json.dumps(job.doc))
    outcome = harness.run_one(main, job, doc, tmp_path / "out.json")
    digests = {job.key: {"exit": 0, "sha256": harness.sha256(outcome.report)}}
    assert harness.judge(job, outcome, digests) is None

    corrupted = harness.Outcome(outcome.seconds, 0, None, "",
                                outcome.report.replace(b"-1", b"-2", 1))
    assert "digest" in harness.judge(job, corrupted, digests)
    wrong_exit = harness.Outcome(outcome.seconds, 3, None, "", outcome.report)
    assert "exit 3" in harness.judge(job, wrong_exit, digests)
    traceback = harness.Outcome(outcome.seconds, None, "ValueError", "", None)
    assert harness.judge(job, traceback, digests) == "traceback ValueError"

    error_job = corpus.Job("test/error", 0, "divisor", (), {}, "error")
    silent = harness.Outcome(0.0, 2, None, "", None)
    assert harness.judge(error_job, silent, digests) == "error message missing"
    assert harness.judge(error_job, harness.Outcome(0.0, 2, None, "error: x\n", None),
                         digests) is None


def test_scaling_follows_the_samples_beside_each_job():
    r = reference.REFERENCE_S
    # The host runs at reference speed around the first job and at half
    # speed around the last: the last job's scaled time is half its wall time.
    samples = [r, r, r, 2 * r, 2 * r, 2 * r]
    scaled = reference.scaled([1.0, 1.0, 1.0, 1.0, 1.0], samples)
    assert scaled[0] == pytest.approx(1.0)
    assert scaled[-1] == pytest.approx(0.5)
    assert scaled[2] == pytest.approx(1 / 1.5)
    with pytest.raises(ValueError):
        reference.scaled([1.0], [r])


def _tiny(workload):
    """The two cheapest documents of a workload plus one it must reject."""
    jobs = corpus.jobs(workload, 1)
    cheap = [j for j in jobs if j.command in ("eval", "reduce", "newton", "classify")]
    cheap = sorted(cheap, key=lambda j: len(json.dumps(j.doc)))[:2]
    return cheap + [next(j for j in jobs if j.expect == "error")]


@pytest.mark.parametrize("workload", corpus.PER_JOB_WORKLOADS)
def test_smoke_per_job(workload, tmp_path):
    import relutoric.cli as cli

    ledger, metrics, _ = run.per_job_run(cli, _tiny(workload), EXPECTED,
                                         tmp_path, 0)
    assert ledger.attempted == 3
    assert ledger.correct, ledger.unknown
    assert metrics["jobs_per_s"][0] > 0
    assert metrics["job_p90_s"][0] >= metrics["job_p50_s"][0] > 0


def test_smoke_batch(tmp_path):
    import relutoric.cli as cli

    jobs = [j for j in corpus.jobs("batch-mixed", 1) if j.expect == "ok"][:4]
    ledger, metrics, _ = run.batch_run(cli, jobs, EXPECTED, tmp_path, 0)
    assert ledger.attempted == 4 and ledger.failed == 0
    assert ledger.correct


def test_layer_metrics_of_a_tiny_traced_pass(tmp_path):
    import relutoric.cli as cli
    from layers import layer_metrics

    jobs = _tiny("realize-mixed")
    paths = harness.write_documents(jobs, tmp_path)
    tracer = Tracer()
    for i, (job, path) in enumerate(zip(jobs, paths)):
        tracer.job = str(i)
        with tracer:
            harness.run_one(cli.main, job, path, tmp_path / "out.json")
    metrics = layer_metrics(tracer, len(jobs))
    declared = {m["name"]: m["unit"] for m in
                json.loads((BENCH.parent / "BENCHMARK.json").read_text())["per_layer"]}
    assert {name: unit for name, (_, unit) in metrics.items()}.items() <= declared.items()
    shares = sum(v for k, (v, _) in metrics.items() if k.endswith(".self_share"))
    assert shares == pytest.approx(1.0)
