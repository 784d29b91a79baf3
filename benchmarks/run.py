"""Benchmark of the relutoric CLI.

    python3 benchmarks/run.py --workload relu-fan --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ``src/`` of
that checkout and nowhere else.  With ``--trace 0`` the run measures the
end-to-end metrics: a closed loop with one client, in whole passes over the
seed's job list for about ``--seconds``, with every job time and cold
start scaled by reference kernel samples taken around it (reference.py), so
a change in the host's speed cancels out.  With ``--trace 1`` it runs each
job once untraced and once traced, back to back, and the job list once as a
``--batch`` call, then times the ROADMAP's ad hoc stage baselines.  Every
report is checked against the seed commit's digest and the independent
oracles.  A table goes to stdout, and its last line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_FIRST = 3                       # cold CLI starts timed before the first pass
SETUP_PER_PASS = 2                    # and after each pass
GOLDEN_POINTS = [[2, 1], [0, 0], [-3, -5], ["1/2", "1/4"]]
GOLDEN_VALUES = {"values": [2, 0, 0, "1/2"]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# checking
# ---------------------------------------------------------------------------

class Ledger:
    """Attempts, failures and whether every failure is a known one.

    Known failures were recorded at the seed commit by capture.py: the
    boundary gaps of ROADMAP.md, the error lines a batch abort drops, and any
    oracle disagreement.  An unknown failure makes the run incorrect.
    """

    def __init__(self, expected: dict):
        self.digests = expected["digests"]
        self.known = expected["known_failures"]
        self.attempted = 0
        self.failed = 0
        self.unknown: dict[str, str] = {}

    def record(self, context: str, key: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is None:
            return
        self.failed += 1
        tag = f"{context}/{key}"
        if tag not in self.known:
            self.unknown[tag] = reason

    @property
    def correct(self) -> bool:
        return not self.unknown


def settle(ledger: Ledger, context: str, results, reports: dict) -> None:
    """Record (job, failure reason) results, after running the oracles once
    on each distinct report; a report an oracle disagrees with fails."""
    import oracles

    flagged = set()
    for job in {job.key: job for job, _ in results}.values():
        report = reports.get(job.key)
        if job.expect != "ok" or report is None:
            continue
        for name, problem in oracles.check(job, json.loads(report)):
            flagged.add(job.key)
            tag = f"oracle/{name}/{job.key}"
            if tag not in ledger.known:
                ledger.unknown[tag] = problem
    for job, reason in results:
        if reason is None and job.key in flagged:
            reason = "an oracle disagrees with the report"
        ledger.record(context, job.key, reason)


# ---------------------------------------------------------------------------
# end-to-end
# ---------------------------------------------------------------------------

class ColdStarts:
    """Cold ``python -m relutoric.cli eval`` runs on the golden net, each in a
    fresh interpreter: the import cost every CLI call pays.  ``setup_s`` is
    the median of their times, each scaled by the reference kernel samples
    taken around it like a job's (reference.py).  They are spread over the
    run, a few before the first pass and some after each.  One untimed start
    first compiles bytecode in a fresh checkout."""

    def __init__(self, work: Path):
        from corpus import GOLDEN_NET

        doc = work / "golden.json"
        doc.write_text(json.dumps(dict(GOLDEN_NET, points=GOLDEN_POINTS)))
        self.out = work / "golden.out.json"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.argv = [sys.executable, "-m", "relutoric.cli", "eval",
                     "--input", str(doc), "--output", str(self.out)]
        self.times: list[float] = []
        self.walls: list[float] = []
        self.start()

    def start(self) -> None:
        proc = subprocess.run(self.argv, env=self.env, cwd=ROOT,
                              capture_output=True, timeout=60)
        if proc.returncode != 0 or json.loads(self.out.read_text()) != GOLDEN_VALUES:
            raise RuntimeError(f"golden eval failed: {proc.stderr.decode()}")

    def time(self, count: int) -> None:
        import reference

        for _ in range(count):
            seconds, samples = reference.around(self.start)
            self.walls.append(seconds)
            self.times.append(reference.scale(seconds, samples))


def latency_metrics(latencies: list[float]) -> dict:
    p90 = (statistics.quantiles(latencies, n=10, method="inclusive")[8]
           if len(latencies) > 1 else latencies[0])
    return {"job_p50_s": (statistics.median(latencies), "s"),
            "job_p90_s": (p90, "s")}


def last_pass(walls: list[float], seconds: float) -> bool:
    """Runs are whole passes over the job list, so every document is tried
    equally often.  Stop when one more pass would end further from
    `seconds` of measured time than stopping now."""
    elapsed = sum(walls)
    return elapsed + elapsed / len(walls) / 2 >= seconds


def per_job_run(cli, jobs, expected, work, seconds, between=lambda: None):
    """Passes over the job list; ``between`` runs after each pass, outside
    the measured time.  A reference kernel sample is taken before the first
    job and after every job, and the metrics are taken over the scaled job
    times (reference.py); the unscaled figures go to the notes."""
    import reference
    from harness import judge, run_one, write_documents

    ledger = Ledger(expected)
    paths = write_documents(jobs, work / "docs")
    report_path = work / "report.json"
    run_one(cli.main, jobs[0], paths[0], report_path)          # warm-up
    latencies, results, walls = [], [], []
    samples = [reference.sample()]
    reports: dict[str, bytes] = {}
    while True:
        start = time.perf_counter()
        for job, path in zip(jobs, paths):
            outcome = run_one(cli.main, job, path, report_path)
            samples.append(reference.sample())
            latencies.append(outcome.seconds)
            results.append((job, judge(job, outcome, ledger.digests)))
            if outcome.report is not None:
                reports.setdefault(job.key, outcome.report)
        walls.append(time.perf_counter() - start)
        between()
        if last_pass(walls, seconds):
            break
    settle(ledger, "job", results, reports)
    times = reference.scaled(latencies, samples)
    metrics = {"jobs_per_s": (len(times) / sum(times), "1/s")}
    metrics.update(latency_metrics(times))
    notes = [f"latency samples: {len(times)} jobs in {len(walls)} passes",
             *unscaled(latencies, samples, "job")]
    return ledger, metrics, notes


def batch_run(cli, jobs, expected, work, seconds, between=lambda: None):
    """Whole ``--batch`` calls over one directory.  Per-document latency is
    invisible from outside a batch, so job_p50_s and job_p90_s are taken over
    batch calls here, scaled like per-job times."""
    import reference
    from harness import judge_batch, run_batch, write_batch

    ledger = Ledger(expected)
    directory = work / "batch"
    paths = write_batch(jobs, directory)
    run_batch(cli.main, directory, paths)                       # warm-up
    calls, results = [], []
    samples = [reference.sample()]
    reports: dict[str, bytes] = {}
    while True:
        elapsed, outcomes = run_batch(cli.main, directory, paths)
        samples.append(reference.sample())
        calls.append(elapsed)
        for job, outcome in zip(jobs, outcomes):
            results.append((job, judge_batch(job, outcome, ledger.digests)))
            if outcome.report is not None:
                reports.setdefault(job.key, outcome.report)
        between()
        if last_pass(calls, seconds):
            break
    settle(ledger, "batch", results, reports)
    times = reference.scaled(calls, samples)
    metrics = {"jobs_per_s": (len(results) / sum(times), "1/s")}
    metrics.update(latency_metrics(times))
    notes = [f"latency samples: {len(times)} batch calls",
             *unscaled(calls, samples, "batch call")]
    return ledger, metrics, notes


def unscaled(seconds: list[float], samples: list[float], what: str) -> list[str]:
    """The wall-clock figures behind the scaled metrics, for the table."""
    p = latency_metrics(seconds)
    return [f"unscaled: {what} p50 {p['job_p50_s'][0]:.6g} s, "
            f"p90 {p['job_p90_s'][0]:.6g} s, {len(seconds) / sum(seconds):.6g} per s",
            f"reference kernel: median {statistics.median(samples) * 1e3:.4g} ms "
            f"over {len(samples)} samples"]


def timed(workload, seed, seconds, cli, expected, work):
    import corpus

    jobs = corpus.jobs(workload, seed)
    cold = ColdStarts(work)
    cold.time(SETUP_FIRST)
    runner = batch_run if workload == "batch-mixed" else per_job_run
    ledger, metrics, notes = runner(cli, jobs, expected, work, seconds,
                                    lambda: cold.time(SETUP_PER_PASS))
    metrics["failed_ratio"] = (ledger.failed / ledger.attempted, "ratio")
    metrics["setup_s"] = (statistics.median(cold.times), "s")
    metrics["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    notes.append(f"setup: median of {len(cold.times)} cold starts, "
                 f"unscaled {statistics.median(cold.walls):.6g} s")
    return ledger, metrics, notes


# ---------------------------------------------------------------------------
# traced
# ---------------------------------------------------------------------------

def traced(workload, seed, cli, expected, work):
    import corpus
    import stages
    from harness import judge, judge_batch, run_batch, run_one, write_batch, write_documents
    from layers import layer_metrics
    from tracer import Tracer

    jobs = corpus.jobs(workload, seed)
    batch = workload == "batch-mixed"
    # cli.batch_gain compares one --batch call with the sequential latencies
    # of the same documents.  Outside batch-mixed it leaves out the documents
    # that must fail: at the seed commit the first boundary gap aborts the
    # batch and cancels every job not yet started.
    batch_jobs = jobs if batch else [job for job in jobs if job.expect == "ok"]
    ledger = Ledger(expected)
    paths = write_documents(jobs, work / "docs")
    report_path = work / "report.json"
    directory = work / "batch"
    batch_paths = write_batch(batch_jobs, directory)
    run_one(cli.main, jobs[0], paths[0], report_path)          # warm-up

    # Each job runs untraced and then traced, back to back, so a drift in the
    # host's speed reaches both sides of the tracing overhead alike.
    tracer = Tracer()
    outcomes, traced_outcomes = [], []
    for i, (job, path) in enumerate(zip(jobs, paths)):
        outcomes.append(run_one(cli.main, job, path, report_path))
        if not batch:
            tracer.job = str(i)
            with tracer:
                traced_outcomes.append(run_one(cli.main, job, path, report_path))
    in_batch = {id(job) for job in batch_jobs}
    sequential = sum(o.seconds for job, o in zip(jobs, outcomes) if id(job) in in_batch)
    batch_wall, batch_outcomes = run_batch(cli.main, directory, batch_paths)
    if batch:
        with tracer:
            traced_wall, traced_outcomes = run_batch(cli.main, directory, batch_paths)
    tracer.write(WORK / f"spans-{workload}-{seed}.tsv")
    metrics = layer_metrics(tracer, len(jobs), batch=batch)

    passes = [("job", jobs, outcomes), ("batch", batch_jobs, batch_outcomes),
              ("batch", batch_jobs, traced_outcomes) if batch
              else ("job", jobs, traced_outcomes)]
    for context, pass_jobs, pass_outcomes in passes:
        check = judge_batch if context == "batch" else judge
        results = [(job, check(job, o, ledger.digests))
                   for job, o in zip(pass_jobs, pass_outcomes)]
        reports = {job.key: o.report for job, o in zip(pass_jobs, pass_outcomes)
                   if o.report is not None}
        settle(ledger, context, results, reports)

    if batch:
        untraced_rate = len(batch_jobs) / batch_wall
        traced_rate = len(batch_jobs) / traced_wall
    else:
        untraced_rate = len(jobs) / sum(o.seconds for o in outcomes)
        traced_rate = len(jobs) / sum(o.seconds for o in traced_outcomes)
    metrics["jsonio.report_bytes"] = (
        statistics.mean(len(o.report) for o in traced_outcomes if o.report is not None),
        "B")
    metrics["cli.batch_sequential_s"] = (sequential, "s")
    metrics["cli.batch_wall_s"] = (batch_wall, "s")
    metrics["cli.batch_gain"] = (sequential / batch_wall, "ratio")
    metrics["trace.jobs"] = (len(jobs), "count")
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "1/s")
    metrics["trace.traced_jobs_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead"] = (1 - traced_rate / untraced_rate, "ratio")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics.update(stages.stage_baselines())
    largest = max((k for k in metrics if k.endswith(".self_share")),
                  key=lambda k: metrics[k][0])
    notes = [f"traced pass: {len(jobs)} jobs, {len(tracer.spans)} spans",
             f"largest self-time share: {largest}"]
    return ledger, metrics, notes


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relutoric" / "cli.py").is_file():
        print(f"no relutoric sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import corpus
    import relutoric.cli as cli

    if args.workload not in corpus.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.WORKLOADS)}", file=sys.stderr)
        return 2
    expected = json.loads((BENCH / "expected.json").read_text())
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            ledger, metrics, notes = traced(args.workload, args.seed, cli, expected, work)
        else:
            ledger, metrics, notes = timed(args.workload, args.seed, args.seconds,
                                           cli, expected, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    for note in notes:
        print(f"  ({note})")
    print(f"  attempted {ledger.attempted}  failed {ledger.failed}  "
          f"correct {ledger.correct}")
    for tag, reason in sorted(ledger.unknown.items()):
        print(f"  unexpected failure {tag}: {reason}")
    print(json.dumps({
        "correct": ledger.correct,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
