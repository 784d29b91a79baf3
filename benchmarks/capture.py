"""Record the expected outcome of every corpus document.

    python3 benchmarks/capture.py

Runs every variant of every slot through the CLI of the current checkout and
writes ``expected.json`` beside this file: the exit code and report digest
of each document that should produce a report, and every failure seen,
keyed ``job/<key>``, ``batch/<key>`` or ``oracle/<name>/<key>`` with its
reason.  Run it at the commit whose reports the benchmark should hold the
program to; the committed file was captured at the seed commit ad00345.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import corpus
    import oracles
    import relutoric.cli as cli
    from harness import judge, judge_batch, run_batch, run_one, sha256, write_batch

    work = ROOT / ".bench_work" / "capture"
    work.mkdir(parents=True, exist_ok=True)
    digests: dict[str, dict] = {}
    known: dict[str, str] = {}
    try:
        for workload in corpus.PER_JOB_WORKLOADS:
            for job in corpus.pool(workload):
                doc = work / "doc.json"
                doc.write_text(json.dumps(job.doc))
                outcome = run_one(cli.main, job, doc, work / "report.json")
                ok = (job.expect == "ok" and outcome.exception is None
                      and outcome.exit_code in (0, 3) and outcome.report is not None)
                if ok:
                    digests[job.key] = {"exit": outcome.exit_code,
                                        "sha256": sha256(outcome.report)}
                    for name, problem in oracles.check(job, json.loads(outcome.report)):
                        known[f"oracle/{name}/{job.key}"] = problem
                reason = judge(job, outcome, digests)
                if reason is not None:
                    known[f"job/{job.key}"] = f"{job.slot}: {reason}"
            print(f"{workload}: {len(digests)} digests, {len(known)} known failures",
                  flush=True)
        directory = work / "batch"
        for variant in range(corpus.VARIANTS):
            shutil.rmtree(directory, ignore_errors=True)
            jobs = corpus.batch_variant(variant)
            paths = write_batch(jobs, directory)
            _, outcomes = run_batch(cli.main, directory, paths)
            for job, outcome in zip(jobs, outcomes):
                reason = judge_batch(job, outcome, digests)
                if reason is not None:
                    known[f"batch/{job.key}"] = f"{job.slot}: {reason}"
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = {"digests": dict(sorted(digests.items())),
           "known_failures": dict(sorted(known.items()))}
    (BENCH / "expected.json").write_text(json.dumps(out, indent=1) + "\n")
    print(f"{len(digests)} digests, {len(known)} known failures")
    return 0


if __name__ == "__main__":
    sys.exit(main())
