"""Runs corpus jobs through the public CLI and judges what comes back.

Every per-job call is ``relutoric.cli.main([command, "--input", doc,
"--output", report, *flags])`` in this process, so argument parsing, JSON
decoding, the pipeline, encoding and the file write are all on the timed
path.  A batch call is ``main(["--batch", DIR])``.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import Job


@dataclass
class Outcome:
    """What one job did, as a user of the CLI sees it."""

    seconds: float
    exit_code: int | None          # None when an exception escaped main
    exception: str | None
    stderr: str
    report: bytes | None


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def write_documents(jobs: list[Job], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:03d}-{job.key}.json"
        path.write_text(json.dumps(job.doc))
        paths.append(path)
    return paths


def run_one(main, job: Job, doc_path: Path, report_path: Path) -> Outcome:
    """One closed-loop call of the CLI; only the call itself is timed.  Each
    call starts on a collected heap, as a CLI call in a fresh interpreter
    does, so no job pays for the garbage of the one before."""
    if report_path.exists():
        report_path.unlink()
    gc.collect()
    argv = [job.command, "--input", str(doc_path), "--output", str(report_path),
            *job.flags]
    err = io.StringIO()
    exception = None
    code = None
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = main(argv)
        except SystemExit as exc:           # argparse rejects bad flags
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:            # a traceback escaping main
            exception = type(exc).__name__
        seconds = time.perf_counter() - start
    report = report_path.read_bytes() if report_path.exists() else None
    return Outcome(seconds, code, exception, err.getvalue(), report)


def judge(job: Job, outcome: Outcome, digests: dict):
    """Failure reason for an outcome, or None when the job succeeded.

    A job fails when a traceback escapes main, when the exit code is wrong,
    when the report differs from the seed commit's digest, or when an
    expected error message is missing.
    """
    if outcome.exception is not None:
        return f"traceback {outcome.exception}"
    if job.expect == "error":
        if outcome.exit_code != 2:
            return f"exit {outcome.exit_code}, expected 2"
        if not any(line.startswith("error:")
                   for line in outcome.stderr.splitlines()):
            return "error message missing"
        return None
    expected = digests.get(job.key)
    if expected is None:
        return "no digest recorded for this document"
    if outcome.exit_code != expected["exit"]:
        return f"exit {outcome.exit_code}, expected {expected['exit']}"
    if outcome.report is None or sha256(outcome.report) != expected["sha256"]:
        return "report differs from the seed digest"
    return None


# ---------------------------------------------------------------------------
# batch
# ---------------------------------------------------------------------------

def write_batch(jobs: list[Job], directory: Path) -> list[Path]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, job in enumerate(jobs):
        path = directory / f"{i:03d}-{job.key}.json"
        path.write_text(json.dumps(job.batch_document()))
        paths.append(path)
    return paths


def run_batch(main, directory: Path, paths: list[Path]):
    """One ``--batch`` call.  Returns its seconds and one outcome per file.
    An exception escaping main is caught here; each file is still judged by
    its ``.out.json`` or its ``<file>: ...`` stderr line."""
    for path in directory.glob("*.out.json"):
        path.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            main(["--batch", str(directory)])
        except Exception:
            pass                            # judged per file below
        seconds = time.perf_counter() - start
    lines = err.getvalue().splitlines()
    outcomes = []
    for path in paths:
        out = path.with_name(path.stem + ".out.json")
        report = out.read_bytes() if out.exists() else None
        mine = "\n".join(line for line in lines if line.startswith(path.name + ":"))
        outcomes.append(Outcome(0.0, None, None, mine, report))
    return seconds, outcomes


def judge_batch(job: Job, outcome: Outcome, digests: dict):
    """``judge`` for a file of a batch, which has no exit code of its own:
    a report means success, a ``<file>: ...`` line means exit 2."""
    if job.expect == "error":
        if outcome.report is not None:
            return "report written, expected an error"
        if not outcome.stderr:
            return "error message missing"
        return None
    expected = digests.get(job.key)
    if expected is None:
        return "no digest recorded for this document"
    if outcome.report is None:
        return "no report written"
    if sha256(outcome.report) != expected["sha256"]:
        return "report differs from the seed digest"
    return None
