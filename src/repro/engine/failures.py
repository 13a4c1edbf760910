"""Failure reporting for the execution layer.

A job that cannot be completed — its worker raised, was killed, or exceeded
its wall-clock budget after every retry the policy allows — resolves to a
:class:`JobFailure` *result* instead of aborting the whole batch.  Failures
flow back through the executor in submission order exactly like successes,
so ``run(jobs)`` always returns one entry per job; the engine reports them
(``stats.failures``) and never caches them, so a later run retries.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class JobFailure:
    """Terminal outcome of a job the execution layer could not complete.

    Attributes
    ----------
    job_kind:
        The failed job's ``kind`` (``standalone`` / ``contest`` / ...).
    error_type:
        Exception class name, or a synthetic cause: ``WorkerDied`` (the
        worker process vanished mid-job, e.g. OOM-killed) or
        ``JobTimeout`` (exceeded the retry policy's per-job budget).
    message:
        Human-readable detail.
    traceback:
        Formatted traceback when the failure was a raised exception
        (empty for worker deaths and timeouts — there is no Python frame).
    attempts:
        How many executions were attempted before giving up.
    """

    job_kind: str
    error_type: str
    message: str
    traceback: str = ""
    attempts: int = 1

    #: result-record type, mirroring SimJob.kind on success results
    kind = "failure"

    def __str__(self) -> str:
        return (
            f"JobFailure({self.job_kind}: {self.error_type}: {self.message}; "
            f"{self.attempts} attempt(s))"
        )


def job_kind(job: object) -> str:
    """The job's ``kind`` attribute, tolerating non-SimJob duck types."""
    return getattr(job, "kind", type(job).__name__)
