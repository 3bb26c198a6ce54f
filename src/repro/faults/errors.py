"""Exception taxonomy for the fault-tolerant execution layer.

Two families matter operationally:

* **Transient** failures — a worker died, a dispatch timed out, an I/O
  window tore — are retried under a :class:`~repro.faults.FaultPolicy`
  and, past the circuit-breaker threshold, trigger a backend downgrade.
* **Logic** failures — bad shapes, unknown ops, assertion-grade bugs —
  propagate immediately: retrying a deterministic error only hides it.

:func:`is_transient` encodes the split in one place so the engine, the
parallel backend, and the campaign runner agree on what is retryable.
"""

from __future__ import annotations


class FaultError(RuntimeError):
    """Base class for failures raised by the fault-tolerance layer itself."""


class WorkerCrashError(FaultError):
    """A worker died mid-dispatch (killed, OOMed, or segfaulted)."""


class DispatchTimeoutError(FaultError):
    """A dispatch exceeded the policy's ``dispatch_timeout_s`` budget."""


class CircuitOpenError(FaultError):
    """The breaker tripped and no downgrade target was configured."""


class CampaignAbortedError(FaultError):
    """Quarantined-scenario count exceeded the campaign's failure budget."""


#: exception types retried under a :class:`FaultPolicy`; everything else is
#: treated as a logic error and propagates on the first occurrence
TRANSIENT_TYPES = (
    OSError,  # covers IOError, ConnectionError, and shared-memory errors
    TimeoutError,
    WorkerCrashError,
    DispatchTimeoutError,
)


def is_transient(exc: BaseException) -> bool:
    """True when ``exc`` is worth retrying under a fault policy."""
    return isinstance(exc, TRANSIENT_TYPES)


__all__ = [
    "CampaignAbortedError",
    "CircuitOpenError",
    "DispatchTimeoutError",
    "FaultError",
    "TRANSIENT_TYPES",
    "WorkerCrashError",
    "is_transient",
]
