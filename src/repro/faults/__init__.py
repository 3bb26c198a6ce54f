"""Fault-tolerant execution layer: policies, retries, supervision, chaos.

Four pieces, deliberately dependency-free so every subsystem can import
them without cycles:

* :mod:`repro.faults.errors` — the transient/logic failure taxonomy.
* :mod:`repro.faults.policy` — :class:`FaultPolicy` (retries, deterministic
  seeded backoff, dispatch timeout, circuit breaker) and the
  :class:`RetryController` that enforces it.
* :mod:`repro.faults.inject` — the deterministic fault-plan API driving
  ``tests/test_faults.py``: kill worker N at dispatch K, raise IOError on
  the Jth mmap window read, add latency to a named layer's forward.
* :mod:`repro.faults.workers` — the one worker-process supervision
  primitive (owned processes, one pipe each, a sentinel-driven ``wait``)
  behind both the parallel engine backend and sharded campaigns.
"""

from repro.faults.errors import (
    CampaignAbortedError,
    CircuitOpenError,
    DispatchTimeoutError,
    FaultError,
    WorkerCrashError,
    is_transient,
)
from repro.faults.inject import Fault, FaultPlan
from repro.faults.policy import FaultPolicy, FaultStats, RetryController

__all__ = [
    "CampaignAbortedError",
    "CircuitOpenError",
    "DispatchTimeoutError",
    "Fault",
    "FaultError",
    "FaultPlan",
    "FaultPolicy",
    "FaultStats",
    "RetryController",
    "WorkerCrashError",
    "is_transient",
]
