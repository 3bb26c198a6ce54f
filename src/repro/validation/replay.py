"""The replay kernel: one mismatch rule and one perturbation-trial loop.

The user-side check of the scheme (Fig. 1) is a single rule: replay the
vendor's functional tests and flag the IP when any output logit deviates
from the packaged reference by more than ``output_atol``.
:func:`output_deviations` is that rule's only implementation; full replay
(:func:`repro.validation.user.report_from_outputs`), the vendor's
discrimination scores, and the online verifier all compare through it.

Tables II/III measure the same rule over many perturbed copies of one
victim.  :func:`replay_trials` draws those copies, replays one stacked test
batch against each, and returns the ``(trials, tests)`` mismatch matrix.
Detection counts (:class:`~repro.validation.detection.DetectionExperiment`,
the campaign runner) and simulated queries-to-decision are reductions over
that matrix.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence, Tuple, Union

import numpy as np

from repro.attacks.base import ParameterAttack, PerturbationRecord
from repro.engine import Engine
from repro.engine.backend import BackendSpec
from repro.faults import FaultPolicy
from repro.nn.model import Sequential

AttackFactory = Callable[[np.random.Generator], ParameterAttack]


def output_deviations(observed: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Largest absolute logit deviation of each test, shape ``(N,)``.

    A test mismatches when its deviation exceeds ``output_atol``.  A wrong
    output shape is unambiguous tampering rather than an error: every test
    then deviates by ``inf``.
    """
    observed = np.asarray(observed)
    expected = np.asarray(expected)
    if observed.shape != expected.shape:
        return np.full(expected.shape[0], np.inf)
    return np.abs(observed - expected).max(axis=1)


def replay_trials(
    model: Sequential,
    attack_factory: AttackFactory,
    trial_rngs: Sequence[np.random.Generator],
    tests: np.ndarray,
    expected: np.ndarray,
    output_atol: float,
    backend: BackendSpec,
    fault_policy: Union[FaultPolicy, Dict[str, object], None] = None,
) -> Tuple[np.ndarray, List[PerturbationRecord]]:
    """Replay ``tests`` against one perturbed copy of ``model`` per trial RNG.

    Returns ``(mismatches, records)``: row ``t`` of the boolean
    ``(trials, tests)`` matrix marks the tests whose outputs on trial
    ``t``'s copy deviate from ``expected`` by more than ``output_atol``, and
    ``records[t]`` is that copy's perturbation record.  Copies are drawn and
    replayed in groups of the backend's model-axis capacity (one at a time
    on backends without a fused model axis), so at most one group is
    resident; the result is bit-identical for every backend and group size.
    """
    # each perturbed copy serves exactly one batch, so memoization is off
    engine = Engine(model, backend=backend, cache=False, fault_policy=fault_policy)
    group_size = engine.backend.model_axis_capacity or 1
    mismatches = np.zeros((len(trial_rngs), len(tests)), dtype=bool)
    records: List[PerturbationRecord] = []
    for start in range(0, len(trial_rngs), group_size):
        copies = []
        for rng in trial_rngs[start : start + group_size]:
            outcome = attack_factory(rng).apply(model)
            records.append(outcome.record)
            copies.append(outcome.model)
        observed = engine.stacked_forward(copies, tests)
        for offset, logits in enumerate(observed):
            mismatches[start + offset] = output_deviations(logits, expected) > output_atol
    return mismatches, records


__all__ = ["AttackFactory", "output_deviations", "replay_trials"]
