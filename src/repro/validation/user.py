"""The IP user's side of the validation scheme (right half of Fig. 1).

The user receives the DNN IP through an untrusted channel and can only query
it as a black box.  Validation is: run the vendor's functional tests, compare
the observed outputs against the packaged reference outputs, and flag the IP
as tampered on any mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Union

import numpy as np

from repro.nn.model import Sequential
from repro.validation.package import ValidationPackage
from repro.validation.replay import output_deviations

#: anything the user can query like a black box: a model object or a callable
#: mapping an input batch to output logits.
BlackBoxIP = Union[Sequential, Callable[[np.ndarray], np.ndarray]]


@dataclass
class ValidationReport:
    """Result of validating one IP against one package.

    Attributes
    ----------
    passed: True when every test produced outputs matching the reference.
    num_tests: number of functional tests that were replayed.
    mismatched_indices: indices of tests whose outputs differed.
    max_output_deviation: largest absolute logit difference observed.
    label_mismatches: number of tests whose *predicted class* changed (a
        stricter signal than logit deviation; always ≤ the mismatch count).
    """

    passed: bool
    num_tests: int
    mismatched_indices: List[int] = field(default_factory=list)
    max_output_deviation: float = 0.0
    label_mismatches: int = 0

    @property
    def num_mismatched(self) -> int:
        return len(self.mismatched_indices)

    @property
    def detected(self) -> bool:
        """Convenience alias: a failed validation means tampering was detected."""
        return not self.passed

    def summary(self) -> str:
        verdict = "SECURE" if self.passed else "TAMPERED"
        return (
            f"{verdict}: {self.num_mismatched}/{self.num_tests} tests mismatched, "
            f"max output deviation {self.max_output_deviation:.3e}, "
            f"{self.label_mismatches} predicted labels changed"
        )


def _query(ip: BlackBoxIP, inputs: np.ndarray) -> np.ndarray:
    """Query the black-box IP, accepting either a model or a callable."""
    if isinstance(ip, Sequential):
        return ip.predict(inputs)
    outputs = ip(inputs)
    return np.asarray(outputs, dtype=np.float64)


def report_from_outputs(
    observed: np.ndarray, package: ValidationPackage
) -> ValidationReport:
    """Compare observed logits against a package's reference outputs.

    Shared by the in-process :meth:`IPUser.validate` and the serving
    layer's coalesced replay (:mod:`repro.serve`), so a request answered
    from a merged batched dispatch can never score differently from a
    direct call on the same logits.  A test mismatches when its
    :func:`~repro.validation.replay.output_deviations` entry exceeds the
    package's ``output_atol``; a wrong output shape mismatches every test.
    """
    per_test_max = output_deviations(observed, package.expected_outputs)
    mismatched = np.where(per_test_max > package.output_atol)[0]
    if observed.shape != package.expected_outputs.shape:
        label_mismatches = package.num_tests
    else:
        observed_labels = np.argmax(observed, axis=1)
        label_mismatches = int(np.sum(observed_labels != package.expected_labels))
    return ValidationReport(
        passed=mismatched.size == 0,
        num_tests=package.num_tests,
        mismatched_indices=[int(i) for i in mismatched],
        max_output_deviation=float(per_test_max.max()) if package.num_tests else 0.0,
        label_mismatches=label_mismatches,
    )


class IPUser:
    """User-side workflow: replay a validation package against a black-box IP."""

    def __init__(self, package: ValidationPackage) -> None:
        if package.num_tests == 0:
            raise ValueError("validation package contains no tests")
        self.package = package

    def validate(self, ip: BlackBoxIP) -> ValidationReport:
        """Run every functional test through ``ip`` and compare outputs."""
        return report_from_outputs(_query(ip, self.package.tests), self.package)


def validate_ip(ip: BlackBoxIP, package: ValidationPackage) -> ValidationReport:
    """Functional shortcut for ``IPUser(package).validate(ip)``."""
    return IPUser(package).validate(ip)


__all__ = [
    "IPUser",
    "ValidationReport",
    "report_from_outputs",
    "validate_ip",
    "BlackBoxIP",
]
