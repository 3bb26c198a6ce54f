"""Sequential early-stopping verification — pay per query, stop early.

The paper's user replays the *entire* fingerprint set ``X`` against the
suspect IP.  That is the right baseline when inference is free, but a
production verifier pays per query against a remote black-box endpoint.
This module implements the budget-aware alternative: replay fingerprints
one micro-batch at a time, in order of discriminative power, and run Wald's
sequential probability ratio test (SPRT) on the per-test match/mismatch
stream so a verdict is reached after the fewest possible queries.

Hypotheses.  Under ``H0`` (clean IP) a fingerprint mismatches only through
benign numeric noise beyond ``output_atol`` — probability ``p0`` (tiny,
default 1e-4).  Under ``H1`` (tampered IP) the fingerprint set was selected
for sensitivity, so each test mismatches with probability ``p1`` (default
0.5, a deliberately conservative floor: Tables II/III measure near-1
per-test detection at the paper's operating points).  After each observed
test the log-likelihood ratio moves by ``log(p1/p0)`` on a mismatch or
``log((1-p1)/(1-p0))`` on a match; crossing ``log((1-beta)/alpha)`` accepts
``H1`` (tampered), crossing ``log(beta/(1-alpha))`` accepts ``H0`` (clean).
The tampered side runs as a one-sided CUSUM — the SPRT statistic reflected
at zero — so accumulated clean evidence never masks a later mismatch,
mirroring the full-replay rule where a single mismatch is decisive no
matter how many tests matched before it.
With the defaults a *single* mismatch immediately yields the tampered
verdict — exactly the full-replay rule — while a clean IP is accepted after
roughly seven matching fingerprints instead of the whole set.

Curtailment.  Discrimination scores are *averages* over the vendor's
surrogate attack suite; an individual attack instance can hide behind them
by perturbing only what the low-scoring tests observe (empirically, random
and bit-flip attacks on the CIFAR operating point mismatch exactly the
lowest-discrimination fingerprints).  A pure SPRT would accept "clean"
after the first few high-scoring matches and miss such a late mismatch —
the β error made flesh.  The clean verdict therefore additionally requires
having replayed at least :data:`DEFAULT_CLEAN_FRACTION` of the fingerprint
set (a curtailed sampling plan): the tampered side still exits on the first
mismatch, and the clean side still stops short of full replay, but never so
short that a surrogate-blind attack slips through the pinned scenarios.

Query order.  Format-v3 packages carry per-test ``discrimination`` scores
(mismatch rate against the vendor's surrogate attack suite, measured at
release time); tests are replayed in descending score order.  Legacy
packages fall back to the softmax entropy of the expected logits — tests
whose reference outputs sit near a decision boundary flip first under
parameter perturbation, so high entropy is a query-free proxy for
discriminative power.  Both orderings use a stable sort, so the schedule is
deterministic for a given package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

#: H0 per-test mismatch probability (clean IP; benign numeric noise only).
DEFAULT_P0 = 1e-4
#: H1 per-test mismatch probability (tampered IP; conservative floor).
DEFAULT_P1 = 0.5
#: default target confidence; alpha = beta = 1 - confidence.
DEFAULT_CONFIDENCE = 0.99
#: clean-side curtailment: accept H0 only after replaying at least this
#: fraction of the fingerprint set (guards against attack instances that
#: mismatch only low-discrimination tests — see the module docstring).
DEFAULT_CLEAN_FRACTION = 0.875

VERDICT_TAMPERED = "tampered"
VERDICT_CLEAN = "clean"

#: ordering provenance labels recorded in :class:`SequentialReport`.
ORDER_DISCRIMINATION = "discrimination"
ORDER_ENTROPY = "entropy"


def sprt_thresholds(alpha: float, beta: float) -> Tuple[float, float]:
    """Wald decision thresholds ``(lower, upper)`` on the log-likelihood ratio.

    ``llr >= upper`` accepts H1 (tampered); ``llr <= lower`` accepts H0
    (clean).  ``alpha`` bounds the false-tampered rate, ``beta`` the
    false-clean rate.
    """
    if not 0.0 < alpha < 1.0 or not 0.0 < beta < 1.0:
        raise ValueError(f"alpha and beta must be in (0, 1), got {alpha}, {beta}")
    upper = math.log((1.0 - beta) / alpha)
    lower = math.log(beta / (1.0 - alpha))
    return lower, upper


def llr_increments(p0: float = DEFAULT_P0, p1: float = DEFAULT_P1) -> Tuple[float, float]:
    """Per-observation LLR steps ``(match, mismatch)`` for the SPRT walk."""
    if not 0.0 < p0 < p1 < 1.0:
        raise ValueError(f"need 0 < p0 < p1 < 1, got p0={p0}, p1={p1}")
    match = math.log((1.0 - p1) / (1.0 - p0))
    mismatch = math.log(p1 / p0)
    return match, mismatch


def entropy_order(expected_outputs: np.ndarray) -> np.ndarray:
    """Indices of tests by descending softmax entropy of the reference logits.

    The query-free fallback ordering for packages without stored
    discrimination scores: reference outputs near a decision boundary (high
    entropy) are the most likely to flip under parameter perturbation.
    Stable sort, so ties keep the vendor's original test order.
    """
    logits = np.asarray(expected_outputs, dtype=np.float64)
    if logits.ndim != 2:
        raise ValueError("expected_outputs must be a 2-D (N, num_classes) array")
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    probs = exp / exp.sum(axis=1, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    entropy = -plogp.sum(axis=1)
    # descending entropy; negate rather than reverse to keep the sort stable
    return np.argsort(-entropy, kind="stable")


def query_order(package) -> Tuple[np.ndarray, str]:
    """Replay schedule for a package: ``(indices, order_name)``.

    Uses the package's stored v3 ``discrimination`` scores (descending)
    when present, otherwise the entropy fallback.
    """
    scores = getattr(package, "discrimination", None)
    if scores is not None:
        order = np.argsort(-np.asarray(scores, dtype=np.float64), kind="stable")
        return order, ORDER_DISCRIMINATION
    return entropy_order(package.expected_outputs), ORDER_ENTROPY


def clean_floor(num_tests: int, clean_fraction: float = DEFAULT_CLEAN_FRACTION) -> int:
    """Minimum replayed fingerprints before a clean verdict may be issued.

    ``ceil(clean_fraction * num_tests)`` — the curtailment guard described
    in the module docstring.  Always at least 1 for a non-empty set.
    """
    if num_tests <= 0:
        return 0
    if not 0.0 < clean_fraction <= 1.0:
        raise ValueError(
            f"clean_fraction must be in (0, 1], got {clean_fraction}"
        )
    return max(1, math.ceil(clean_fraction * num_tests))


def sprt_walk(
    mismatches: Iterable[bool],
    num_tests: int,
    confidence: float = DEFAULT_CONFIDENCE,
    p0: float = DEFAULT_P0,
    p1: float = DEFAULT_P1,
    clean_fraction: float = DEFAULT_CLEAN_FRACTION,
) -> Tuple[str, bool, int, float]:
    """Run the curtailed SPRT walk over a lazy, ordered mismatch stream.

    Returns ``(verdict, decided, observed, llr)``.  The stream is consumed
    one item at a time and never past the item that crosses a threshold,
    so a generator that queries an IP stops querying there.  ``num_tests``
    is the size of the whole fingerprint set, which sets the clean-side
    :func:`clean_floor`.  ``decided`` is True when a Wald threshold was
    crossed; if the stream runs out first the verdict falls back to the
    evidence seen — any mismatch means tampered (the full-replay rule),
    none means clean — with ``decided=False``.
    """
    if not 0.0 < confidence < 1.0:
        raise ValueError(f"confidence must be in (0, 1), got {confidence}")
    alpha = beta = 1.0 - confidence
    lower, upper = sprt_thresholds(alpha, beta)
    match_llr, mismatch_llr = llr_increments(p0, p1)
    floor = clean_floor(num_tests, clean_fraction)
    llr = 0.0
    cusum = 0.0
    any_mismatch = False
    used = 0
    for mismatch in mismatches:
        used += 1
        step = mismatch_llr if mismatch else match_llr
        any_mismatch = any_mismatch or bool(mismatch)
        llr += step
        # tampered side runs as a CUSUM (SPRT reflected at zero): accumulated
        # clean evidence must never mask a later tampering signal, mirroring
        # the full-replay rule where one mismatch is decisive regardless of
        # how many tests matched before it
        cusum = max(0.0, cusum + step)
        if cusum >= upper:
            return VERDICT_TAMPERED, True, used, llr
        if llr <= lower and used >= floor:
            return VERDICT_CLEAN, True, used, llr
    verdict = VERDICT_TAMPERED if any_mismatch else VERDICT_CLEAN
    return verdict, False, used, llr


def decide_from_mismatches(
    mismatches: Sequence[bool],
    confidence: float = DEFAULT_CONFIDENCE,
    p0: float = DEFAULT_P0,
    p1: float = DEFAULT_P1,
    budget: Optional[int] = None,
    clean_fraction: float = DEFAULT_CLEAN_FRACTION,
) -> Tuple[str, bool, int, float]:
    """:func:`sprt_walk` over a precomputed mismatch sequence.

    Returns ``(verdict, decided, queries_used, llr)``, observing at most
    ``budget`` items.  The campaign runner feeds it rows of the replay
    kernel's mismatch matrix to simulate queries-to-decision without
    re-querying; the online verifier runs the same walk on live probes.
    """
    limit = len(mismatches) if budget is None else max(0, min(budget, len(mismatches)))
    return sprt_walk(
        itertools.islice(mismatches, limit),
        len(mismatches),
        confidence=confidence,
        p0=p0,
        p1=p1,
        clean_fraction=clean_fraction,
    )


@dataclass
class SequentialReport:
    """Outcome of a sequential (early-stopping) verification run.

    Mirrors :class:`~repro.validation.user.ValidationReport` where the
    concepts overlap (``detected``, ``mismatched_indices``,
    ``max_output_deviation``) and adds the sequential-test facts: the
    verdict, whether a Wald threshold was actually crossed (``decided``),
    the configured confidence, and queries-to-decision.
    """

    verdict: str
    decided: bool
    confidence: float
    queries_used: int
    num_tests: int
    llr: float
    threshold_lower: float
    threshold_upper: float
    order: str
    mismatched_indices: List[int] = field(default_factory=list)
    max_output_deviation: float = 0.0
    ledger: Optional[Dict[str, object]] = None

    @property
    def detected(self) -> bool:
        """True when the verdict is tampered (mirrors ValidationReport)."""
        return self.verdict == VERDICT_TAMPERED

    @property
    def queries_saved(self) -> int:
        """Queries avoided versus full replay of the fingerprint set."""
        return max(0, self.num_tests - self.queries_used)

    def summary(self) -> str:
        status = "TAMPERED" if self.detected else "SECURE"
        decided = "decided" if self.decided else "budget-exhausted"
        return (
            f"{status}: sequential verdict after {self.queries_used}/"
            f"{self.num_tests} queries ({decided}, confidence "
            f"{self.confidence:g}, order={self.order}, "
            f"llr={self.llr:+.3f} in [{self.threshold_lower:+.3f}, "
            f"{self.threshold_upper:+.3f}])"
        )

    def to_dict(self) -> Dict[str, object]:
        payload: Dict[str, object] = {
            "verdict": self.verdict,
            "decided": self.decided,
            "confidence": self.confidence,
            "queries_used": self.queries_used,
            "num_tests": self.num_tests,
            "llr": self.llr,
            "threshold_lower": self.threshold_lower,
            "threshold_upper": self.threshold_upper,
            "order": self.order,
            "mismatched_indices": [int(i) for i in self.mismatched_indices],
            "max_output_deviation": float(self.max_output_deviation),
        }
        if self.ledger is not None:
            payload["ledger"] = dict(self.ledger)
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "SequentialReport":
        data = dict(payload)
        ledger = data.pop("ledger", None)
        return cls(
            verdict=str(data["verdict"]),
            decided=bool(data["decided"]),
            confidence=float(data["confidence"]),
            queries_used=int(data["queries_used"]),
            num_tests=int(data["num_tests"]),
            llr=float(data["llr"]),
            threshold_lower=float(data["threshold_lower"]),
            threshold_upper=float(data["threshold_upper"]),
            order=str(data["order"]),
            mismatched_indices=[int(i) for i in data.get("mismatched_indices", [])],
            max_output_deviation=float(data.get("max_output_deviation", 0.0)),
            ledger=dict(ledger) if ledger is not None else None,
        )


__all__ = [
    "DEFAULT_CLEAN_FRACTION",
    "DEFAULT_CONFIDENCE",
    "DEFAULT_P0",
    "DEFAULT_P1",
    "ORDER_DISCRIMINATION",
    "ORDER_ENTROPY",
    "SequentialReport",
    "VERDICT_CLEAN",
    "VERDICT_TAMPERED",
    "clean_floor",
    "decide_from_mismatches",
    "entropy_order",
    "llr_increments",
    "query_order",
    "sprt_thresholds",
    "sprt_walk",
]
