"""Tests for repro.validation.replay, the one replay-and-mismatch kernel.

The kernel replaced three hand-written loops: the per-copy trial loop of
the detection experiment and the campaign runner, and the online
verifier's probe-and-decide loop.  Each is pinned here against a
test-local copy of the loop it replaced: same mismatch rows, same
perturbation records, same sequential reports field for field.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.attacks.sba import SingleBiasAttack
from repro.engine import Engine, ModelAxisBackend
from repro.models.zoo import mnist_cnn
from repro.online import OnlineVerifier
from repro.testgen import TrainingSetSelector
from repro.utils.rng import spawn
from repro.validation import IPVendor
from repro.validation.detection import default_attack_factories
from repro.validation.replay import output_deviations, replay_trials
from repro.validation.sequential import (
    VERDICT_CLEAN,
    VERDICT_TAMPERED,
    clean_floor,
    llr_increments,
    query_order,
    sprt_thresholds,
)
from repro.validation.user import _query

TRIALS = 7


@pytest.fixture(scope="module")
def victim():
    return mnist_cnn(width_multiplier=0.125, input_size=28, rng=0)


@pytest.fixture(scope="module")
def tests_and_expected(victim):
    tests = np.random.default_rng(5).random((6, *victim.input_shape))
    return tests, Engine(victim, cache=False).forward(tests)


def per_copy_replay(model, factory, trial_rngs, tests):
    """The loop the kernel replaced: one cache-free numpy engine per copy."""
    observed, records = [], []
    for rng in trial_rngs:
        outcome = factory(rng).apply(model)
        records.append(outcome.record)
        observed.append(Engine(outcome.model, cache=False).forward(tests))
    return observed, records


class TestReplayTrials:
    @pytest.mark.parametrize("attack", ["sba", "random"])
    @pytest.mark.parametrize("backend", ["numpy", "model_axis"])
    def test_rows_match_per_copy_engine_loop(self, victim, tests_and_expected, attack, backend):
        tests, expected = tests_and_expected
        factory = default_attack_factories(tests)[attack]
        observed, reference_records = per_copy_replay(victim, factory, spawn(9, TRIALS), tests)
        deviations = np.stack([np.abs(o - expected).max(axis=1) for o in observed])
        spec = ModelAxisBackend(max_models=3) if backend == "model_axis" else backend
        # thresholds at observed deviation values make every row sensitive
        # to a one-ulp change in the replayed logits
        for atol in np.quantile(deviations, [0.25, 0.5, 0.75], method="nearest"):
            mismatches, records = replay_trials(
                victim, factory, spawn(9, TRIALS), tests, expected, atol, spec
            )
            assert mismatches.shape == (TRIALS, tests.shape[0])
            assert mismatches.dtype == bool
            np.testing.assert_array_equal(mismatches, deviations > atol)
            assert [r.to_dict() for r in records] == [r.to_dict() for r in reference_records]
        assert 0 < (deviations > np.median(deviations)).sum() < deviations.size


class TestOutputDeviations:
    @pytest.mark.parametrize("shape", [(3, 4), (3,), (2, 2), (3, 2, 1)])
    def test_wrong_shape_deviates_by_inf_everywhere(self, shape):
        expected = np.zeros((3, 2))
        deviations = output_deviations(np.zeros(shape), expected)
        assert deviations.shape == (3,)
        assert np.all(np.isinf(deviations))


def inline_verify(ip, package, confidence=0.99, query_budget=None, probe_batch=1):
    """The online verifier's loop before it shared the SPRT walk."""
    order, order_name = query_order(package)
    alpha = beta = 1.0 - confidence
    lower, upper = sprt_thresholds(alpha, beta)
    match_llr, mismatch_llr = llr_increments()
    limit = package.num_tests
    if query_budget is not None:
        limit = min(limit, query_budget)
    floor = clean_floor(package.num_tests)

    llr = 0.0
    cusum = 0.0
    used = 0
    decided = False
    verdict = VERDICT_CLEAN
    mismatched = []
    max_deviation = 0.0
    position = 0
    while position < limit and not decided:
        take = min(probe_batch, limit - position)
        indices = order[position : position + take]
        expected = package.expected_outputs[indices]
        observed = np.asarray(_query(ip, package.tests[indices]), dtype=np.float64)
        used += take
        if observed.shape != expected.shape:
            deviations = np.full(take, np.inf)
        else:
            deviations = np.abs(observed - expected).max(axis=1)
        for j in range(take):
            is_mismatch = bool(deviations[j] > package.output_atol)
            max_deviation = max(max_deviation, float(deviations[j]))
            if is_mismatch:
                mismatched.append(int(indices[j]))
            step = mismatch_llr if is_mismatch else match_llr
            llr += step
            cusum = max(0.0, cusum + step)
            if cusum >= upper:
                decided, verdict = True, VERDICT_TAMPERED
                break
            if llr <= lower and position + j + 1 >= floor:
                decided, verdict = True, VERDICT_CLEAN
                break
        position += take
    if not decided:
        verdict = VERDICT_TAMPERED if mismatched else VERDICT_CLEAN
    return {
        "verdict": verdict,
        "decided": decided,
        "queries_used": used,
        "llr": llr,
        "mismatched_indices": sorted(mismatched),
        "max_output_deviation": max_deviation,
    }


class CountingIP:
    """A black-box IP that counts how often it is queried."""

    def __init__(self, forward):
        self.forward = forward
        self.calls = 0

    def __call__(self, inputs):
        self.calls += 1
        return self.forward(inputs)


@pytest.fixture(scope="module")
def package(trained_cnn, digit_dataset):
    generation = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=30, rng=0)
    return IPVendor(trained_cnn, digit_dataset).build_package(generation.generate(10))


@pytest.fixture(scope="module")
def ips(trained_cnn):
    tampered = SingleBiasAttack(rng=3).apply(trained_cnn).model
    return {
        "clean": trained_cnn.predict,
        "sba": tampered.predict,
        "wrong_shape": lambda inputs: np.zeros((len(inputs), 3)),
    }


class TestOnlineVerifierWalk:
    @pytest.mark.parametrize("ip_name", ["clean", "sba", "wrong_shape"])
    @pytest.mark.parametrize("query_budget", [None, 5])
    @pytest.mark.parametrize("probe_batch", [1, 3])
    def test_report_matches_inline_loop(self, package, ips, ip_name, query_budget, probe_batch):
        reference_ip = CountingIP(ips[ip_name])
        expected = inline_verify(
            reference_ip, package, query_budget=query_budget, probe_batch=probe_batch
        )
        ip = CountingIP(ips[ip_name])
        report = OnlineVerifier(
            ip, package, query_budget=query_budget, probe_batch=probe_batch
        ).verify()
        observed = {
            "verdict": report.verdict,
            "decided": report.decided,
            "queries_used": report.queries_used,
            "llr": report.llr,
            "mismatched_indices": report.mismatched_indices,
            "max_output_deviation": report.max_output_deviation,
        }
        assert observed == expected
        # the walk consumes probes lazily: no query after the decision
        assert ip.calls == reference_ip.calls
