"""ParallelBackend equivalence and transport behaviour.

Property-style checks that the multi-core sharded backend reproduces the
single-process ``NumpyBackend`` — and therefore the per-sample reference —
to 1e-8 on both Table-I architectures, plus the transport-level behaviour
that makes it usable: model publication by parameter digest, merged cache
statistics under sharding, shard balancing and resource cleanup.

A single two-worker backend (module-scoped fixture) serves every test: the
worker pool is the expensive part, and sharing it also exercises the
"one backend, many engines" usage the docs recommend.
"""

import numpy as np
import pytest

from repro.coverage.parameter_coverage import (
    activation_mask,
    mean_validation_coverage_reference,
)
from repro.engine import (
    CacheStats,
    Engine,
    NumpyBackend,
    ParallelBackend,
    available_backends,
    get_backend,
)
from repro.models.zoo import cifar_cnn, mnist_cnn, small_mlp

TOLERANCE = 1e-8


def _pool(model, size, seed):
    rng = np.random.default_rng(seed)
    return rng.random((size, *model.input_shape))


@pytest.fixture(scope="module")
def backend():
    """One persistent two-worker backend shared by the whole module."""
    backend = ParallelBackend(workers=2)
    yield backend
    backend.close()


@pytest.fixture(scope="module", params=["mnist", "cifar"])
def arch(request):
    """Both Table-I architectures (width-scaled for test speed)."""
    if request.param == "mnist":
        return mnist_cnn(width_multiplier=0.125, input_size=12, rng=0)
    return cifar_cnn(width_multiplier=0.0625, input_size=12, rng=1)


class TestEquivalence:
    def test_forward_matches_numpy_backend(self, arch, backend):
        images = _pool(arch, 7, seed=10)
        parallel = Engine(arch, backend=backend, cache=False).forward(images)
        reference = Engine(arch, cache=False).forward(images)
        assert np.abs(parallel - reference).max() <= TOLERANCE

    def test_output_gradients_match_numpy_backend(self, arch, backend):
        images = _pool(arch, 6, seed=11)
        for scal in ("sum", "max"):
            parallel = Engine(arch, backend=backend, cache=False).output_gradients(
                images, scal
            )
            reference = Engine(arch, cache=False).output_gradients(images, scal)
            assert np.abs(parallel - reference).max() <= TOLERANCE

    def test_masks_match_per_sample_reference(self, arch, backend):
        images = _pool(arch, 6, seed=12)
        engine = Engine(arch, backend=backend, cache=False)
        masks = engine.activation_masks(images)
        singles = np.stack(
            [activation_mask(arch, images[i]) for i in range(len(images))]
        )
        np.testing.assert_array_equal(masks, singles)

    def test_coverage_matches_reference(self, arch, backend):
        images = _pool(arch, 8, seed=13)
        engine = Engine(arch, backend=backend, cache=False)
        batched = engine.mean_validation_coverage(images)
        reference = mean_validation_coverage_reference(arch, images)
        assert abs(batched - reference) <= TOLERANCE

    def test_neuron_masks_match_numpy_backend(self, arch, backend):
        images = _pool(arch, 5, seed=14)
        parallel = Engine(arch, backend=backend, cache=False).neuron_masks(images)
        reference = Engine(arch, cache=False).neuron_masks(images)
        np.testing.assert_array_equal(parallel, reference)

    def test_input_gradients_match_numpy_backend(self, arch, backend):
        images = _pool(arch, 5, seed=15)
        targets = np.arange(5) % arch.num_classes
        value_p, grad_p = Engine(arch, backend=backend, cache=False).input_gradients(
            images, targets
        )
        value_n, grad_n = Engine(arch, cache=False).input_gradients(images, targets)
        assert value_p == pytest.approx(value_n, abs=TOLERANCE)
        assert np.abs(grad_p - grad_n).max() <= TOLERANCE

    def test_loss_parameter_gradients_match_numpy_backend(self, arch, backend):
        images = _pool(arch, 5, seed=16)
        targets = np.arange(5) % arch.num_classes
        for loss in ("cross_entropy", "negative_logit"):
            value_p, grad_p = Engine(
                arch, backend=backend, cache=False
            ).loss_parameter_gradients(images, targets, loss)
            value_n, grad_n = Engine(arch, cache=False).loss_parameter_gradients(
                images, targets, loss
            )
            assert value_p == pytest.approx(value_n, abs=TOLERANCE)
            assert np.abs(grad_p - grad_n).max() <= TOLERANCE

    def test_perturbed_model_yields_fresh_results(self, backend):
        """Digest-keyed publication can never serve stale weights."""
        model = small_mlp(rng=2)
        images = _pool(model, 4, seed=17)
        engine = Engine(model, backend=backend, cache=False)
        before = engine.output_gradients(images).copy()
        model.parameter_view().add_scalar(0, 0.25)
        after = engine.output_gradients(images)
        assert not np.array_equal(before, after)
        singles = np.stack(
            [model.output_gradients(images[i]) for i in range(len(images))]
        )
        assert np.abs(after - singles).max() <= TOLERANCE


class TestTransport:
    def test_registered(self):
        assert "parallel" in available_backends()
        assert isinstance(get_backend("parallel"), ParallelBackend)

    def test_parallelism_scales_engine_chunks(self, backend):
        model = small_mlp(rng=3)
        assert backend.parallelism == 2
        engine = Engine(model, backend=backend, batch_size=4)
        chunks = list(engine._chunks(20))
        # chunk span = batch_size * workers so each worker sees batch_size
        assert chunks[0] == slice(0, 8)
        assert len(chunks) == 3

    def test_shard_bounds_cover_and_balance(self):
        for n in (1, 2, 3, 7, 64):
            bounds = ParallelBackend._shard_bounds(n, 2)
            assert bounds[0][0] == 0 and bounds[-1][1] == n
            assert all(b > a for a, b in bounds)
            # contiguous, no overlap
            for (_, b1), (a2, _) in zip(bounds, bounds[1:]):
                assert b1 == a2
            assert len(bounds) == min(2, n)

    def test_batch_smaller_than_worker_count(self, backend):
        model = small_mlp(rng=4)
        image = _pool(model, 1, seed=18)
        logits = Engine(model, backend=backend, cache=False).forward(image)
        np.testing.assert_allclose(logits, model.forward(image), atol=TOLERANCE)

    def test_publication_reuse_is_counted(self):
        backend = ParallelBackend(workers=2)
        try:
            model = small_mlp(rng=5)
            images = _pool(model, 4, seed=19)
            engine = Engine(model, backend=backend, cache=False)
            engine.forward(images)
            assert backend.cache_stats.misses == 1  # weights shipped once
            engine.output_gradients(images)
            engine.neuron_masks(images)
            assert backend.cache_stats.misses == 1  # ...and never again
            assert backend.cache_stats.hits >= 2
            # perturbation -> exactly one re-publication
            model.parameter_view().add_scalar(0, 0.5)
            engine.forward(images)
            assert backend.cache_stats.misses == 2
        finally:
            backend.close()

    def test_engine_stats_merge_memo_and_transport(self):
        backend = ParallelBackend(workers=2)
        try:
            model = small_mlp(rng=6)
            images = _pool(model, 6, seed=20)
            engine = Engine(model, backend=backend, batch_size=2)
            engine.mean_validation_coverage(images)
            first = engine.stats
            # transport misses (weights shipped) appear in the merged view
            assert first.misses >= backend.cache_stats.misses >= 1
            engine.mean_validation_coverage(images)
            second = engine.stats
            # the revisit is a memo hit AND ships nothing new
            assert second.hits > first.hits
            assert backend.cache_stats.misses == 1
            # merging never loses the memo-only counters
            memo_only = engine._cache.stats
            assert second.hits == memo_only.hits + backend.cache_stats.hits
            assert second.misses == memo_only.misses + backend.cache_stats.misses
        finally:
            backend.close()

    def test_cache_stats_merge_semantics(self):
        a = CacheStats(hits=2, misses=1, evictions=0)
        b = CacheStats(hits=3, misses=4, evictions=5)
        merged = a + b
        assert (merged.hits, merged.misses, merged.evictions) == (5, 5, 5)
        # inputs untouched
        assert (a.hits, b.hits) == (2, 3)
        assert a.merge(b, b).hits == 8

    def test_close_is_idempotent_and_releases_publications(self):
        backend = ParallelBackend(workers=1)
        model = small_mlp(rng=7)
        images = _pool(model, 3, seed=21)
        Engine(model, backend=backend, cache=False).forward(images)
        assert len(backend._resources["published"]) == 1
        backend.close()
        assert backend._resources["workers"] is None
        assert len(backend._resources["published"]) == 0
        backend.close()  # second close is a no-op
        # a closed backend restarts lazily on next use
        Engine(model, backend=backend, cache=False).forward(images)
        backend.close()

    def test_publication_lru_eviction(self):
        backend = ParallelBackend(workers=1, max_published=2)
        try:
            model = small_mlp(rng=8)
            images = _pool(model, 2, seed=22)
            engine = Engine(model, backend=backend, cache=False)
            for step in range(3):
                engine.forward(images)
                model.parameter_view().add_scalar(0, 1.0)
            assert backend.cache_stats.misses == 3
            assert backend.cache_stats.evictions == 1
            assert len(backend._resources["published"]) == 2
        finally:
            backend.close()

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            ParallelBackend(workers=0)
        with pytest.raises(ValueError):
            ParallelBackend(max_published=0)

    def test_publishing_a_warm_model_ships_no_caches(self, backend):
        """Regression: a model whose layers hold forward caches (it was just
        trained or queried in-process) must publish cleanly and lean."""
        import pickle

        model = mnist_cnn(width_multiplier=0.125, input_size=12, rng=9)
        images = _pool(model, 6, seed=23)
        model.forward(images)  # fill every layer cache, lease workspaces
        payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
        cold = pickle.dumps(
            mnist_cnn(width_multiplier=0.125, input_size=12, rng=9),
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        assert len(payload) < len(cold) * 1.1  # caches stripped from the pickle
        engine = Engine(model, backend=backend, cache=False)
        batched = engine.output_gradients(images)
        singles = np.stack(
            [model.output_gradients(images[i]) for i in range(len(images))]
        )
        assert np.abs(batched - singles).max() <= TOLERANCE
