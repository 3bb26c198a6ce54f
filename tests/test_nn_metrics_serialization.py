"""Tests for metrics and model serialisation/digests."""

import numpy as np
import pytest

from repro.models.zoo import small_mlp
from repro.nn.metrics import accuracy, confusion_matrix, per_class_accuracy, top_k_accuracy
from repro.nn.serialization import (
    load_metadata,
    load_model_into,
    load_parameters,
    parameter_digest,
    save_model,
)


class TestMetrics:
    def test_accuracy_with_class_indices(self):
        assert accuracy(np.array([0, 1, 2, 2]), np.array([0, 1, 1, 2])) == 0.75

    def test_accuracy_with_logits(self):
        logits = np.array([[0.9, 0.1], [0.2, 0.8]])
        assert accuracy(logits, np.array([0, 1])) == 1.0

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([]), np.array([]))

    def test_accuracy_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            accuracy(np.array([0, 1]), np.array([0]))

    def test_top_k_accuracy(self):
        logits = np.array([[0.1, 0.5, 0.4], [0.6, 0.3, 0.1]])
        labels = np.array([2, 1])
        assert top_k_accuracy(logits, labels, k=1) == 0.0
        assert top_k_accuracy(logits, labels, k=2) == 1.0

    def test_top_k_rejects_bad_k(self):
        with pytest.raises(ValueError):
            top_k_accuracy(np.zeros((2, 3)), np.zeros(2), k=4)

    def test_confusion_matrix_counts(self):
        mat = confusion_matrix(np.array([0, 1, 1, 2]), np.array([0, 1, 2, 2]), 3)
        assert mat[0, 0] == 1
        assert mat[1, 1] == 1
        assert mat[2, 1] == 1
        assert mat[2, 2] == 1
        assert mat.sum() == 4

    def test_per_class_accuracy_handles_missing_classes(self):
        result = per_class_accuracy(np.array([0, 0]), np.array([0, 0]), 3)
        assert result[0] == 1.0
        assert np.isnan(result[1])


class TestSerialization:
    def test_digest_changes_with_parameters(self):
        model = small_mlp(rng=0)
        before = parameter_digest(model)
        model.parameter_view().add_scalar(0, 0.5)
        assert parameter_digest(model) != before

    def test_digest_is_deterministic(self):
        model = small_mlp(rng=0)
        assert parameter_digest(model) == parameter_digest(model)

    def test_save_and_load_round_trip(self, tmp_path):
        model = small_mlp(rng=1)
        path = save_model(model, tmp_path / "model.npz")
        meta = load_metadata(path)
        assert meta["digest"] == parameter_digest(model)

        other = small_mlp(rng=2)
        load_model_into(other, path)
        np.testing.assert_allclose(
            other.parameter_view().flat_values(), model.parameter_view().flat_values()
        )

    def test_load_detects_tampered_file(self, tmp_path):
        model = small_mlp(rng=3)
        path = save_model(model, tmp_path / "model.npz")
        params = load_parameters(path)
        # tamper with one tensor and re-save, keeping the stale metadata
        name = sorted(params)[0]
        params[name] = params[name] + 1.0
        meta_blob = np.load(path)["__meta__"]
        np.savez(path, __meta__=meta_blob, **params)
        other = small_mlp(rng=3)
        with pytest.raises(ValueError, match="digest mismatch"):
            load_model_into(other, path)

    def test_load_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_parameters(tmp_path / "missing.npz")

    def test_truncated_file_raises_value_error_naming_path(self, tmp_path):
        path = save_model(small_mlp(rng=4), tmp_path / "model.npz")
        raw = path.read_bytes()
        for cut in (0, 10, len(raw) // 2, len(raw) - 1):
            path.write_bytes(raw[:cut])
            for load in (load_parameters, load_metadata):
                with pytest.raises(ValueError, match="not a readable .npz archive") as info:
                    load(path)
                assert str(path) in str(info.value)
