"""Tests for the vendor/user validation scheme and the detection experiments."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.attacks import RandomPerturbation, SingleBiasAttack
from repro.coverage.bitmap import MaskMatrix
from repro.testgen import TrainingSetSelector
from repro.utils.config import DetectionConfig
from repro.validation import (
    DetectionExperiment,
    IPUser,
    IPVendor,
    ValidationPackage,
    default_attack_factories,
    validate_ip,
)


@pytest.fixture(scope="module")
def vendor_package(trained_cnn, digit_dataset):
    vendor = IPVendor(trained_cnn, digit_dataset)
    generator = TrainingSetSelector(trained_cnn, digit_dataset, candidate_pool=30, rng=0)
    return vendor.build_package(generator.generate(10))


class TestValidationPackage:
    def test_construction_and_labels(self, vendor_package):
        assert vendor_package.num_tests == 10
        assert vendor_package.expected_labels.shape == (10,)
        np.testing.assert_array_equal(
            vendor_package.expected_labels,
            np.argmax(vendor_package.expected_outputs, axis=1),
        )

    def test_validation_errors(self):
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((2, 4)), expected_outputs=np.zeros((3, 5)))
        with pytest.raises(ValueError):
            ValidationPackage(
                tests=np.zeros((2, 4)), expected_outputs=np.zeros((2, 5)), output_atol=-1
            )
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((2, 4)), expected_outputs=np.zeros(2))

    def test_subset(self, vendor_package):
        sub = vendor_package.subset(4)
        assert sub.num_tests == 4
        with pytest.raises(ValueError):
            vendor_package.subset(0)
        with pytest.raises(ValueError):
            vendor_package.subset(99)

    def test_digest_changes_when_contents_change(self, vendor_package):
        modified = ValidationPackage(
            tests=vendor_package.tests + 0.01,
            expected_outputs=vendor_package.expected_outputs,
        )
        assert modified.digest() != vendor_package.digest()

    def test_save_load_round_trip(self, vendor_package, tmp_path):
        path = vendor_package.save(tmp_path / "pkg.npz")
        loaded = ValidationPackage.load(path)
        np.testing.assert_allclose(loaded.tests, vendor_package.tests)
        np.testing.assert_allclose(loaded.expected_outputs, vendor_package.expected_outputs)
        assert loaded.metadata["num_tests"] == 10

    def test_load_detects_tampering(self, vendor_package, tmp_path):
        path = vendor_package.save(tmp_path / "pkg.npz")
        with np.load(path) as data:
            arrays = {k: data[k].copy() for k in data.files}
        arrays["expected_outputs"] = arrays["expected_outputs"] + 1.0
        np.savez(path, **arrays)
        with pytest.raises(ValueError, match="integrity"):
            ValidationPackage.load(path)

    def test_load_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            ValidationPackage.load(tmp_path / "nope.npz")


@pytest.fixture(scope="module")
def saved_package(tmp_path_factory):
    """A v3 package (masks and discrimination scores) saved once per module."""
    rng = np.random.default_rng(0)
    package = ValidationPackage(
        tests=rng.random((4, 1, 4, 4)),
        expected_outputs=rng.random((4, 3)),
        coverage_masks=MaskMatrix.from_dense(rng.random((4, 20)) > 0.5),
        discrimination=rng.random(4),
        metadata={"generator": "synthetic"},
    )
    directory = tmp_path_factory.mktemp("package")
    path = package.save(directory / "pkg.npz")
    return package, path.read_bytes(), directory / "hostile.npz"


class TestPackageLoadHostileInput:
    """Truncated or corrupted package files fail with a ValueError naming the
    file; a corruption the archive format ignores still loads the original
    payload."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_truncated_file_raises_value_error(self, saved_package, data):
        _, raw, target = saved_package
        cut = data.draw(st.integers(0, len(raw) - 1), label="cut")
        target.write_bytes(raw[:cut])
        with pytest.raises(ValueError) as info:
            ValidationPackage.load(target)
        assert str(target) in str(info.value)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_byte_flips_raise_value_error_or_load_unchanged(self, saved_package, data):
        package, raw, target = saved_package
        flips = data.draw(
            st.lists(
                st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                min_size=1,
                max_size=3,
            ),
            label="flips",
        )
        corrupted = bytearray(raw)
        for offset, mask in flips:
            corrupted[offset] ^= mask
        target.write_bytes(bytes(corrupted))
        try:
            loaded = ValidationPackage.load(target)
        except ValueError as exc:
            assert str(target) in str(exc)
        else:
            assert loaded.digest() == package.digest()
            np.testing.assert_array_equal(loaded.expected_labels, package.expected_labels)

    def test_concurrent_loads_from_threads(self, saved_package, tmp_path):
        package, raw, _ = saved_package
        path = tmp_path / "shared.npz"
        path.write_bytes(raw)
        errors, digests = [], set()

        def load_repeatedly():
            try:
                for _ in range(50):
                    digests.add(ValidationPackage.load(path).digest())
            except Exception as exc:  # noqa: BLE001 - collected for the assert
                errors.append(exc)

        threads = [threading.Thread(target=load_repeatedly) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads inside the header parse
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert digests == {package.digest()}


class TestVendor:
    def test_release_end_to_end(self, trained_cnn, digit_dataset):
        vendor = IPVendor(trained_cnn, digit_dataset)
        package = vendor.release(num_tests=6, candidate_pool=20, rng=0, max_updates=10)
        assert package.num_tests == 6
        assert package.metadata["generator"] == "combined"
        assert 0.0 < package.metadata["validation_coverage"] <= 1.0

    def test_build_package_requires_tests(self, trained_cnn, digit_dataset):
        vendor = IPVendor(trained_cnn, digit_dataset)
        with pytest.raises(ValueError):
            vendor.build_package(np.zeros((0, 1, 12, 12)))

    def test_default_generator_requires_training_set(self, trained_cnn):
        vendor = IPVendor(trained_cnn)
        with pytest.raises(ValueError):
            vendor.default_generator()

    def test_unbuilt_model_rejected(self):
        from repro.nn.layers import Dense
        from repro.nn.model import Sequential

        with pytest.raises(ValueError):
            IPVendor(Sequential([Dense(3)]))


class TestUser:
    def test_clean_ip_passes(self, trained_cnn, vendor_package):
        report = validate_ip(trained_cnn, vendor_package)
        assert report.passed
        assert not report.detected
        assert report.num_mismatched == 0
        assert "SECURE" in report.summary()

    def test_perturbed_ip_detected(self, trained_cnn, vendor_package):
        tampered = SingleBiasAttack(magnitude=20.0, rng=0).apply(trained_cnn).model
        report = validate_ip(tampered, vendor_package)
        assert report.detected
        assert report.num_mismatched > 0
        assert "TAMPERED" in report.summary()

    def test_callable_black_box_interface(self, trained_cnn, vendor_package):
        report = validate_ip(lambda x: trained_cnn.predict(x), vendor_package)
        assert report.passed

    def test_output_shape_change_is_detected(self, vendor_package):
        report = validate_ip(lambda x: np.zeros((x.shape[0], 3)), vendor_package)
        assert report.detected
        assert report.max_output_deviation == np.inf

    def test_tolerance_allows_tiny_numeric_noise(self, trained_cnn, vendor_package):
        def noisy_ip(x):
            return trained_cnn.predict(x) + 1e-9

        report = IPUser(vendor_package).validate(noisy_ip)
        assert report.passed

    def test_empty_package_rejected(self):
        with pytest.raises(ValueError):
            ValidationPackage(tests=np.zeros((0, 2)), expected_outputs=np.zeros((0, 3)))


class TestDetectionExperiment:
    def test_detection_rates_and_structure(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=8, test_budgets=(2, 5, 10), attacks=("sba", "random"), seed=0)
        factories = default_attack_factories(digit_dataset.images[:10])
        experiment = DetectionExperiment(
            trained_cnn, {"proposed": vendor_package}, factories, config
        )
        table = experiment.run()
        assert set(table.attacks()) == {"sba", "random"}
        assert table.budgets() == [2, 5, 10]
        for attack in table.attacks():
            rates = [table.rate("proposed", attack, n) for n in table.budgets()]
            assert all(0.0 <= r <= 1.0 for r in rates)
            # more tests can only help (paired trials make this exact)
            assert rates == sorted(rates)

    def test_missing_factory_rejected(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(2,), attacks=("gda",))
        with pytest.raises(ValueError, match="factory"):
            DetectionExperiment(trained_cnn, {"p": vendor_package}, {}, config)

    def test_package_too_small_rejected(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(50,), attacks=("random",))
        factories = default_attack_factories(digit_dataset.images[:4])
        with pytest.raises(ValueError, match="budget"):
            DetectionExperiment(trained_cnn, {"p": vendor_package}, factories, config)

    def test_table_lookup_missing_cell(self, trained_cnn, digit_dataset, vendor_package):
        config = DetectionConfig(trials=2, test_budgets=(2,), attacks=("random",))
        factories = default_attack_factories(digit_dataset.images[:4])
        table = DetectionExperiment(
            trained_cnn, {"p": vendor_package}, factories, config
        ).run()
        with pytest.raises(KeyError):
            table.rate("p", "sba", 2)
        rows = table.as_rows()
        assert rows and {"method", "attack", "num_tests", "detection_rate"} <= set(rows[0])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            DetectionConfig(trials=0).validate()
        with pytest.raises(ValueError):
            DetectionConfig(test_budgets=()).validate()
        with pytest.raises(ValueError):
            DetectionConfig(attacks=("voodoo",)).validate()
