"""Detection-rate experiments (Tables II and III).

For a given victim model, a set of functional-test packages (one per
generation method / budget) and a set of attacks, the experiment draws a
sequence of perturbed copies of the victim per attack and replays every
package against each copy through the replay kernel
(:func:`repro.validation.replay.replay_trials`).  A trial detects the
perturbation when any test of a package prefix mismatches.

The detection rate of a (package, attack) cell is the fraction of perturbation
trials that were detected — exactly the quantity reported in Tables II/III.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.base import ParameterAttack
from repro.engine.backend import BackendSpec, get_backend
from repro.nn.model import Sequential
from repro.utils.config import DetectionConfig
from repro.utils.logging import get_logger
from repro.utils.rng import spawn
from repro.validation.package import ValidationPackage
from repro.validation.replay import AttackFactory, replay_trials

logger = get_logger("validation.detection")

#: every attack family the library implements, in table-column order
ATTACK_NAMES = ("sba", "gda", "random", "bitflip")


def stack_package_prefixes(
    packages: Dict[str, ValidationPackage], budget: int
) -> Tuple[List[str], np.ndarray, np.ndarray, Dict[str, int]]:
    """Stack the first ``budget`` tests of every package into one batch.

    Returns ``(methods, stacked_tests, expected_outputs, offsets)`` where
    ``offsets[m]`` is the start of method ``m``'s slice in the stacked batch.
    Replaying the stacked batch once per perturbed model (one engine dispatch)
    and slicing per method/budget afterwards is the Tables II/III inner loop;
    the campaign runner shares this exact stacking.
    """
    if not packages:
        raise ValueError("at least one validation package is required")
    methods = list(packages)
    for method, pkg in packages.items():
        if pkg.num_tests < budget:
            raise ValueError(
                f"package for method {method!r} has only {pkg.num_tests} tests "
                f"but the stacking budget is {budget}"
            )
    stacked_tests = np.concatenate(
        [packages[m].tests[:budget] for m in methods], axis=0
    )
    expected = np.concatenate(
        [packages[m].expected_outputs[:budget] for m in methods], axis=0
    )
    offsets = {m: i * budget for i, m in enumerate(methods)}
    return methods, stacked_tests, expected, offsets


@dataclass
class DetectionCell:
    """One cell of a detection-rate table."""

    method: str
    attack: str
    num_tests: int
    trials: int
    detections: int

    @property
    def detection_rate(self) -> float:
        if self.trials == 0:
            raise ValueError("cell has no trials")
        return self.detections / self.trials


@dataclass
class DetectionTable:
    """Collection of detection cells, indexable by (method, attack, budget)."""

    cells: List[DetectionCell] = field(default_factory=list)

    def add(self, cell: DetectionCell) -> None:
        self.cells.append(cell)

    def rate(self, method: str, attack: str, num_tests: int) -> float:
        for cell in self.cells:
            if (
                cell.method == method
                and cell.attack == attack
                and cell.num_tests == num_tests
            ):
                return cell.detection_rate
        raise KeyError(f"no cell for ({method!r}, {attack!r}, N={num_tests})")

    def methods(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.method not in seen:
                seen.append(cell.method)
        return seen

    def attacks(self) -> List[str]:
        seen: List[str] = []
        for cell in self.cells:
            if cell.attack not in seen:
                seen.append(cell.attack)
        return seen

    def budgets(self) -> List[int]:
        return sorted({cell.num_tests for cell in self.cells})

    def as_rows(self) -> List[Dict[str, object]]:
        """Flat list of dict rows (for CSV/markdown rendering)."""
        return [
            {
                "method": c.method,
                "attack": c.attack,
                "num_tests": c.num_tests,
                "trials": c.trials,
                "detections": c.detections,
                "detection_rate": c.detection_rate,
            }
            for c in self.cells
        ]


def available_attacks() -> List[str]:
    """Every attack family in the registry, builtins first in table order."""
    from repro.registry import registry

    names = list(ATTACK_NAMES)
    names.extend(n for n in registry.names("attacks") if n not in names)
    return names


def default_attack_factories(
    reference_inputs: np.ndarray,
    sba_magnitude: float = 10.0,
    gda_parameters: int = 20,
    random_parameters: int = 10,
    random_relative_std: float = 2.0,
    **extra_settings: object,
) -> Dict[str, AttackFactory]:
    """The paper's three attacks (plus the bit-flip extension) as factories.

    Each factory takes a per-trial RNG so that every perturbation trial draws
    an independent fault, matching the "implement each kind of parameter
    perturbation 10000 times" protocol of Section V-C.

    Attack construction resolves through the ``attacks`` namespace of
    :mod:`repro.registry`: every registered family contributes one factory,
    with its keyword arguments drawn from this function's settings according
    to the entry's knob declaration (``sba`` ← ``sba_magnitude``, ``gda`` ←
    ``gda_parameters``, ``random`` ← ``random_parameters`` /
    ``random_relative_std``).  Settings for third-party attacks pass through
    ``extra_settings`` under the field names their knobs declare.
    """
    from repro.registry import registry

    reference_inputs = np.asarray(reference_inputs, dtype=np.float64)
    if reference_inputs.shape[0] == 0:
        raise ValueError("reference_inputs must be a non-empty batch")

    settings: Dict[str, object] = {
        "sba_magnitude": sba_magnitude,
        "gda_parameters": gda_parameters,
        "random_parameters": random_parameters,
        "random_relative_std": random_relative_std,
    }
    settings.update(extra_settings)

    factories: Dict[str, AttackFactory] = {}
    for name in available_attacks():
        entry_factory = registry.get("attacks", name)
        kwargs = {
            kwarg: settings[field]  # type: ignore[index]
            for kwarg, field in registry.knobs("attacks", name).items()
            if field in settings
        }

        def factory(
            rng: np.random.Generator,
            _build: Callable[..., object] = entry_factory,
            _kwargs: Dict[str, object] = kwargs,
        ) -> ParameterAttack:
            return _build(reference_inputs, rng=rng, **_kwargs)  # type: ignore[return-value]

        factories[name] = factory
    return factories


class DetectionExperiment:
    """Detection-rate sweep over methods × attacks × test budgets.

    Parameters
    ----------
    model: the untampered victim model (the vendor's reference copy).
    packages: mapping from method name to a validation package holding *at
        least* ``max(test_budgets)`` tests generated by that method; budget
        sweeps reuse prefixes of each package.
    attack_factories: mapping from attack name to a factory building a fresh
        attack from a per-trial RNG; see :func:`default_attack_factories`.
    config: trial counts, budgets, attack list, tolerance and seed.
    backend: engine backend the trial replays run on (name, instance or
        class).  A fused model-axis backend (``model_axis``) replays a group
        of perturbed copies per dispatch; detection counts are bit-identical
        on every backend.
    """

    def __init__(
        self,
        model: Sequential,
        packages: Dict[str, ValidationPackage],
        attack_factories: Dict[str, AttackFactory],
        config: Optional[DetectionConfig] = None,
        backend: BackendSpec = "numpy",
    ) -> None:
        if not packages:
            raise ValueError("at least one validation package is required")
        self.backend = get_backend(backend)
        self.model = model
        self.packages = dict(packages)
        self.attack_factories = dict(attack_factories)
        self.config = config or DetectionConfig()
        self.config.validate()
        missing = set(self.config.attacks) - set(self.attack_factories)
        if missing:
            raise ValueError(f"no attack factory for: {sorted(missing)}")
        max_budget = max(self.config.test_budgets)
        for method, pkg in self.packages.items():
            if pkg.num_tests < max_budget:
                raise ValueError(
                    f"package for method {method!r} has only {pkg.num_tests} tests "
                    f"but the largest budget is {max_budget}"
                )

    def run(self) -> DetectionTable:
        """Run every (method, attack, budget) cell and return the table.

        The same sequence of perturbed models is reused across methods and
        budgets within an attack (paired trials), so differences between
        methods are not washed out by attack sampling noise.

        The tests of *all* packages are stacked into one batch and replayed
        against each perturbed copy by :func:`~repro.validation.replay
        .replay_trials`; a cell's detection count is the number of trials
        whose mismatch row has any hit within the method's budget prefix.
        """
        cfg = self.config
        table = DetectionTable()
        attack_rngs = spawn(cfg.seed, len(cfg.attacks))
        methods, stacked_tests, expected, offsets = stack_package_prefixes(
            self.packages, max(cfg.test_budgets)
        )
        for attack_name, attack_rng in zip(cfg.attacks, attack_rngs):
            logger.info("running %d %s perturbation trials", cfg.trials, attack_name)
            mismatches, _ = replay_trials(
                self.model,
                self.attack_factories[attack_name],
                spawn(attack_rng, cfg.trials),
                stacked_tests,
                expected,
                cfg.output_atol,
                self.backend,
            )
            for method in methods:
                lo = offsets[method]
                for n in cfg.test_budgets:
                    detected = mismatches[:, lo : lo + n].any(axis=1)
                    table.add(
                        DetectionCell(
                            method=method,
                            attack=attack_name,
                            num_tests=n,
                            trials=cfg.trials,
                            detections=int(detected.sum()),
                        )
                    )
        return table


def run_detection_experiment(
    model: Sequential,
    packages: Dict[str, ValidationPackage],
    reference_inputs: np.ndarray,
    config: Optional[DetectionConfig] = None,
    backend: BackendSpec = "numpy",
    **factory_kwargs: object,
) -> DetectionTable:
    """Convenience wrapper with the paper's default attack set."""
    factories = default_attack_factories(reference_inputs, **factory_kwargs)  # type: ignore[arg-type]
    return DetectionExperiment(
        model, packages, factories, config, backend=backend
    ).run()


__all__ = [
    "ATTACK_NAMES",
    "available_attacks",
    "DetectionCell",
    "DetectionTable",
    "DetectionExperiment",
    "default_attack_factories",
    "run_detection_experiment",
    "stack_package_prefixes",
]
