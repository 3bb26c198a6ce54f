"""Span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: :func:`install` replaces the
public entry points of each layer of ``repro`` with thin wrappers that record
a span (name, parent, start, end, thread) around every call and bump exact
counters.  Spans stay in memory until :meth:`SpanRecorder.write` dumps them as
JSON lines at the end of the run.

Layer metrics are derived from the spans:

* ``<name>_s`` — inclusive time of the outermost spans of that name (a span
  nested inside a span of the same name is not counted twice);
* self time — a span's duration minus the time its child spans cover,
  written per span name into the trace summary.

Counters (calls, batches, switch index, ...) are kept apart from timings so
that they repeat exactly from run to run at one seed.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Span = Tuple[int, str, int, float, float, int]
FIELDS = ("id", "name", "parent", "start", "end", "thread")


class SpanRecorder:
    """In-memory spans plus exact counters, shared by every wrapped call."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Counter = Counter()
        self._local = threading.local()
        # next() on a count and list.append are atomic under the GIL, so
        # threads of the serve worker tier can record without a lock
        self._ids = itertools.count(1)

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record one synchronous span nested under this thread's open span."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, name, parent, start, end, threading.get_ident()))

    def record_flat(self, name: str, start: float, end: float) -> None:
        """A span with no parent (coroutines interleave, so they get no stack)."""
        self.spans.append((next(self._ids), name, 0, start, end, threading.get_ident()))

    def traced(
        self,
        fn: Callable[..., object],
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable[..., object]:
        """``fn`` wrapped to record a span per call.

        ``after(result, *args, **kwargs)`` runs once the call returns and
        feeds the counters.
        """
        recorder = self

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def async_wrapper(*args, **kwargs):
                start = time.perf_counter()
                try:
                    result = await fn(*args, **kwargs)
                finally:
                    recorder.record_flat(name, start, time.perf_counter())
                if after is not None:
                    after(result, *args, **kwargs)
                return result

            return async_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with recorder.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    def wrap(
        self,
        owner: object,
        attr: str,
        name: str,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with its :meth:`traced` version."""
        setattr(owner, attr, self.traced(getattr(owner, attr), name, after))

    # -- derived views -------------------------------------------------------
    def _by_id(self) -> Dict[int, Span]:
        return {span[0]: span for span in self.spans}

    def outermost(self, name: str) -> List[Span]:
        """Spans of ``name`` with no ancestor of the same name."""
        by_id = self._by_id()
        found = []
        for span in self.spans:
            if span[1] != name:
                continue
            parent = span[2]
            nested = False
            while parent:
                ancestor = by_id.get(parent)
                if ancestor is None:
                    break
                if ancestor[1] == name:
                    nested = True
                    break
                parent = ancestor[2]
            if not nested:
                found.append(span)
        return found

    def total_s(self, name: str) -> float:
        return sum(end - start for _, _, _, start, end, _ in self.outermost(name))

    def self_times(self) -> Dict[str, float]:
        """Per-name self time: duration minus the time child spans cover."""
        children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
        for _, _, parent, start, end, _ in self.spans:
            if parent:
                children[parent].append((start, end))
        totals: Dict[str, float] = defaultdict(float)
        for span_id, name, _, start, end, _ in self.spans:
            totals[name] += (end - start) - covered_length(children.get(span_id, []))
        return dict(totals)

    def child_coverage(self, span_id: int) -> float:
        """Share of a span's interval covered by its direct children."""
        span = self._by_id()[span_id]
        intervals = [(s[3], s[4]) for s in self.spans if s[2] == span_id]
        duration = span[4] - span[3]
        return covered_length(intervals) / duration if duration > 0 else 0.0

    def write(self, path: Path) -> None:
        """Dump spans (one JSON object per line), then counters and self times."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(FIELDS, span))) + "\n")
            fh.write(
                json.dumps({"counters": dict(self.counters), "self_s": self.self_times()})
                + "\n"
            )


def covered_length(intervals: List[Tuple[float, float]]) -> float:
    """Length of the union of ``intervals``."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def load_spans(path: Path) -> SpanRecorder:
    """Rebuild a recorder from a file written by :meth:`SpanRecorder.write`."""
    recorder = SpanRecorder()
    with path.open(encoding="utf-8") as fh:
        for line in fh:
            item = json.loads(line)
            if "counters" in item:
                recorder.counters.update(item["counters"])
            else:
                recorder.spans.append(tuple(item[key] for key in FIELDS))
    return recorder


def install(recorder: SpanRecorder) -> None:
    """Wrap the public entry points of every layer the benchmark measures."""
    from repro.attacks.base import ParameterAttack
    from repro.coverage.parameter_coverage import ActivationMaskCache
    from repro.engine import Engine
    from repro.models.training import Trainer
    from repro.nn.layers import Conv2D, Dense
    from repro.registry import registry
    from repro.testgen.combined import CombinedGenerator
    from repro.testgen.gradient_gen import GradientTestGenerator
    from repro.testgen.neuron_testgen import NeuronCoverageSelector
    from repro.testgen.selection import TrainingSetSelector
    from repro.validation.detection import DetectionExperiment
    from repro.validation.vendor import IPVendor

    counters = recorder.counters

    def count(key: str) -> Callable[..., None]:
        def bump(_result, *_args, **_kwargs) -> None:
            counters[key] += 1

        return bump

    # nn: every conv/dense kernel path, forward and backward
    for attr in ("forward", "stacked_forward"):
        recorder.wrap(Conv2D, attr, "nn.conv_forward")
    for attr in ("backward", "backward_batch", "stacked_backward_batch"):
        recorder.wrap(Conv2D, attr, "nn.conv_backward", after=count("nn.conv_backward_calls"))
    for attr in (
        "forward",
        "stacked_forward",
        "backward",
        "backward_batch",
        "stacked_backward_batch",
    ):
        recorder.wrap(Dense, attr, "nn.dense")

    # models
    recorder.wrap(Trainer, "fit", "models.train")

    # data: the registry's dataset loaders (re-registered, latest wins)
    for entry in registry.entries("datasets"):
        registry.register(
            "datasets",
            entry.name,
            recorder.traced(entry.factory, "data.synth"),
            knobs=entry.knobs,
            metadata=entry.metadata,
            summary=entry.summary,
        )

    # engine
    for attr in (
        "activation_masks",
        "packed_activation_masks",
        "neuron_masks",
        "packed_neuron_masks",
    ):
        recorder.wrap(Engine, attr, "engine.masks")
    recorder.wrap(Engine, "input_gradients", "engine.input_gradients")
    recorder.wrap(Engine, "forward", "engine.forward")
    recorder.wrap(Engine, "stacked_forward", "engine.stacked_forward")

    # coverage: the greedy argmax of Algorithm 1
    recorder.wrap(
        ActivationMaskCache,
        "best_candidate",
        "coverage.best_candidate",
        after=count("coverage.best_candidate_calls"),
    )

    # testgen
    def generated(result, generator, *_args, **_kwargs) -> None:
        # memo-cache counters of the engine this generation ran on
        stats = generator.engine.stats
        counters["engine.cache_hits"] += stats.hits
        counters["engine.cache_misses"] += stats.misses
        sources = list(result.sources)
        counters["testgen.gradient_tests"] += sources.count("gradient")
        if isinstance(generator, CombinedGenerator):
            counters["testgen.switch_index"] = (
                sources.index("gradient") if "gradient" in sources else len(sources)
            )

    for cls in (
        CombinedGenerator,
        NeuronCoverageSelector,
        TrainingSetSelector,
        GradientTestGenerator,
    ):
        recorder.wrap(cls, "generate", "testgen.generate", after=generated)

    def synthesized(batch, *_args, **_kwargs) -> None:
        counters["testgen.synth_batches"] += 1
        counters["testgen.synth_samples"] += int(len(batch))

    recorder.wrap(GradientTestGenerator, "synthesize_batch", "testgen.synth", after=synthesized)

    # validation and attacks
    recorder.wrap(IPVendor, "build_package", "validation.package")
    recorder.wrap(DetectionExperiment, "run", "validation.detect")
    recorder.wrap(ParameterAttack, "apply", "attacks.apply")


def install_server(recorder: SpanRecorder) -> None:
    """Wrap the serve-side entry points a validate request passes through."""
    from repro.api.requests import ValidateRequest
    from repro.api.session import Session
    from repro.engine import Engine
    from repro.serve.coalescer import BatchingCoalescer

    recorder.wrap(ValidateRequest, "resolve_package", "serve.package_load")
    recorder.wrap(Session, "load_ip", "serve.load_ip")
    recorder.wrap(BatchingCoalescer, "submit", "serve.coalesce_submit")
    recorder.wrap(Engine, "stacked_forward", "engine.stacked_forward")


def layer_metrics(recorder: SpanRecorder) -> Dict[str, float]:
    """The per-layer figures derived from the in-process spans and counters."""
    c = recorder.counters
    samples = c.get("testgen.synth_samples", 0)
    lookups = c.get("engine.cache_hits", 0) + c.get("engine.cache_misses", 0)
    return {
        "nn.conv_backward_s": recorder.total_s("nn.conv_backward"),
        "nn.conv_backward_calls": c.get("nn.conv_backward_calls", 0),
        "nn.conv_forward_s": recorder.total_s("nn.conv_forward"),
        "nn.dense_s": recorder.total_s("nn.dense"),
        "models.train_s": recorder.total_s("models.train"),
        "data.synth_s": recorder.total_s("data.synth"),
        "engine.masks_s": recorder.total_s("engine.masks"),
        "engine.input_gradients_s": recorder.total_s("engine.input_gradients"),
        "engine.stacked_forward_s": recorder.total_s("engine.stacked_forward"),
        "engine.forward_s": recorder.total_s("engine.forward"),
        "engine.cache_hit_rate": (
            c.get("engine.cache_hits", 0) / lookups if lookups else 0.0
        ),
        "coverage.best_candidate_s": recorder.total_s("coverage.best_candidate"),
        "coverage.best_candidate_calls": c.get("coverage.best_candidate_calls", 0),
        "testgen.generate_s": recorder.total_s("testgen.generate"),
        "testgen.synth_s": recorder.total_s("testgen.synth"),
        "testgen.synth_batches": c.get("testgen.synth_batches", 0),
        "testgen.switch_index": c.get("testgen.switch_index", 0),
        "testgen.synth_yield": (
            c.get("testgen.gradient_tests", 0) / samples if samples else 0.0
        ),
        "validation.package_s": recorder.total_s("validation.package"),
        "validation.detect_s": recorder.total_s("validation.detect"),
        "attacks.apply_s": recorder.total_s("attacks.apply"),
    }
