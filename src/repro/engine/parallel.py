"""Multi-core sharded execution backend.

:class:`ParallelBackend` splits every batch the engine dispatches into
contiguous shards and evaluates them on persistent, supervised worker
processes.  Two transport decisions keep the per-call overhead small enough
for the engine's chunked access pattern:

* **Shared-memory array transport** — the input batch is written once into a
  :mod:`multiprocessing.shared_memory` segment; each worker maps the segment
  and copies out only its own shard, so the batch is never pickled through
  the task pipe (and never copied once per worker).
* **Model publication by parameter digest** — the model is pickled into a
  shared-memory segment once per :func:`~repro.nn.serialization
  .parameter_digest`.  Workers rebuild it on first sight of a digest and keep
  it in a small per-process cache, so repeated engine calls against the same
  parameters ship a 64-character digest instead of the weights.  Perturbing
  the model (as the attacks do) changes the digest and triggers exactly one
  re-publication.  Publication reuse is counted in :attr:`cache_stats`, which
  the engine merges into its own statistics.

Loss-based queries (``input_gradients``, ``loss_parameter_gradients``) are
recombined across shards as a weighted mean (weight = shard size), which is
exact for every built-in loss because they all normalise by the batch size.

Shard *i* goes to worker *i* over that worker's own pipe
(:mod:`repro.faults.workers`), and its result comes back the same way: results
are shard-sized and consumed immediately, so pinning them in shared memory
would buy nothing.

The workers are lazy (constructing a backend costs nothing until the first
dispatch) and persistent; call :meth:`close` — or let garbage collection /
interpreter shutdown do it — to kill and reap the workers and unlink the
shared segments.  One backend instance can serve many engines; share it to
share the workers::

    backend = ParallelBackend(workers=4)
    engine = Engine(model, backend=backend)
    ...
    backend.close()
"""

from __future__ import annotations

import os
import pickle
import signal
import time
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.engine.backend import ExecutionBackend, register_backend
from repro.engine.cache import CacheStats
from repro.faults import inject, workers as supervised
from repro.faults.errors import DispatchTimeoutError, WorkerCrashError, is_transient
from repro.faults.policy import FaultPolicy
from repro.nn.losses import Loss, get_loss
from repro.nn.model import Sequential
from repro.nn.serialization import parameter_digest
from repro.utils.logging import get_logger

logger = get_logger("engine.parallel")

#: how many distinct parameter digests stay published (and resident in each
#: worker) at once; attack loops alternate between a handful of models
DEFAULT_MAX_PUBLISHED = 4


def default_worker_count() -> int:
    """Worker count matching the cores this process may actually use."""
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:  # pragma: no cover - non-Linux fallback
        return max(1, os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

#: per-worker cache of rebuilt models, keyed by parameter digest; sized to
#: match DEFAULT_MAX_PUBLISHED so parent and workers evict in lockstep
_WORKER_MODELS: "OrderedDict[str, Sequential]" = OrderedDict()
_WORKER_MODEL_SLOTS = DEFAULT_MAX_PUBLISHED

def _attach_readonly(name: str) -> shared_memory.SharedMemory:
    """Map a parent-owned segment without adopting ownership of it.

    CPython < 3.13 registers segments with the resource tracker on attach as
    well as create.  Workers are forked wherever POSIX shared memory exists
    (:data:`repro.faults.workers.START_METHOD`), so they share the parent's
    tracker, whose set semantics make the re-registration harmless.
    """
    return shared_memory.SharedMemory(name=name)


def _worker_model(digest: str, model_shm: str, model_size: int) -> Sequential:
    model = _WORKER_MODELS.get(digest)
    if model is not None:
        _WORKER_MODELS.move_to_end(digest)
        return model
    shm = _attach_readonly(model_shm)
    try:
        model = pickle.loads(bytes(shm.buf[:model_size]))
    finally:
        shm.close()
    _WORKER_MODELS[digest] = model
    while len(_WORKER_MODELS) > _WORKER_MODEL_SLOTS:
        _WORKER_MODELS.popitem(last=False)
    return model


def _worker_shard(
    batch_shm: str, shape: Tuple[int, ...], dtype: str, start: int, stop: int
) -> np.ndarray:
    """Copy this worker's shard out of the shared batch segment.

    The copy (shard-sized, not batch-sized) lets the segment be closed
    immediately — layer caches may hold views of the input across calls, and
    those must never dangle into an unmapped segment.
    """
    shm = _attach_readonly(batch_shm)
    try:
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf)
        return np.array(view[start:stop])
    finally:
        shm.close()


def _worker_main(conn) -> None:
    """Worker loop: one shard task in, one ``("ok" | "error", value)`` out."""
    try:
        while True:
            task = conn.recv()
            if task is None:
                return
            try:
                reply = ("ok", _worker_run(task))
            except Exception as exc:  # noqa: BLE001 — re-raised in the parent
                reply = ("error", exc)
            conn.send(reply)
    except (EOFError, OSError, KeyboardInterrupt):
        pass


def _worker_run(task: tuple) -> Any:
    """Execute one shard task."""
    op, digest, model_shm, model_size, batch_shm, shape, dtype, start, stop, options = task
    model = _worker_model(digest, model_shm, model_size)
    x = _worker_shard(batch_shm, shape, dtype, start, stop)
    if op == "forward":
        return model.forward(x, training=False)
    if op == "forward_collect":
        return model.forward_collect(x)
    if op == "output_gradients":
        return model.output_gradients_batch(x, options)
    if op == "packed_masks":
        from repro.engine.backend import threshold_and_pack

        scalarization, epsilon = options
        return threshold_and_pack(
            model.output_gradients_batch(x, scalarization), epsilon
        )
    if op == "packed_neuron_masks":
        from repro.engine.backend import pack_neuron_outputs

        threshold, layer_indices = options
        return pack_neuron_outputs(
            model.forward_collect(x), x.shape[0], threshold, layer_indices
        )
    if op == "input_gradients":
        targets, loss = options
        return model.input_gradient(x, targets, loss)
    if op == "loss_parameter_gradients":
        targets, loss = options
        loss_fn = get_loss(loss)
        model.zero_grad()
        logits = model.forward(x, training=False)
        value, grad_logits = loss_fn.value_and_grad(logits, targets)
        model.backward(grad_logits)
        flat = model.parameter_view().flat_grads()
        model.zero_grad()
        return value, flat
    raise ValueError(f"unknown parallel op {op!r}")  # pragma: no cover


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


def _stop_workers(resources: dict) -> None:
    """Kill and reap every worker; the next dispatch starts fresh ones."""
    for worker in resources["workers"] or ():
        worker.kill()
    resources["workers"] = None


def _release_resources(resources: dict) -> None:
    """Reap the workers and unlink all owned segments (idempotent)."""
    _stop_workers(resources)
    for shm, _size in resources.pop("published", {}).values():
        try:
            shm.close()
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass
    resources["published"] = OrderedDict()


@register_backend
class ParallelBackend(ExecutionBackend):
    """Shard batches across persistent supervised worker processes.

    Parameters
    ----------
    workers:
        Worker process count; defaults to the cores available to this
        process.  ``workers=1`` is valid (useful for testing the transport)
        but pays process overhead for no parallelism.
    max_published:
        How many model publications (distinct parameter digests) to keep
        alive at once.
    fault_policy:
        :class:`~repro.faults.FaultPolicy` (or its dict form) governing
        worker supervision: a dispatch whose workers die — or that exceeds
        ``dispatch_timeout_s`` — kills and respawns the workers and requeues
        every shard, up to ``max_retries`` times.  Supervision is always on;
        passing ``None`` uses the default policy.

    Every dispatch is supervised by :func:`repro.faults.workers.wait`, which
    wakes on a shard result or a worker's death (its process sentinel)
    alike, so a SIGKILLed worker is noticed at once and never blocks the
    dispatch.  A dispatch that fails for any reason kills its workers, so no
    stale result can reach the next one.  Shard tasks are pure functions of
    (model digest, batch window), so requeueing after a respawn is always
    safe.
    """

    name = "parallel"

    def __init__(
        self,
        workers: Optional[int] = None,
        max_published: int = DEFAULT_MAX_PUBLISHED,
        fault_policy: Union[FaultPolicy, Dict[str, object], None] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ValueError("workers must be at least 1")
        if max_published < 1:
            raise ValueError("max_published must be at least 1")
        self.fault_policy = FaultPolicy.coerce(fault_policy) or FaultPolicy()
        self.workers = int(workers) if workers is not None else default_worker_count()
        self.max_published = int(max_published)
        self._stats = CacheStats()
        # workers + publications live in a plain dict so the weakref
        # finalizer can release them without keeping the backend itself alive
        self._resources: dict = {"workers": None, "published": OrderedDict()}
        import weakref

        self._finalizer = weakref.finalize(self, _release_resources, self._resources)

    # -- ExecutionBackend surface -------------------------------------------
    @property
    def parallelism(self) -> int:
        return self.workers

    @property
    def cache_stats(self) -> CacheStats:
        """Model-publication reuse counters (hit = weights were not re-shipped)."""
        return self._stats

    def close(self) -> None:
        """Kill and reap the workers and unlink every published segment."""
        _release_resources(self._resources)

    # -- worker / publication plumbing --------------------------------------
    def _workers(self) -> list:
        workers = self._resources["workers"]
        if workers is None:
            workers = [supervised.start(_worker_main, key=i) for i in range(self.workers)]
            self._resources["workers"] = workers
            logger.debug(
                "started %d worker processes (start method %s)",
                self.workers,
                supervised.START_METHOD,
            )
        return workers

    def _publish(self, model: Sequential) -> Tuple[str, str, int]:
        """Ensure ``model`` is published; returns (digest, shm name, size)."""
        published: OrderedDict = self._resources["published"]
        digest = parameter_digest(model)
        entry = published.get(digest)
        if entry is not None:
            published.move_to_end(digest)
            self._stats.hits += 1
        else:
            payload = pickle.dumps(model, protocol=pickle.HIGHEST_PROTOCOL)
            shm = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
            shm.buf[: len(payload)] = payload
            entry = (shm, len(payload))
            published[digest] = entry
            self._stats.misses += 1
            while len(published) > self.max_published:
                _, (old_shm, _old_size) = published.popitem(last=False)
                old_shm.close()
                old_shm.unlink()
                self._stats.evictions += 1
        shm, size = entry
        return digest, shm.name, size

    @staticmethod
    def _shard_bounds(n: int, shards: int) -> List[Tuple[int, int]]:
        """Contiguous, balanced, non-empty shard index ranges."""
        shards = max(1, min(shards, n))
        edges = np.linspace(0, n, shards + 1).round().astype(int)
        return [(int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a]

    def _apply_injected_fault(self, fault) -> None:
        """Execute a ``kill_worker``/``stall_worker`` fault from the chaos plan.

        ``fault.worker`` indexes the workers; a negative index targets
        *every* worker.  A kill is applied synchronously — the target is
        SIGKILLed and reaped before any shard is sent — so the dispatch
        deterministically takes the crash-detection + respawn path.
        """
        workers = self._workers()
        targets = workers if fault.worker < 0 else [workers[fault.worker % len(workers)]]
        for target in targets:
            logger.warning("injected fault: %s on worker pid %s", fault.action, target.pid)
            if fault.action == "kill_worker":
                target.kill()
            else:
                os.kill(target.pid, signal.SIGSTOP)

    def _run_shards(self, tasks: List[tuple], timeout_s: Optional[float]) -> list:
        """Send shard *i* to worker *i* and collect every result.

        Raises :class:`WorkerCrashError` when a worker is (or goes) dead
        before delivering its shard, :class:`DispatchTimeoutError` when
        ``timeout_s`` elapses (a stopped or livelocked worker), or the
        exception a worker reported.  Any failure kills every worker, so no
        shard still in flight can deliver a stale result to the next dispatch.
        """
        workers = self._workers()
        try:
            dead = [w.pid for w in workers if not w.process.is_alive()]
            if dead:
                raise WorkerCrashError(f"worker(s) {dead} died between dispatches")
            pending = dict(enumerate(workers[: len(tasks)]))
            for index, worker in pending.items():
                worker.send(tasks[index])
            deadline = None if timeout_s is None else time.monotonic() + timeout_s
            results: List[Any] = [None] * len(tasks)
            while pending:
                remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
                for event in supervised.wait(list(pending.values()), remaining):
                    if event.died:
                        raise WorkerCrashError(
                            f"worker pid {event.worker.pid} died mid-dispatch "
                            f"(exit code {event.worker.exitcode})"
                        )
                    status, value = event.message
                    if status == "error":
                        raise value
                    results[event.worker.key] = value
                    del pending[event.worker.key]
            return results
        except BaseException:
            _stop_workers(self._resources)
            raise

    def _dispatch(
        self,
        op: str,
        model: Sequential,
        x: np.ndarray,
        options: Any = None,
        per_shard_options: Optional[Sequence[Any]] = None,
    ) -> Tuple[List[Any], List[Tuple[int, int]]]:
        """Run ``op`` over balanced shards of ``x``; returns (results, bounds)."""
        if x.shape[0] == 0:
            raise ValueError("cannot execute an empty batch")
        digest, model_shm, model_size = self._publish(model)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        xc = np.ascontiguousarray(x)
        batch_shm = shared_memory.SharedMemory(create=True, size=max(1, xc.nbytes))
        try:
            np.ndarray(xc.shape, dtype=xc.dtype, buffer=batch_shm.buf)[:] = xc
            tasks = [
                (
                    op,
                    digest,
                    model_shm,
                    model_size,
                    batch_shm.name,
                    xc.shape,
                    xc.dtype.str,
                    start,
                    stop,
                    per_shard_options[i] if per_shard_options is not None else options,
                )
                for i, (start, stop) in enumerate(bounds)
            ]
            results = self._supervised_run(op, tasks)
        finally:
            batch_shm.close()
            batch_shm.unlink()
        return results, bounds

    def _supervised_run(self, op: str, tasks: List[tuple]) -> list:
        """Execute ``tasks`` on the workers, respawning + requeueing on failure."""
        policy = self.fault_policy
        attempts = 0
        while True:
            if inject.active():
                fault = inject.check("parallel.dispatch", op=op)
                if fault is not None:
                    self._apply_injected_fault(fault)
            try:
                return self._run_shards(tasks, policy.dispatch_timeout_s)
            except Exception as exc:
                # the failed dispatch already reaped its workers; the next
                # attempt starts fresh ones, which rebuild their model caches
                # lazily from the still-published segments
                if not is_transient(exc):
                    raise
                self._stats.restarts += 1
                if attempts >= policy.max_retries:
                    logger.warning("giving up after %d attempts: %s", attempts + 1, exc)
                    raise
                attempts += 1
                logger.warning("respawning workers for %d shard(s): %s", len(tasks), exc)
                time.sleep(policy.backoff_delay(attempts, key=f"parallel.{op}"))

    # -- batched primitives --------------------------------------------------
    def forward(self, model: Sequential, x: np.ndarray) -> np.ndarray:
        results, _ = self._dispatch("forward", model, x)
        return np.concatenate(results, axis=0)

    def forward_collect(self, model: Sequential, x: np.ndarray) -> List[np.ndarray]:
        results, _ = self._dispatch("forward_collect", model, x)
        # results: one list of per-layer outputs per shard -> concat per layer
        return [np.concatenate(parts, axis=0) for parts in zip(*results)]

    def output_gradients(
        self, model: Sequential, x: np.ndarray, scalarization: str
    ) -> np.ndarray:
        results, _ = self._dispatch("output_gradients", model, x, scalarization)
        return np.concatenate(results, axis=0)

    def packed_masks(
        self, model: Sequential, x: np.ndarray, scalarization: str, epsilon: float
    ) -> np.ndarray:
        # thresholding + packing happen inside the workers: each shard ships
        # back ceil(P/64) uint64 words per sample instead of P float64
        # gradients — a 64x smaller result pickle
        results, _ = self._dispatch(
            "packed_masks", model, x, (scalarization, float(epsilon))
        )
        return np.concatenate(results, axis=0)

    def packed_neuron_masks(
        self,
        model: Sequential,
        x: np.ndarray,
        threshold: float,
        layer_indices: Tuple[int, ...],
    ) -> np.ndarray:
        results, _ = self._dispatch(
            "packed_neuron_masks", model, x, (float(threshold), tuple(layer_indices))
        )
        return np.concatenate(results, axis=0)

    def input_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        shard_opts = [(targets[a:b], loss) for a, b in bounds]
        results, bounds = self._dispatch(
            "input_gradients", model, x, per_shard_options=shard_opts
        )
        n = x.shape[0]
        # every built-in loss is a batch mean, so the full-batch value and
        # gradient are the shard results reweighted by shard size
        value = sum(v * (b - a) for (v, _), (a, b) in zip(results, bounds)) / n
        grad = np.concatenate(
            [g * ((b - a) / n) for (_, g), (a, b) in zip(results, bounds)], axis=0
        )
        return float(value), grad

    def loss_parameter_gradients(
        self,
        model: Sequential,
        x: np.ndarray,
        targets: np.ndarray,
        loss: Union[str, Loss],
    ) -> Tuple[float, np.ndarray]:
        targets = np.asarray(targets)
        bounds = self._shard_bounds(x.shape[0], self.workers)
        shard_opts = [(targets[a:b], loss) for a, b in bounds]
        results, bounds = self._dispatch(
            "loss_parameter_gradients", model, x, per_shard_options=shard_opts
        )
        n = x.shape[0]
        value = sum(v * (b - a) for (v, _), (a, b) in zip(results, bounds)) / n
        flat = sum(g * ((b - a) / n) for (_, g), (a, b) in zip(results, bounds))
        return float(value), np.asarray(flat)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ParallelBackend(workers={self.workers})"


__all__ = ["DEFAULT_MAX_PUBLISHED", "ParallelBackend", "default_worker_count"]
