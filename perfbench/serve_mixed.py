"""``serve_mixed``: validates and remote verify sessions against a serve process.

Set-up releases (at the pinned ``RELEASE_SEED``) a 30-test v3 package
(Algorithm 1 selection, per-test discrimination scores) for the MNIST and
the CIFAR model, saves the intact model plus SBA, GDA and random-perturbation
copies of each, computes every pair's in-process ``validate_ip`` verdict, and
starts ``python -m repro serve`` on loopback (or, for a traced run, the
benchmark's launcher, which records server-side spans).  This process is the
only client and keeps at most ``nproc`` connections open.  ``--seed`` drives
the attacked copies, the arrival times and the order of the (package, model)
pairs, which cycle through every pair once per shuffled round.

The window of ``--seconds`` is cut into cycles of about ``CYCLE_S``; each
cycle runs every phase, as shares of the cycle (``SHARES``):

1. open loop: Poisson validates at the reference rate, then at each other
   rate of ``RATES``; latency counts from when a request was due;
2. closed loop: ``nproc`` connections validate back to back (capacity);
3. closed loop: sequential ``RemoteModel`` verify sessions over ``/v1/query``.

Each figure pools its samples over all cycles, so every one of them spans
the whole window rather than one slice of it: the shared host's speed
changes over tens of seconds, and a phase timed in one block of the window
takes on whatever speed that block had.

The gated time figures are CPU time of the serve process (``/proc``): per
validate at the reference rate, and validates per CPU-second in the closed
loop.  On a few shared cores, client-observed latency is mostly the wait for
a core between the client, the event loop and the worker threads: in five
runs of the same code on a busy host the quartiles of the median latency
lay 0.43 of it apart, those of the server's CPU per validate 0.08.  The
wall-clock latencies, tail and capacity are printed on every run next to
them.
"""

from __future__ import annotations

import asyncio
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from common import Context, median, process_cpu_s, python_env, tail

PRELOAD = (
    "repro.api",
    "repro.online",
    "repro.serve.client",
    "repro.validation",
)
DATASETS = ("mnist", "cifar")
ATTACKS = ("sba", "gda", "random")
WIDTH = 0.125
#: the packages stay the same across seeds: their coverage differs widely
#: between trained models, while their replay cost does not
RELEASE_SEED = 0
RELEASE = dict(
    strategy="selection",
    num_tests=30,
    train_size=80,
    test_size=24,
    epochs=2,
    candidate_pool=40,
    measure_discrimination=True,
    discrimination_trials=4,
)
#: open-loop ladder (validates per second).  The first rate is the reference.
#: It is kept low, about a sixth of the closed-loop capacity: near saturation
#: queueing multiplies every swing of the shared host's speed into latency.
RATES = (5.0, 10.0, 20.0, 40.0)
#: tail-latency limit a ladder rate must meet to count towards ``max_rps``
TAIL_LIMIT_MS = 250.0
#: target length of one cycle of the window
CYCLE_S = 7.0
#: shares of a cycle: reference rate, the other rates (split evenly),
#: closed-loop capacity, verify sessions
SHARES = (0.5, 0.15, 0.2, 0.15)
READY_TIMEOUT_S = 60.0


class Pair:
    """One (package, model file) combination and its in-process verdict."""

    def __init__(self, dataset: str, model_file: str, package, expected) -> None:
        self.dataset = dataset
        self.model_file = model_file
        self.package = package
        self.expected = expected  # ValidationReport from validate_ip

    @property
    def tampered(self) -> bool:
        return not self.model_file.endswith("model.npz")

    def wire(self) -> Dict[str, object]:
        from repro.api import ValidateRequest

        return ValidateRequest(
            package=f"{self.dataset}/package.npz",
            model_path=self.model_file,
            arch=self.dataset,
            width_multiplier=WIDTH,
        ).to_wire()


def _release_artifacts(ctx: Context, artifacts: Path) -> List[Pair]:
    from repro.api import ReleaseRequest, RunConfig, Session, ValidateRequest
    from repro.nn.serialization import save_model
    from repro.validation import default_attack_factories, validate_ip

    pairs = []
    with Session(RunConfig(seed=RELEASE_SEED)) as session:
        for dataset in DATASETS:
            released = session.release(
                ReleaseRequest(
                    dataset=dataset, seed=RELEASE_SEED, width_multiplier=WIDTH, **RELEASE
                )
            )
            released.save(artifacts / dataset)
            files = [f"{dataset}/model.npz"]
            factories = default_attack_factories(released.package.tests)
            for k, attack in enumerate(ATTACKS):
                rng = np.random.default_rng([ctx.seed, DATASETS.index(dataset), k])
                tampered = factories[attack](rng).apply(released.model).model
                save_model(tampered, artifacts / dataset / f"{attack}.npz")
                files.append(f"{dataset}/{attack}.npz")
            for name in files:
                request = ValidateRequest(
                    package=str(artifacts / dataset / "package.npz"),
                    model_path=str(artifacts / name),
                    arch=dataset,
                    width_multiplier=WIDTH,
                )
                package = request.resolve_package()
                expected = validate_ip(session.load_ip(request), package)
                pairs.append(Pair(dataset, name, package, expected))
    return pairs


class Server:
    """A serve process on loopback; stdout/stderr go to files."""

    def __init__(self, ctx: Context, artifacts: Path, trace_out: Optional[Path] = None) -> None:
        self.log = artifacts / ("server-traced.log" if trace_out else "server.log")
        self.trace_out = trace_out
        args = ["--port", "0", "--artifacts-root", str(artifacts)]
        if trace_out is None:
            command = [sys.executable, "-m", "repro", "serve", *args]
        else:
            launcher = Path(__file__).resolve().parent / "serve_launcher.py"
            command = [sys.executable, str(launcher), str(trace_out), *args]
        with self.log.open("wb") as log:
            self.process = subprocess.Popen(
                command,
                cwd=ctx.root,
                env=python_env(ctx.root),
                stdout=log,
                stderr=subprocess.STDOUT,
            )
        self.host, self.port = self._wait_ready()

    def _wait_ready(self) -> Tuple[str, int]:
        deadline = time.monotonic() + READY_TIMEOUT_S
        while time.monotonic() < deadline:
            if self.process.poll() is not None:
                break
            for line in self.log.read_text(errors="replace").splitlines():
                if line.startswith("serving on http://"):
                    host, _, port = line.split("http://", 1)[1].strip().rpartition(":")
                    return host, int(port)
            time.sleep(0.01)
        self.stop()
        raise RuntimeError(f"serve process did not become ready; see {self.log}")

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def cpu_s(self) -> float:
        return process_cpu_s(self.process.pid)

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


def setup(ctx: Context) -> Dict[str, object]:
    artifacts = ctx.out / "serve" / f"seed{ctx.seed}"
    shutil.rmtree(artifacts, ignore_errors=True)
    artifacts.mkdir(parents=True)
    pairs = _release_artifacts(ctx, artifacts)
    return {"artifacts": artifacts, "pairs": pairs, "server": Server(ctx, artifacts)}


def teardown(state: Dict[str, object]) -> None:
    state["server"].stop()


# -- phases ---------------------------------------------------------------
class Tally:
    """Client-side outcome counts of HTTP validates."""

    def __init__(self) -> None:
        self.sent = 0
        self.refused = 0
        self.failed = 0
        self.mismatched: List[str] = []


async def _validate(client, pair: Pair, tally: Tally) -> bool:
    from repro.api import ValidationOutcome

    tally.sent += 1
    try:
        status, body = await client.validate(pair.wire())
    except (OSError, asyncio.IncompleteReadError):
        tally.failed += 1
        return False
    if status in (429, 503):
        tally.refused += 1
        return False
    if status != 200:
        tally.failed += 1
        return False
    outcome = ValidationOutcome.from_wire(body)
    expected = pair.expected
    if (
        outcome.passed != expected.passed
        or list(outcome.mismatched_indices) != list(expected.mismatched_indices)
        or float(outcome.max_output_deviation) != float(expected.max_output_deviation)
    ):
        tally.mismatched.append(pair.model_file)
    return True


async def _open_loop(client, order, rate, duration, rng, connections, tally):
    """Poisson arrivals at ``rate``; returns (latencies s, generator lags s)."""
    loop = asyncio.get_running_loop()
    slots = asyncio.Semaphore(connections)
    latencies: List[float] = []
    lags: List[float] = []

    async def one(due: float, pair: Pair) -> None:
        async with slots:
            ok = await _validate(client, pair, tally)
        if ok:
            latencies.append(loop.time() - due)

    tasks = []
    start = loop.time()
    due = start
    while True:
        due += float(rng.exponential(1.0 / rate))
        if due - start > duration:
            break
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        lags.append(max(0.0, loop.time() - due))
        tasks.append(asyncio.create_task(one(due, next(order))))
    await asyncio.gather(*tasks)
    return latencies, lags


async def _closed_loop(client, order, duration, connections, tally) -> Tuple[int, float]:
    loop = asyncio.get_running_loop()
    end = loop.time() + duration
    done = 0

    async def worker() -> None:
        nonlocal done
        while loop.time() < end:
            if await _validate(client, next(order), tally):
                done += 1

    start = loop.time()
    await asyncio.gather(*(worker() for _ in range(connections)))
    return done, loop.time() - start


def schedule(pairs: List[Pair], rng) -> Iterator[Pair]:
    """Every pair once per round, each round in a fresh random order."""
    while True:
        for index in rng.permutation(len(pairs)):
            yield pairs[int(index)]


def _growing(latencies: List[float]) -> bool:
    """Backlog grows when the last third waits far longer than the first.

    Fewer than nine samples (one short step) cannot show a trend.
    """
    if len(latencies) < 9:
        return False
    third = len(latencies) // 3
    return median(latencies[-third:]) > 2.0 * median(latencies[:third]) + 0.02


class Sessions:
    """Sequential verify sessions, pooled over the cycles of a run."""

    def __init__(self, pairs: List[Pair]) -> None:
        self.pairs = pairs
        self.index = 0
        self.walls: List[float] = []
        self.queries: Dict[str, List[int]] = {}
        self.ledger = {"requests": 0, "cache_hits": 0, "retries": 0}
        self.diverged: List[str] = []

    def run(self, server: Server, duration: float) -> None:
        """Verify pairs in turn for ``duration`` seconds; every pair at least once."""
        from repro.online import HttpTransport, OnlineVerifier, RemoteModel

        end = time.perf_counter() + duration
        while time.perf_counter() < end or self.index < len(self.pairs):
            pair = self.pairs[self.index % len(self.pairs)]
            self.index += 1
            remote = RemoteModel(
                HttpTransport(
                    server.url,
                    model_path=pair.model_file,
                    arch=pair.dataset,
                    width_multiplier=WIDTH,
                )
            )
            started = time.perf_counter()
            report = OnlineVerifier(remote, pair.package).verify()
            self.walls.append(time.perf_counter() - started)
            self.queries.setdefault(pair.model_file, []).append(remote.ledger.queries_sent)
            for key in self.ledger:
                self.ledger[key] += getattr(remote.ledger, key)
            if report.detected != pair.expected.detected:
                self.diverged.append(pair.model_file)

    def finish(self, ctx: Context) -> Dict[str, float]:
        ctx.check(
            "every sequential verdict equals full replay",
            not self.diverged,
            ", ".join(sorted(set(self.diverged))),
        )
        ctx.operations(attempted=len(self.walls))
        # mean over pairs, so the figure does not depend on how many
        # sessions of each pair fit the window
        per_pair = [median(sent) for sent in self.queries.values()]
        return {
            "sessions": len(self.walls),
            "verify_p50_ms": median(self.walls) * 1e3,
            "queries_to_decision": sum(per_pair) / len(per_pair),
            "online.queries": sum(sum(sent) for sent in self.queries.values()),
            "online.requests": self.ledger["requests"],
            "online.cache_hits": self.ledger["cache_hits"],
            "online.retries": self.ledger["retries"],
        }


async def _probe(server: Server, pairs, count: int, tally: Tally) -> float:
    """Median latency of ``count`` sequential validates, cycling the pairs."""
    from repro.serve.client import HttpClient

    client = HttpClient(server.host, server.port)
    walls = []
    for i in range(count):
        started = time.perf_counter()
        await _validate(client, pairs[i % len(pairs)], tally)
        walls.append(time.perf_counter() - started)
    return median(walls)


def measure(ctx: Context, state: Dict[str, object], recorder=None) -> Dict[str, float]:
    from repro.serve.client import HttpClient

    pairs: List[Pair] = state["pairs"]
    connections = os.cpu_count() or 1
    tally = Tally()
    if recorder is not None:
        # untraced probe, then the same probe against a traced server
        untraced = asyncio.run(_probe(state["server"], pairs, 40, tally))
        state["server"].stop()
        trace_out = state["artifacts"] / "server-spans.jsonl"
        state["server"] = Server(ctx, state["artifacts"], trace_out)
        traced = asyncio.run(_probe(state["server"], pairs, 40, tally))
        ctx.note("sequential_validate_p50_ms (untraced server)", untraced * 1e3, "ms")
        ctx.layers["trace.overhead_s"] = traced - untraced
    server: Server = state["server"]
    # one untimed round over every pair: the server's first requests pay
    # one-off costs (lazy imports, first allocations) the ladder should not
    asyncio.run(_probe(server, pairs, len(pairs), tally))
    rng = np.random.default_rng([ctx.seed, 7])
    cycles = max(1, round(ctx.seconds / CYCLE_S))
    reference_s, others_s, capacity_s, verify_s = (
        share * ctx.seconds / cycles for share in SHARES
    )
    order = schedule(pairs, rng)
    latencies: Dict[float, List[float]] = {rate: [] for rate in RATES}
    lags: List[float] = []
    growing = set()
    sessions = Sessions(pairs)
    done, elapsed = 0, 0.0
    server_cpu = {"reference": 0.0, "capacity": 0.0}

    async def ladder_then_capacity() -> Tuple[int, float]:
        client = HttpClient(server.host, server.port)
        for rate in RATES:
            step_s = reference_s if rate == RATES[0] else others_s / (len(RATES) - 1)
            cpu_started = server.cpu_s()
            got, late = await _open_loop(client, order, rate, step_s, rng, connections, tally)
            if rate == RATES[0]:
                server_cpu["reference"] += server.cpu_s() - cpu_started
            if _growing(got):
                growing.add(rate)
            latencies[rate].extend(got)
            lags.extend(late)
        cpu_started = server.cpu_s()
        done = await _closed_loop(client, order, capacity_s, connections, tally)
        server_cpu["capacity"] += server.cpu_s() - cpu_started
        return done

    for _ in range(cycles):
        cycle_done, cycle_s = asyncio.run(ladder_then_capacity())
        done += cycle_done
        elapsed += cycle_s
        sessions.run(server, verify_s)
    stats = asyncio.run(HttpClient(server.host, server.port).stats())
    capacity = done / elapsed
    verify = sessions.finish(ctx)

    ctx.check(
        "every HTTP verdict equals in-process validate_ip",
        not tally.mismatched,
        ", ".join(sorted(set(tally.mismatched))),
    )
    ctx.operations(attempted=tally.sent, failed=tally.refused + tally.failed)

    reference = latencies[RATES[0]]
    pct, reference_tail = tail(reference)
    max_rps = 0.0
    for rate, got in latencies.items():
        if got and tail(got)[1] * 1e3 <= TAIL_LIMIT_MS and rate not in growing:
            max_rps = rate
    tampered = [p for p in pairs if p.tampered]
    detected = sum(1 for p in tampered if p.expected.detected) / len(tampered)
    coverage = median([float(p.package.metadata["validation_coverage"]) for p in pairs])

    ctx.note("validate_p50_ms", median(reference) * 1e3, "ms")
    ctx.note(f"validate_tail_ms (p{pct:g}, n={len(reference)})", reference_tail * 1e3, "ms")
    for rate, got in latencies.items():
        ctx.note(f"validate_p50_ms@{rate:g}rps (n={len(got)})", median(got) * 1e3, "ms")
    ctx.note("max_rps", max_rps, "1/s")
    ctx.note("capacity_rps (closed loop)", capacity, "1/s")
    ctx.note("verify_p50_ms", verify["verify_p50_ms"], "ms")
    ctx.note("queries_to_decision", verify["queries_to_decision"], "count")
    ctx.note("verify_sessions", verify["sessions"], "count")
    ctx.note("cycles", cycles, "count")
    cpu_ms_per_validate = server_cpu["reference"] / len(reference) * 1e3
    validates_per_cpu_s = done / server_cpu["capacity"]
    ctx.note("server_cpu_ms_per_validate (reference rate)", cpu_ms_per_validate, "ms")
    ctx.note("validates_per_server_cpu_s (closed loop)", validates_per_cpu_s, "1/s")

    coalescer = stats.get("coalescer", {})
    ctx.layers.update(
        {
            "serve.dispatches": coalescer.get("dispatches", 0),
            "serve.deduped": coalescer.get("deduped", 0),
            "serve.coalesce_hit_rate": coalescer.get("hit_rate", 0.0),
            "serve.refused": tally.refused,
            "serve.failed": tally.failed,
            "serve.generator_lag_ms": median(lags) * 1e3,
            **{k: v for k, v in verify.items() if k.startswith("online.")},
        }
    )
    if recorder is not None:
        server.stop()
        _server_layers(ctx, server.trace_out)
    return {
        "cpu_ms_per_op": cpu_ms_per_validate,
        "ops_per_cpu_s": validates_per_cpu_s,
        "coverage": coverage,
        "detection_rate": detected,
        "queries_per_verdict": verify["queries_to_decision"],
    }


def _server_layers(ctx: Context, path: Path) -> None:
    """Per-layer serve figures from the traced server's spans."""
    import spans

    recorder = spans.load_spans(path)
    submits = recorder.outermost("serve.coalesce_submit")
    dispatches = recorder.outermost("engine.stacked_forward")

    def mean_ms(items) -> float:
        if not items:
            return 0.0
        return sum(end - start for _, _, _, start, end, _ in items) / len(items) * 1e3

    ctx.layers.update(
        {
            "serve.package_load_s": recorder.total_s("serve.package_load"),
            "serve.load_ip_s": recorder.total_s("serve.load_ip"),
            "serve.coalesce_wait_ms": max(0.0, mean_ms(submits) - mean_ms(dispatches)),
            "engine.stacked_forward_s": recorder.total_s("engine.stacked_forward"),
        }
    )
