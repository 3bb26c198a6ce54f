"""Benchmark entry point.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper_mnist --seed 1 --seconds 20 --trace 0

Workloads and metrics are declared in ``BENCHMARK.json``; ``perfbench/NOTES.md``
explains each one.  The run sets up ``SETUP_REPEATS`` times (``setup_s`` is the
median of fresh-interpreter import time plus set-up), measures for ``--seconds``, checks the
program's outputs, prints every figure by name with its unit, and ends with one
JSON line: the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).  Files go to ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import os
import sys
import time

STARTED = time.perf_counter()

#: BLAS threads per process, pinned before numpy loads (at most nproc)
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

WORKLOADS = {
    "paper_mnist": "paper",
    "paper_cifar": "paper",
    "serve_mixed": "serve_mixed",
    "campaign_matrix": "campaign_matrix",
}
SETUP_REPEATS = 3
_IMPORT_PROBE = (
    "import importlib, sys, time\n"
    "started = time.perf_counter()\n"
    "for name in sys.argv[1:]:\n"
    "    importlib.import_module(name)\n"
    "print(time.perf_counter() - started)\n"
)


def import_seconds(modules, env) -> float:
    """Time to import ``modules`` in a fresh interpreter."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *modules],
        env=env,
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return float(probe.stdout.strip().splitlines()[-1])


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(
            f"no repro sources under {root / 'src'}; run from the repository root",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    out = root / ".perfbench"
    scratch = out / "tmp"
    scratch.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch)
    tempfile.tempdir = str(scratch)
    sys.path.insert(0, str(root / "src"))

    from common import Context, host_record, median, peak_rss_mb, python_env

    module = importlib.import_module(WORKLOADS[args.workload])
    for name in module.PRELOAD:
        importlib.import_module(name)
    import_s = time.perf_counter() - STARTED
    env = python_env(root)

    ctx = Context(
        root=root,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        out=out,
    )
    setups = []
    state = None
    for _ in range(SETUP_REPEATS):
        if state is not None:
            module.teardown(state)
        imports = import_seconds(module.PRELOAD, env)
        started = time.perf_counter()
        state = module.setup(ctx)
        setups.append(imports + time.perf_counter() - started)
    setup_s = median(setups)

    recorder = None
    if args.trace:
        from spans import SpanRecorder

        recorder = SpanRecorder()
    try:
        metrics = module.measure(ctx, state, recorder)
    finally:
        module.teardown(state)
    metrics["setup_s"] = setup_s
    metrics["peak_rss_mb"] = peak_rss_mb()

    ctx.note("setup_s", setup_s, "s")
    ctx.note("peak_rss_mb", metrics["peak_rss_mb"], "MB")
    ctx.note("error_rate", ctx.failed / max(ctx.attempted, 1), "ratio")
    host = host_record(BLAS_THREADS)

    if recorder is not None:
        from spans import layer_metrics

        layers = {m["name"]: 0.0 for m in spec["per_layer"]}
        layers.update(layer_metrics(recorder))
        layers.update(ctx.layers)
        trace_path = out / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        recorder.write(trace_path)
        print(f"spans: {len(recorder.spans)} written to {trace_path}")
        chosen = {m["name"]: (layers[m["name"]], m["unit"]) for m in spec["per_layer"]}
    else:
        chosen = {m["name"]: (metrics[m["name"]], m["unit"]) for m in spec["end_to_end"]}

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    print(
        f"setup repeats (s): {', '.join(f'{s:.3f}' for s in setups)}; "
        f"this process reached its first set-up after {import_s:.3f} s"
    )
    for name, ok, detail in ctx.checks:
        failure = f" [{detail}]" if not ok and detail else ""
        print(f"check {'PASS' if ok else 'FAIL'} {name}{failure}")
    for name, (value, unit) in ctx.report.items():
        print(f"{name} = {value:.6g} {unit}")
    for name, (value, unit) in chosen.items():
        print(f"metric {name} = {value:.6g} {unit}")

    result = {
        "correct": ctx.correct,
        "attempted": max(ctx.attempted, 1),
        "failed": ctx.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()},
    }
    results_dir = out / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(
            {
                **result,
                "host": host,
                "report": {k: {"value": v, "unit": u} for k, (v, u) in ctx.report.items()},
                "layers": ctx.layers,
                "checks": [list(c) for c in ctx.checks],
            },
            indent=1,
        ),
        encoding="utf-8",
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
