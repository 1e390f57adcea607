"""Benchmark entry point: one workload, one seed, one timed window.

    python3 bench/run.py --workload gadget-teq --seed 1 --seconds 25 --trace 0

Run from the repository root; the program is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics (set-up time, median operation
time, instances per second, peak RSS).  ``--trace 1`` runs every op twice,
untraced and then traced, and prints the per-layer metrics.
The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it stamps the run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from tracing import LAYERS, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"

BACKEND = "python"
SETUP_REPEATS = 7


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def fresh_setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median wall time of a fresh interpreter importing tsol and building the inputs."""
    times = []
    for k in range(SETUP_REPEATS):
        out = workdir / f"setup-{k}"
        out.mkdir()
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--setup-only", str(out)]
        # no timeout: with one, the wait polls in steps of up to 50 ms,
        # which would quantize the measurement
        start = time.perf_counter()
        subprocess.run(argv, check=True)
        times.append(time.perf_counter() - start)
        shutil.rmtree(out)
    return statistics.median(times)


def run_rounds(wl, inputs, record, seconds: float, tracer=None) -> None:
    """Whole rounds over ``inputs`` until the next round would end past ``seconds``.

    With a tracer, each input runs twice in a row, untraced then traced, so
    both halves see the same inputs and the same moments of machine noise.
    """
    modes = (False, True) if tracer else (False,)
    rounds = 0
    start = time.perf_counter()
    while True:
        for i, item in enumerate(inputs):
            for traced in modes:
                with tracer if traced else contextlib.nullcontext():
                    t0 = time.perf_counter_ns()
                    try:
                        out = wl.op(item)
                    except (Exception, SystemExit):
                        traceback.print_exc(file=sys.stderr)
                        out = None
                    ns = time.perf_counter_ns() - t0
                record(traced, i, ns, out)
        rounds += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / rounds > seconds:
            return


class Record:
    """Per-op durations and outputs of a run."""

    def __init__(self) -> None:
        self.ns: list[int] = []
        self.outputs: list[tuple[int, object]] = []
        self.failed = 0

    def add(self, i: int, ns: int, out) -> None:
        self.ns.append(ns)
        if out is None:
            self.failed += 1
        else:
            self.outputs.append((i, out))


def round_rate(ns: list[int], per_round: int, instances_per_op: int) -> float:
    """Median over rounds of instances per second of op time.

    A median over rounds, rather than all ops over the window, keeps a
    burst of machine noise inside one round from moving the figure.
    """
    sums = [sum(ns[k:k + per_round]) for k in range(0, len(ns), per_round)]
    return per_round * instances_per_op / (statistics.median(sums) / 1e9)


def end_to_end(wl, inputs, seed, seconds, workdir):
    setup_s = fresh_setup_seconds(wl.name, seed, workdir)
    rec = Record()
    start = time.perf_counter()
    run_rounds(wl, inputs, lambda traced, i, ns, out: rec.add(i, ns, out), seconds)
    window = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(rec.ns)
    metrics = {
        "setup_s": (setup_s, "s"),
        "op_ms_p50": (statistics.median(rec.ns) / 1e6, "ms"),
        "inst_per_s": (round_rate(rec.ns, len(inputs), wl.instances_per_op), "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"ops": n, "window_s": window, "ops_per_s": n / window}
    if n >= 100:
        info["op_ms_p90"] = statistics.quantiles(rec.ns, n=10)[-1] / 1e6
    return rec, metrics, info


def per_layer(wl, inputs, seconds, setup_tracer):
    tracer = Tracer()
    rec = Record()
    halves: dict[bool, list[int]] = {False: [], True: []}

    def record(traced, i, ns, out):
        rec.add(i, ns, out)
        halves[traced].append(ns)

    run_rounds(wl, inputs, record, seconds, tracer)
    plain, traced = halves[False], halves[True]
    units = len(traced) * wl.instances_per_op
    metrics = {}
    for layer in LAYERS:
        if layer != "reductions.gadget":
            metrics[layer + "_us"] = (tracer.self_ns[layer] / units / 1e3, "us")
    # gadget-teq builds its gadgets in set-up, so this one is per gadget built
    gadget_ns = tracer.self_ns["reductions.gadget"] + setup_tracer.self_ns["reductions.gadget"]
    gadgets = tracer.calls["reductions.gadget"] + setup_tracer.calls["reductions.gadget"]
    metrics["reductions.gadget_us"] = (gadget_ns / gadgets / 1e3 if gadgets else 0.0, "us")
    metrics["kernel.teq_calls"] = (tracer.teq_calls / units, "count")
    metrics["kernel.teq_subsets"] = (tracer.teq_subsets / units, "count")
    hit = 1 - tracer.teq_subsets / tracer.teq_calls if tracer.teq_calls else 0.0
    metrics["kernel.memo_hit_ratio"] = (hit, "ratio")
    traced_p50 = statistics.median(traced) / 1e6
    plain_p50 = statistics.median(plain) / 1e6
    metrics["trace.op_ms_p50"] = (traced_p50, "ms")
    metrics["trace.untraced_op_ms_p50"] = (plain_p50, "ms")
    metrics["trace.overhead_pct"] = ((traced_p50 / plain_p50 - 1) * 100, "%")
    metrics["trace.op_mean_us"] = (sum(traced) / units / 1e3, "us")
    unattributed = (sum(traced) - tracer.root_ns()) / units / 1e3
    metrics["trace.unattributed_us"] = (unattributed, "us")
    return rec, metrics, {"ops": len(rec.ns), "traced_ops": len(traced), "units": units}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tsol" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}/tsol; run from a full checkout",
              file=sys.stderr)
        return 2
    # pin the pure kernel before tsol reads the variable at import
    os.environ["TSOL_BACKEND"] = BACKEND
    sys.path.insert(0, str(SRC))

    if args.setup_only:
        from workloads import WORKLOADS

        WORKLOADS[args.workload].setup(args.seed, Path(args.setup_only))
        return 0

    import tsol
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not Path(tsol.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: tsol imported from {tsol.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK))
    try:
        if args.trace:
            with Tracer() as setup_tracer:
                inputs = wl.setup(args.seed, workdir)
            rec, metrics, info = per_layer(wl, inputs, args.seconds, setup_tracer)
        else:
            inputs = wl.setup(args.seed, workdir)
            rec, metrics, info = end_to_end(wl, inputs, args.seed, args.seconds, workdir)
        errors = wl.check(args.seed, inputs, rec.outputs)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for e in errors[:5]:
        print(f"check failed: {e}", file=sys.stderr)
    stamp = {
        "workload": wl.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": tsol.backend_name(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "distinct_inputs": len(inputs),
        **info,
    }
    print(json.dumps({"stamp": stamp}))
    result = {
        "correct": not errors,
        "attempted": len(rec.ns),
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
