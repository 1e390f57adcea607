"""The benchmark tracer still finds every program attribute it wraps."""

import sys
from pathlib import Path

import tsol.teq

BENCH = str(Path(__file__).resolve().parents[1] / "bench")
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)

from tracing import Tracer  # noqa: E402


def test_tracer_counts_one_exact_kernel_call(fig1):
    tracer = Tracer()  # looks up every SPANS attribute
    with tracer:
        tsol.teq.teq_exact(fig1)
    assert tracer.calls["kernel.teq_exact"] == 1
    assert tracer.teq_subsets > 0
