"""Per-layer self time, measured by wrapping module attributes of ``tsol``.

No program code changes: while a ``Tracer`` is entered, each function in
``SPANS`` is replaced, in the module namespace its callers look it up in,
by a wrapper that times the call.  A layer's self time is its calls'
duration minus the time spent in wrapped calls nested inside them, so the
self times of all layers add up to the time of the outermost wrapped call.
A wrapped call made from inside a kernel call is not split out: kernel
layers keep their helpers (``banks_set_masks`` calling
``banks_member_masks``) in their own self time.
"""

from __future__ import annotations

import importlib
from collections import defaultdict
from time import perf_counter_ns

# (module, attribute, layer).  Callers look these names up at call time
# in the listed module, so replacing the attribute there intercepts them.
SPANS = (
    ("tsol.cli", "main", "cli.self"),
    ("tsol.cli", "parse_tournament", "core.parse"),
    ("tsol.cli", "parse_dimacs", "reductions.parse_dimacs"),
    ("tsol.cli", "teq_exact", "teq.pack"),
    ("tsol.cli", "verify_banks_reduction", "verification.verify_self"),
    ("tsol.teq", "teq_exact", "teq.pack"),
    ("tsol.reductions", "teq_gadget", "reductions.gadget"),
    ("tsol.verification", "sweep", "verification.sweep_self"),
    ("tsol.verification", "tournament_from_bits", "core.from_bits"),
    ("tsol.verification", "sat_brute_force", "verification.sat"),
    ("tsol.verification", "consistent_choice_set", "verification.choice"),
    ("tsol.verification", "banks_gadget", "reductions.gadget"),
    ("tsol.verification", "banks_member", "banks.self"),
    ("tsol._pykernel", "teq_exact_masks", "kernel.teq_exact"),
    ("tsol._pykernel", "teq_heuristic_masks", "kernel.teq_heuristic"),
    ("tsol._pykernel", "banks_set_masks", "kernel.banks_set"),
    ("tsol._pykernel", "banks_member_masks", "kernel.banks_member"),
    ("tsol._pykernel", "scc_count_masks", "kernel.scc_count"),
)

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in SPANS))


class Tracer:
    """Accumulates self time and calls per layer, plus exact-TEQ kernel counts."""

    def __init__(self) -> None:
        self.self_ns: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.teq_calls = 0
        self.teq_subsets = 0
        self._child_ns = [0]
        self._in_kernel = False
        self._patches = []
        for module_name, attr, layer in SPANS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original, self._wrap(original, layer)))

    def __enter__(self) -> "Tracer":
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def root_ns(self) -> int:
        """Time spent inside outermost wrapped calls; equals the sum of self times."""
        return self._child_ns[0]

    def _wrap(self, fn, layer: str):
        kernel = layer.startswith("kernel.")
        counts = layer == "kernel.teq_exact"

        def wrapper(*args, **kwargs):
            if self._in_kernel:
                return fn(*args, **kwargs)
            stack = self._child_ns
            stack.append(0)
            self._in_kernel = kernel
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter_ns() - start
                self._in_kernel = False
                child = stack.pop()
                stack[-1] += elapsed
                self.self_ns[layer] += elapsed - child
                self.calls[layer] += 1
            if counts:
                self.teq_calls += out[2]
                self.teq_subsets += out[3]
            return out

        return wrapper
