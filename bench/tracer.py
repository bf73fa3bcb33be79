"""Span tracer that wraps lazyattn's public functions from outside the package.

Each wrapped call is a span. When it closes, its duration minus the time
covered by its child spans (its self time) and its work counts are folded
into a table keyed by (phase, layer, fn). Folding spans as they close keeps
memory flat however long a decode runs. The phase is whatever outermost span
the benchmark opened last (`prefill`, `decode` or `profile`).

Functions are wrapped where the calling module looks them up: kernels as
`lazyattn.runtime` binds them, the profiler's divergence as
`lazyattn.profiler` binds it, cache appends on the `LayerCache` class.
Nothing inside `src/` is changed, and `restore()` puts every original back.
"""

from __future__ import annotations

import time
from collections import defaultdict

_ns = time.perf_counter_ns


def matmul_counts(a, b) -> tuple[int, int, int]:
    """(rows, flops, bytes) of one product; bytes come from operand shapes,
    (m*k + k*n + m*n) * 4, not from a measurement."""
    m, k = a.shape
    n = b.shape[1]
    return m, 2 * m * k * n, (m * k + k * n + m * n) * 4


class Stat:
    __slots__ = ("self_ns", "calls", "rows", "flops", "bytes")

    def __init__(self):
        self.self_ns = 0
        self.calls = 0
        self.rows = 0
        self.flops = 0
        self.bytes = 0


class Tracer:
    def __init__(self):
        self.stats: dict[tuple[str, str, str], Stat] = defaultdict(Stat)
        self.phase = "none"
        # One entry per open span: nanoseconds covered by its closed children.
        self._child_ns: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, phase: str) -> int:
        """Open an outermost span; the benchmark calls this around each call
        into the engine."""
        self.phase = phase
        self._child_ns.append(0)
        return _ns()

    def end(self, start: int, layer: str, fn: str) -> int:
        """Close the span opened by begin(); returns its duration in ns."""
        dur = _ns() - start
        child = self._child_ns.pop()
        self._close(dur, child, layer, fn)
        return dur

    def _close(self, dur: int, child: int, layer: str, fn: str) -> Stat:
        if self._child_ns:
            self._child_ns[-1] += dur
        stat = self.stats[(self.phase, layer, fn)]
        stat.self_ns += dur - child
        stat.calls += 1
        return stat

    def wrap(self, owner, attr: str, layer: str, fn: str, counts=None) -> None:
        """Replace owner.attr by a spanning wrapper. `counts(*args)` returns
        (rows, flops, bytes) of the call, when the layer has such counts."""
        original = getattr(owner, attr)
        child_ns = self._child_ns
        close = self._close

        def traced(*args, **kwargs):
            child_ns.append(0)
            start = _ns()
            try:
                return original(*args, **kwargs)
            finally:
                dur = _ns() - start
                stat = close(dur, child_ns.pop(), layer, fn)
                if counts is not None:
                    rows, flops, nbytes = counts(*args)
                    stat.rows += rows
                    stat.flops += flops
                    stat.bytes += nbytes

        self._originals.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def get(self, phase: str, layer: str, fn: str) -> Stat:
        return self.stats.get((phase, layer, fn)) or Stat()


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics name."""
    from lazyattn import caches, profiler, runtime

    tracer.wrap(runtime, "matmul", "kernels", "matmul", matmul_counts)
    for name in ("masked_softmax_rows", "apply_rope", "rms_norm"):
        tracer.wrap(runtime, name, "kernels", name)
    tracer.wrap(caches.LayerCache, "append_keys", "caches", "append")
    tracer.wrap(caches.LayerCache, "append_values", "caches", "append")
    # profile_model reaches prefill through runtime.prefill_standard; the
    # benchmark's own serving calls hold the unwrapped function.
    tracer.wrap(runtime, "prefill", "runtime", "standard")
    tracer.wrap(profiler, "js_divergence", "profiler", "js_divergence")
    tracer.wrap(profiler.AttentionCapture, "record", "profiler", "capture")
    tracer.wrap(profiler.AttentionSnapshot, "validate", "profiler", "validate")
