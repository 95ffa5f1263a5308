"""Spans around the calls into the tagspot modules, recorded from outside.

The traced run rebinds each public function under the name its caller
looks it up by (``tagspot.cli.spot_report``, ``tagspot.detector.fold_spectrum``
and so on) and restores the originals afterwards, so no file of the package
changes. Every span records its name, start, end and parent; spans stay in
memory until the run ends. A span's self time is its duration minus the
time its direct children cover.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: "list[list]" = []
        self.counts: "dict[str, int]" = defaultdict(int)
        self._stack: "list[int]" = []
        self._saved: "list[tuple[object, str, object]]" = []

    def _wrap(self, name: str, fn, observe):
        spans, stack, counts = self.spans, self._stack, self.counts

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result).items():
                    counts[key] += value
            return result

        return traced

    def install(self, patches) -> None:
        """patches: (module, attribute, span name, observer or None)."""
        for module, attr, name, observe in patches:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(name, original, observe))

    def restore(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self) -> "tuple[dict[str, dict[str, float]], float]":
        """Per span name: calls, total seconds and self seconds. Also the
        largest excess of a span's children's summed self time over the
        span's own duration, which is never positive when the nesting is
        recorded correctly."""
        spans = self.spans
        duration = [s[2] - s[1] for s in spans]
        child_time = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_time[s[3]] += duration[i]
        self_time = [d - c for d, c in zip(duration, child_time)]
        child_self = [0.0] * len(spans)
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child_self[s[3]] += self_time[i]
        out: "dict[str, dict[str, float]]" = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0}
        )
        for i, s in enumerate(spans):
            row = out[s[0]]
            row["calls"] += 1
            row["s"] += duration[i]
            row["self_s"] += self_time[i]
        excess = max(
            (cs - d for cs, d in zip(child_self, duration)), default=0.0
        )
        return dict(out), excess
