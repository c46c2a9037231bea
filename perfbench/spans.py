"""Outside-in span recorder for adalab's layers.

The recorder wraps public functions and methods from outside the package.
``attack``, ``bounds`` and ``harness`` import names directly
(``from .core import true_mean``), so a function is replaced at every
``adalab.*`` module binding that holds it, not only where it is defined.
Spans (name, start, end, parent) are kept in memory while the recorder is
installed and written out once, when the benchmark ends.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One traced callable.

    ``path`` is ``name`` or ``Class.name`` inside ``module``; a property is
    traced through its getter. ``label`` appends a suffix taken from the
    call's arguments to the span name. ``count`` names a counter and the
    function that reads how much work one call does from its arguments.
    """

    module: str
    path: str
    span: str
    label: Callable | None = None
    count: tuple[str, Callable] | None = None


def _override_entries(args, kwargs) -> int:
    overrides = args[2] if len(args) > 2 else kwargs.get("overrides")
    return len(overrides or ())


def _element_count(args, kwargs) -> int:
    elements = args[1] if len(args) > 1 else kwargs["elements"]
    return int(getattr(elements, "size", len(elements)))


# The layer boundaries the benchmark reports; see BENCHMARK.json per_layer.
TARGETS = (
    Target("adalab.core", "Query.__init__", "core.Query", count=("core.Query.entries", _override_entries)),
    Target("adalab.core", "Query.values_at", "core.values_at", count=("core.values_at.elements", _element_count)),
    Target("adalab.core", "empirical_mean", "core.empirical_mean"),
    Target("adalab.core", "true_mean", "core.true_mean"),
    Target("adalab.attack", "info_round", "attack.info_round"),
    Target("adalab.attack", "make_info_query", "attack.make_info_query"),
    Target("adalab.attack", "run_score_attack", "attack.run_score_attack"),
    Target("adalab.attack", "InfoRoundAnalyst.next_query", "attack.next_query"),
    Target("adalab.attack", "build_hard_instance", "attack.build_hard_instance"),
    Target("adalab.attack", "HardInstance.distribution", "attack.distribution"),
    Target("adalab.mechanisms", "answer", "mechanisms.answer", label=lambda args: args[0].kind.name),
    Target("adalab.mechanisms", "sample_noise", "mechanisms.sample_noise"),
    Target("adalab.mechanisms", "quantize", "mechanisms.quantize"),
    Target("adalab.mechanisms", "noise_cdf", "mechanisms.noise_cdf"),
    Target("adalab.mechanisms", "answer_probability", "mechanisms.answer_probability"),
    Target("adalab.bounds", "run_llr_experiment", "bounds.run_llr_experiment"),
    Target("adalab.harness", "derive_rng", "harness.derive_rng"),
    Target("adalab.harness", "derive_entropy", "harness.derive_entropy"),
    Target("adalab.harness", "run_experiment", "harness.run_experiment"),
)


class SpanRecorder:
    """Records spans around the targets while installed (``with recorder:``).

    Spans accumulate across installs, so one recorder can trace several
    separate stretches of a run. Only the installing thread's calls are
    expected; worker processes keep their own copies, which are dropped.
    """

    def __init__(self, targets=TARGETS):
        self.targets = tuple(targets)
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "SpanRecorder":
        self.missing = []
        for target in self.targets:
            self._install(target)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _install(self, target: Target) -> None:
        module = sys.modules.get(target.module)
        owner_name, _, attr = target.path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{target.module}.{target.path}")
            return
        if isinstance(original, property):
            wrapped = property(self._wrap(original.fget, target), original.fset, original.fdel, original.__doc__)
            self._patch(owner, attr, wrapped)
        elif owner_name:
            self._patch(owner, attr, self._wrap(original, target))
        else:
            wrapper = self._wrap(original, target)
            for name, mod in list(sys.modules.items()):
                if name != "adalab" and not name.startswith("adalab."):
                    continue
                for binding, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, binding, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, target: Target):
        spans, stack, counts, clock = self.spans, self._stack, self.counts, time.perf_counter
        label, count = target.label, target.count

        def traced(*args, **kwargs):
            name = target.span if label is None else f"{target.span}.{label(args)}"
            if count is not None:
                counts[count[0]] += count[1](args, kwargs)
            index = len(spans)
            spans.append((name, 0.0, 0.0, stack[-1] if stack else -1))
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, spans[index][3])

        return functools.wraps(fn)(traced)

    def calls(self) -> dict[str, int]:
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out

    def write(self, path) -> None:
        """Write the spans as gzipped JSON: a name table and index rows."""
        names = sorted({span[0] for span in self.spans})
        index = {name: i for i, name in enumerate(names)}
        rows = [[index[name], start, end, parent] for name, start, end, parent in self.spans]
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump({"names": names, "columns": ["name", "start", "end", "parent"], "spans": rows}, handle)


def self_times(spans) -> dict[str, float]:
    """Per name: span durations minus their direct children's durations.

    ``spans`` holds (name, start, end, parent) rows where ``parent`` is the
    row index of the enclosing span, or -1. The recorder's spans nest on
    one thread's stack, so children lie inside their parent and never
    overlap one another.
    """
    totals: dict[str, float] = defaultdict(float)
    for name, start, end, parent in spans:
        totals[name] += end - start
        if parent >= 0:
            totals[spans[parent][0]] -= end - start
    return totals
