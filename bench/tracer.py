"""Spans and counters around wordlen's public calls, for the traced run.

Each traced call is patched at every name its callers look it up by: the
function is replaced in every ``wordlen`` module that binds it (so
``wordlen.verify.minimal_qpt`` is traced as well as
``wordlen.structure.minimal_qpt``), and methods are replaced on their class.
Calls made outside an item span (set-up and output checks) pass through
untraced.

A span is (id, parent id, item id, name, start ns, end ns).  Busy time is
inclusive; self time is busy time minus the time of the traced calls made
inside it.  The high-frequency leaf calls are kept as counters only, so
that the span list stays small; their time still counts against their
parent's self time.
"""

from __future__ import annotations

import itertools
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns

from wordlen import linalg

# Traced name -> statistics reported for it.  ``count`` is the call's own
# counter: letters profiled, independent inserts, contains hits, words
# enumerated.
LAYER_STATS = {
    "words.complexity_profile": ("calls", "busy_s", "letters"),
    "words.factor_count": ("calls", "busy_s"),
    "words.border_array": ("calls", "busy_s"),
    "words.count_distinct_factors": ("calls", "busy_s"),
    "structure.minimal_qpt": ("calls", "busy_s", "self_s"),
    "structure.profile_shape": ("calls", "busy_s", "self_s"),
    "powers.max_factor_exponent": ("calls", "busy_s"),
    "oracles.enumerate_words": ("words", "busy_s"),
    "oracles.naive_profile": ("calls", "busy_s"),
    "verify.sweep_mh": ("self_s",),
    "verify.sweep_tc": ("self_s",),
    "linalg.FMatrix.matmul": ("calls", "busy_s"),
    "linalg.SpanBasis.insert": ("calls", "independent", "busy_s"),
    "linalg.SpanBasis.contains": ("calls", "hits", "busy_s"),
    "linalg.SpanBasis.copy": ("calls", "busy_s"),
    "linalg.min_poly": ("calls", "busy_s"),
    "algebra.length_trace": ("calls", "busy_s", "self_s", "calls_per_set"),
    "algebra.check_liw_complexity": ("busy_s", "self_s"),
    "algebra.check_irreducible_power_free": ("busy_s", "self_s"),
    "algebra.estimate_m_star": ("calls", "busy_s"),
}
UNITS = {"busy_s": "s", "self_s": "s", "calls_per_set": "calls/set"}  # else "count"

# Methods, by traced name: (class, attribute).
METHODS = {
    "linalg.FMatrix.matmul": (linalg.FMatrix, "__matmul__"),
    "linalg.SpanBasis.insert": (linalg.SpanBasis, "insert"),
    "linalg.SpanBasis.contains": (linalg.SpanBasis, "contains"),
    "linalg.SpanBasis.copy": (linalg.SpanBasis, "copy"),
}
GENERATORS = {"oracles.enumerate_words"}
# Counted without a span of their own.
LEAVES = {
    "words.factor_count", "words.border_array", "words.count_distinct_factors",
    "oracles.enumerate_words", *METHODS,
}
# What a call adds to its counter, from its arguments and result.
COUNT = {
    "words.complexity_profile": lambda args, out: len(args[0]),
    "linalg.SpanBasis.insert": lambda args, out: int(out),
    "linalg.SpanBasis.contains": lambda args, out: int(out),
}


def metric_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    return {f"{name}.{stat}": UNITS.get(stat, "count")
            for name, stats in LAYER_STATS.items() for stat in stats}


class Tracer:
    """Records spans and per-call counters in memory while installed."""

    def __init__(self) -> None:
        # name -> [calls, busy ns, self ns, count]
        self.stats = {name: [0, 0, 0, 0] for name in LAYER_STATS}
        self.spans: list[tuple] = []
        self.keep_spans = True
        self._stack: list[list[int]] = []  # open spans: [span id, child ns]
        self._ids = itertools.count()
        self._item = -1
        self._saved: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0, 0, 0]

    @contextmanager
    def item(self, item_id: int):
        """Root span of one item; traced calls inside it are recorded."""
        frame = [next(self._ids), 0]
        self._item = item_id
        self._stack.append(frame)
        start = perf_counter_ns()
        try:
            yield
        finally:
            self._stack.pop()
            if self.keep_spans:
                self.spans.append((frame[0], -1, item_id, "item", start, perf_counter_ns()))

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "wordlen" or n.startswith("wordlen."))]
        for name in LAYER_STATS:
            if name in METHODS:
                owner, attr = METHODS[name]
                self._replace(owner, attr, self._wrap(name, vars(owner)[attr]))
                continue
            module, attr = name.rsplit(".", 1)
            original = getattr(sys.modules[f"wordlen.{module}"], attr)
            wrap = self._wrap_generator if name in GENERATORS else self._wrap
            traced = wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._replace(mod, key, traced)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _replace(self, owner, attr: str, traced) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, traced)

    def _wrap(self, name: str, fn):
        stack, spans, ids, st = self._stack, self.spans, self._ids, self.stats[name]
        count = COUNT.get(name)
        keep = name not in LEAVES

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            frame = [next(ids), 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                busy = end - start
                parent[1] += busy
                st[0] += 1
                st[1] += busy
                st[2] += busy - frame[1]
            if count is not None:
                st[3] += count(args, out)
            if keep and self.keep_spans:
                spans.append((frame[0], parent[0], self._item, name, start, end))
            return out

        return traced

    def _wrap_generator(self, name: str, fn):
        """Time spent inside the generator, per value it yields."""
        stack, st = self._stack, self.stats[name]

        def traced(*args, **kwargs):
            if stack:
                st[0] += 1
            it = fn(*args, **kwargs)
            while True:
                start = perf_counter_ns()
                try:
                    value = next(it)
                    done = False
                except StopIteration:
                    done = True
                busy = perf_counter_ns() - start
                if stack:
                    stack[-1][1] += busy
                    st[1] += busy
                    st[2] += busy
                    st[3] += not done
                if done:
                    return
                yield value

        return traced

    def metrics(self, items: int) -> dict[str, float]:
        """Per-layer values of the calls recorded since the last reset."""
        out = {}
        for name, stats in LAYER_STATS.items():
            calls, busy, self_ns, count = self.stats[name]
            for stat in stats:
                key = f"{name}.{stat}"
                if stat == "calls":
                    out[key] = calls
                elif stat == "busy_s":
                    out[key] = busy / 1e9
                elif stat == "self_s":
                    out[key] = self_ns / 1e9
                elif stat == "calls_per_set":
                    out[key] = calls / items
                else:
                    out[key] = count
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
