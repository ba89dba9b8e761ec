"""Host-speed reference for the benchmark's timings.

On a small shared host the same code can run 40 % slower in one minute
than in the next, and that drift outlasts a run, so medians within a run cannot remove
it.  The benchmark therefore times a fixed kernel next to its work and
reports times in reference seconds: wall seconds multiplied by
NOMINAL_S / (the kernel's time measured next to that work).  On an
unloaded host the two agree.  The kernel is frozen benchmark code, with the
kind of work the workloads do (interpreter loops, substring sets, small
dicts, modular dot products, tuple building), so a change to wordlen never
changes it.
"""

from __future__ import annotations

import random
from time import perf_counter

NOMINAL_S = 0.02  # about the kernel's time on an unloaded 2-core x86-64 host

_rng = random.Random(0)
_SEQ = _rng.randbytes(3000).translate(bytes(i % 3 for i in range(256)))
_ROWS = tuple(tuple(_rng.randrange(10007) for _ in range(10)) for _ in range(10))


def kernel_seconds() -> float:
    """Wall time of one run of the fixed kernel."""
    start = perf_counter()
    acc = 0
    for i in range(150_000):
        acc += i * i % 7
    acc += sum(len({_SEQ[i : i + n] for i in range(len(_SEQ) - n + 1)}) for n in (4, 8, 16, 32))
    nxt: dict[int, dict[int, int]] = {}
    for i, a in enumerate(_SEQ * 3):
        nxt.setdefault(i & 255, {})[a] = i
    cols = tuple(zip(*_ROWS))
    for _ in range(24):
        acc += sum(sum(a * b for a, b in zip(r, c)) % 10007 for r in _ROWS for c in cols)
    acc += len([tuple(_SEQ[i : i + 12]) for i in range(2900)] * 2)
    return perf_counter() - start


class Reference:
    """Kernel timings taken between timed items, at most every `every_s`
    seconds, with one more at the end."""

    def __init__(self, every_s: float) -> None:
        self.every_s = every_s
        self.kernels = [kernel_seconds()]
        self._last = perf_counter()

    def tick(self) -> int:
        """Call before a timed item; returns the index of the kernel timing
        that precedes it."""
        if perf_counter() - self._last >= self.every_s:
            self.kernels.append(kernel_seconds())
            self._last = perf_counter()
        return len(self.kernels) - 1

    def close(self) -> None:
        self.kernels.append(kernel_seconds())

    def factor(self, k: int) -> float:
        """Reference seconds per wall second for an item timed between
        kernel timings k and k + 1."""
        return 2 * NOMINAL_S / (self.kernels[k] + self.kernels[k + 1])
