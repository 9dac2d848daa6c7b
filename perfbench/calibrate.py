"""Host-speed calibration: a fixed pure-Python kernel timed next to the work.

The benchmark runs on a shared host whose speed changes in spells that can
outlast a whole run: a fixed loop ran 1.4 times slower for tens of seconds at
a time.  Best-of-repeats cannot remove a spell that covers every repeat, so
the timed work is put next to a kernel that does not touch ``balg`` and whose
cost never changes, and every measured time is scaled by
``REF_SECONDS / (the kernel's time nearby)``.  A reported time is then the
time the work takes on a host where the kernel takes ``REF_SECONDS``, close
to this host's own speed; a change to ``balg`` moves it, a spell of the host
does not.

The kernel mixes what ``balg`` spends its time on: small frozensets, tuple
keys in dicts, method calls on slotted objects, sorting and string building.
"""

from __future__ import annotations

import statistics
import time

REF_SECONDS = 1e-3  # the kernel's time at the reference speed
NEIGHBOURS = 3  # kernel samples taken on each side of a timed operation


class _Cell:
    __slots__ = ("key", "items")

    def __init__(self, key: int, items: frozenset):
        self.key = key
        self.items = items

    def meet(self, other: "_Cell") -> "_Cell":
        return _Cell(self.key ^ other.key, self.items & other.items)


_SETS = tuple(frozenset(range(i % 13, i % 13 + 9)) for i in range(64))


def kernel() -> int:
    """A fixed piece of interpreter work, about a millisecond long."""
    cells = [_Cell(i, s) for i, s in enumerate(_SETS)]
    counts: dict[tuple[int, int], int] = {}
    for a in cells[:24]:
        for b in cells[40:]:
            c = a.meet(b)
            key = (c.key, len(c.items))
            counts[key] = counts.get(key, 0) + 1
    parts = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    text = ",".join(f"{k[0]}:{k[1]}={v}" for k, v in parts)
    return len(text.split(",")) + sum(len(s | t) for s, t in zip(_SETS, _SETS[1:]))


def kernel_seconds() -> float:
    """One timed run of the kernel."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def scale(samples: list[float], k: int) -> float:
    """The factor for operation ``k`` of a sequence in which ``samples[k]``
    was taken just before it and ``samples[k + 1]`` just after.

    The median of the NEIGHBOURS samples on each side follows a spell of the
    host but not one interrupted kernel run."""
    near = samples[max(0, k + 1 - NEIGHBOURS):k + 1 + NEIGHBOURS]
    return REF_SECONDS / statistics.median(near)
