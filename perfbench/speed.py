"""A fixed reference computation that meters how fast the machine runs now.

The benchmark runs on shared hosts whose speed changes while it runs:
when other tenants load the same physical cores, the same pure-Python
code takes up to about 1.8 times as long, in CPU time as well as wall
time, and the host flips between such states within seconds.  Every
timing the benchmark reports is therefore taken in reference seconds:
the measured seconds times ``NOMINAL_S`` over the mean time of this
reference computation, sampled in short bursts in the same process, in
and around the timed span.  On a machine where the reference takes
``NOMINAL_S`` the two agree; where the whole machine is slower, the
slowdown cancels, while a change that makes the library slower or
faster moves the reference seconds by the same share as the raw ones.

The bursts run from a ``SIGALRM`` handler every ``INTERVAL_S`` of wall
time, so long library calls are sampled from inside; the time a handler
takes is subtracted from the span it interrupted.  The reference is
frozen: it touches no library code, and changing it or ``NOMINAL_S``
changes every reported time.
"""

from __future__ import annotations

import signal
from time import perf_counter

#: Time of one ``reference()`` call on the 2-vCPU Intel Xeon VM (Python
#: 3.11) the bounds were set on, in its faster state.
NOMINAL_S = 0.0065
#: Wall time between two bursts.
INTERVAL_S = 0.2
#: Bursts this close to a timed span convert it ...
WINDOW_S = 0.5
#: ... and at least this many of the nearest ones.
NEAREST = 5

_ROWS, _COLS = 50, 60


def _matrix():
    """A fixed sparse 0/+-1 matrix with three nonzeros per column."""
    state = 12345
    cols = []
    for _ in range(_COLS):
        entries = {}
        while len(entries) < 3:
            state = (1103515245 * state + 12345) % 2**31
            entries[state % _ROWS] = 1 if state & 1024 else -1
        cols.append(entries)
    return [[cols[j].get(i, 0) for j in range(_COLS)] for i in range(_ROWS)]


_MATRIX = _matrix()


def reference():
    """Rank of the fixed matrix by fraction-free integer elimination,
    plus the sorted-tuple and dict work the library does on simplices."""
    a = [row[:] for row in _MATRIX]
    rank, prev = 0, 1
    for c in range(_COLS):
        pivot = next((r for r in range(rank, _ROWS) if a[r][c]), None)
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        p = a[rank][c]
        top = a[rank]
        for r in range(rank + 1, _ROWS):
            row, f = a[r], a[r][c]
            a[r] = [(p * x - f * t) // prev for x, t in zip(row, top)]
        prev = p
        rank += 1
    faces = {}
    for j in range(_COLS):
        support = tuple(sorted(i for i in range(_ROWS) if _MATRIX[i][j]))
        for k in range(len(support)):
            face = support[:k] + support[k + 1:]
            faces[face] = faces.get(face, 0) + 1
    return rank, len(faces)


def burst():
    """Seconds one reference call takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0


def trimmed_mean(values):
    """Mean without the lowest and highest tenth (a burst can be cut by
    the scheduler; a span's speed can change halfway)."""
    values = sorted(values)
    cut = len(values) // 10
    kept = values[cut:len(values) - cut]
    return sum(kept) / len(kept)


class Meter:
    """Reference bursts in and around the timed spans of one process.

    Between ``start()`` and ``stop()`` a burst runs every ``INTERVAL_S``
    from a signal handler, and ``stolen`` adds up the seconds the
    handlers took: a span's own time is its perf_counter difference
    minus the growth of ``stolen`` over it.  ``sample()`` takes bursts
    outside any timed span.  ``factor(t0, t1)`` converts seconds of the
    span from ``t0`` to ``t1`` into reference seconds.
    """

    def __init__(self):
        burst()  # warm up the interpreter's specialisation of the reference
        self.samples = []  # (perf_counter after the burst, seconds it took)
        self.stolen = 0.0

    def sample(self, n=1):
        for _ in range(n):
            took = burst()
            self.samples.append((perf_counter(), took))

    def _alarm(self, signum, frame):
        t0 = perf_counter()
        reference()
        t1 = perf_counter()
        self.samples.append((t1, t1 - t0))
        self.stolen += perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self._alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0, t1):
        """Reference seconds per second from ``t0`` to ``t1``: from the
        bursts within ``WINDOW_S`` of that span, at least ``NEAREST``."""
        def distance(sample):
            return max(t0 - sample[0], sample[0] - t1, 0.0)

        near = sorted(self.samples, key=distance)
        window = [took for t, took in near if distance((t, took)) <= WINDOW_S]
        if len(window) < NEAREST:
            window = [took for _, took in near[:NEAREST]]
        return NOMINAL_S / trimmed_mean(window)
