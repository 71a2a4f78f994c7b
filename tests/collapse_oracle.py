"""The greedy collapse on simplex tuples, kept as the oracle for the library's.

``greedy_collapse`` keeps a set of remaining cofaces for every simplex,
keyed by the simplex tuple, and removes a pair by slicing the faces of
both cells out of those sets.  The library's ``complexes._greedy_collapse``
runs the same rule on face indices with a coface count and a coface xor
per simplex; both must return the same pairs for the same order, and a
shuffled run must draw the same numbers from its ``random.Random``.
"""

from __future__ import annotations

import heapq


def greedy_collapse(complex_, shuffle=None):
    """The (free face, coface) pairs of a greedy elementary collapse, or None.

    Simplices are tried in (dimension, tuple) order, or in the order
    ``shuffle.shuffle`` makes of it; the smallest free face (a simplex
    with exactly one remaining proper coface, which is then maximal and
    one dimension up) is removed with its coface until none is left.
    The pairs are returned in collapse order when a single vertex
    remains, and None otherwise.
    """
    order = sorted(complex_.simplices, key=lambda s: (len(s), s))
    if shuffle is not None:
        shuffle.shuffle(order)
    rank = {s: i for i, s in enumerate(order)}
    cofaces = {s: set() for s in order}
    for t in order:
        if len(t) > 1:
            for j in range(len(t)):
                cofaces[t[:j] + t[j + 1 :]].add(t)
    free = [rank[s] for s in order if len(cofaces[s]) == 1]
    heapq.heapify(free)
    pairs = []
    while free:
        sigma = order[heapq.heappop(free)]
        if len(cofaces.get(sigma, ())) != 1:
            continue
        (tau,) = cofaces.pop(sigma)
        del cofaces[tau]
        pairs.append((sigma, tau))
        for cell in (tau, sigma):
            for j in range(len(cell)):
                face = cell[:j] + cell[j + 1 :]
                up = cofaces.get(face)
                if up is not None:
                    up.remove(cell)
                    if len(up) == 1:
                        heapq.heappush(free, rank[face])
    return tuple(pairs) if len(cofaces) == 1 else None
