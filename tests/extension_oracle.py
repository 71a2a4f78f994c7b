"""Central extensions by element arithmetic, kept as the oracle for the library's.

``total_table`` builds the multiplication table of an extension's total
group one product at a time, (a, h)(b, k) = (ab, h + k + f(a, b)), adding
kernel elements through ``GroupElement``; ``first_cocycle_failure`` tests
the cocycle law f(a, b) + f(ab, c) = f(b, c) + f(a, bc) the same way, in
(a, b, c) order.  The library's ``CentralExtension`` works on kernel
indices; both must agree.
"""

from __future__ import annotations


def total_table(ext):
    """The total table, on indices a * |kernel| + (index of h)."""
    n = ext.base.order
    elements = list(ext.kernel.elements())
    index = {h.coords: i for i, h in enumerate(elements)}
    k = len(elements)
    table = [[0] * (n * k) for _ in range(n * k)]
    for a in range(n):
        for hi, h in enumerate(elements):
            for b in range(n):
                for ki, kk in enumerate(elements):
                    value = h + kk + ext.factor_set[a][b]
                    table[a * k + hi][b * k + ki] = ext.base.mul(a, b) * k + index[value.coords]
    return tuple(tuple(row) for row in table)


def first_cocycle_failure(base, factor_set):
    """The first (a, b, c) where the cocycle law fails, or None."""
    n = base.order
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = factor_set[a][b] + factor_set[base.mul(a, b)][c]
                rhs = factor_set[b][c] + factor_set[a][base.mul(b, c)]
                if lhs != rhs:
                    return (a, b, c)
    return None
