"""Central extensions by element arithmetic, kept as the oracle for the library's.

``total_table`` builds the multiplication table of an extension's total
group one product at a time, (a, h)(b, k) = (ab, h + k + f(a, b)), adding
kernel elements through ``GroupElement``; ``first_cocycle_failure`` tests
the cocycle law f(a, b) + f(ab, c) = f(b, c) + f(a, bc) the same way, in
(a, b, c) order.  The library's ``CentralExtension`` works on kernel
indices; both must agree.

``giraud_obstruction`` and ``lift_transitions`` lift each triangle's
three edges one by one, the reversed edge through the total group's
inverse, and read the transitions and the witness through ``value``;
the library lifts each canonical edge once and works on the tables.
"""

from __future__ import annotations

from cechlift.cochains import Cochain, is_coboundary
from cechlift.tower import TransitionCocycle, obstruction_class


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


# ---------------------------------------------------------------------------
# lifts of transitions, one product at a time
# ---------------------------------------------------------------------------


def lift_value(g, ext, twist, i, j):
    """The chosen lift of g_ij: s(g_ij) * embed(twist(g_ij)) for i < j, and
    the inverse in the total group of the lift of g_ji for i > j."""
    if i < j:
        a = g.value(i, j)
        h = twist(a) if twist else None
        return ext.with_kernel_offset(a, h) if h is not None else ext.section(a)
    return ext.total.inv(lift_value(g, ext, twist, j, i))


def giraud_obstruction(g, ext, section_twist=None):
    """c_ijk = ker(g~_ki g~_ij g~_jk), three lifts and two products per
    triangle, in the validating ``Cochain``."""
    total = ext.total
    values = {}
    for (i, j, k) in g.nerve.simplices_of_dim(2):
        t = total.mul(
            total.mul(lift_value(g, ext, section_twist, k, i), lift_value(g, ext, section_twist, i, j)),
            lift_value(g, ext, section_twist, j, k),
        )
        values[(i, j, k)] = ext.kernel_part(t)
    return Cochain(g.nerve, 2, ext.kernel, values)


def lift_transitions(g, ext, witness_shift=None):
    """The class of the oracle's Giraud cocycle when it is not a coboundary,
    else the lift s(g_ij) * embed(-y_ij) read through ``value``."""
    c = giraud_obstruction(g, ext)
    y = is_coboundary(c)
    if y is None:
        return obstruction_class(c)
    if witness_shift is not None:
        y = y + witness_shift
    lifted = {
        (i, j): ext.with_kernel_offset(g.value(i, j), -y.value((i, j)))
        for (i, j) in g.nerve.simplices_of_dim(1)
    }
    return TransitionCocycle(g.nerve, ext.total, lifted)


def first_transition_failure(nerve_, group, g):
    """The first nerve triangle, in sorted order, on which the transitions
    g (a {canonical edge: element} map) break g_ij g_jk = g_ik, or None."""
    def value(i, j):
        return g.get((i, j), group.identity)

    for (i, j, k) in nerve_.simplices_of_dim(2):
        if group.mul(value(i, j), value(j, k)) != value(i, k):
            return (i, j, k)
    return None
