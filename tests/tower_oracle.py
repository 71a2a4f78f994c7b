"""Oracles for the tower: the class-first run and the carry tower by search.

``tower_obstructions`` is the class-first tower run, kept as an oracle
for the library's: each level first builds the Giraud cocycle and reads
its class coordinates; only a zero class goes on to ``lift_transitions``,
which builds the cocycle again and must then lift.  The library decides
each level by one ``lift_transitions`` instead; the entries and the
status must not change.

``z2_tower`` and ``z4_z8_extension`` build the carry tower Z/2 -> Z/4 ->
Z/8 -> ... the long way: each level searches the previous total for a
generator by element orders and walks its powers for a discrete log, and
``z4_z8_extension`` pulls the carry back along the kernel part of each
element.  The library reads each level's log off the one before; the
extensions must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

from cechlift.abelian import FgAbelianGroup
from cechlift.cochains import Cochain, cohomology_classes
from cechlift.errors import GroupMismatch, NotACocycle
from cechlift.tower import (
    CentralExtension,
    ExtensionTower,
    FiniteGroup,
    Obstruction,
    bockstein,
    giraud_obstruction,
    lift_transitions,
)


@dataclass
class OracleEntry:
    level: int
    degree: int
    coefficients: FgAbelianGroup
    cocycle: Cochain
    cohomology: FgAbelianGroup
    coords: tuple


def tower_obstructions(g, tower, witness_shifts=None):
    """(entries, status) of the tower run, deciding each level by its class first."""
    if g.group != tower.extensions[0].base:
        raise GroupMismatch("transitions do not start at the base of the tower")
    witness_shifts = witness_shifts or {}
    nerve_ = g.nerve
    entries = []
    current = g
    blocked = None
    n = len(tower)
    for level in range(1, n + 1):
        ext = tower.extensions[level - 1]
        c = giraud_obstruction(current, ext)
        classes = cohomology_classes(nerve_, ext.kernel, 2)
        coords = classes.class_coords(c)
        if any(coords):
            entries.append(OracleEntry(level, 2, ext.kernel, c, classes.group, coords))
            blocked = level
            break
        lifted = lift_transitions(current, ext, witness_shift=witness_shifts.get(level))
        if isinstance(lifted, Obstruction):
            raise NotACocycle("class vanished but the lift failed")
        zero_classes = cohomology_classes(nerve_, ext.kernel, level + 1)
        entries.append(
            OracleEntry(
                level,
                level + 1,
                ext.kernel,
                Cochain(nerve_, level + 1, ext.kernel),
                zero_classes.group,
                (0,) * zero_classes.group.rank,
            )
        )
        current = lifted
    if blocked is None:
        return entries, ("lifted", n)
    c = entries[-1].cocycle
    for level in range(blocked + 1, n + 1):
        ses = tower.derived_sequence(level - 1)
        c = bockstein(c, ses)
        classes = cohomology_classes(nerve_, ses.A, c.degree)
        entries.append(
            OracleEntry(level, c.degree, ses.A, c, classes.group, classes.class_coords(c))
        )
    return entries, ("blocked", blocked)


def z2_z4_extension():
    """The nonsplit extension of Z/2 by Z/2 with total group Z/4."""
    z2 = FgAbelianGroup((2,))
    zero, one = z2.zero(), z2.element((1,))
    return CentralExtension(FiniteGroup.cyclic(2), z2, ((zero, zero), (zero, one)))


def z4_z8_extension(ext1=None):
    """Extension of the Z/4 total of z2_z4_extension with total Z/8.

    The factor set is the carry cocycle pulled back along the pair
    isomorphism (a, h) -> a + 2h.
    """
    ext1 = ext1 if ext1 is not None else z2_z4_extension()
    z2 = ext1.kernel
    zero, one = z2.zero(), z2.element((1,))

    def phi(t):
        a = ext1.project(t)
        h = ext1.kernel_part(ext1.total.mul(t, ext1.total.inv(ext1.section(a))))
        return a + 2 * h.coords[0]

    n = ext1.total.order
    fs = tuple(
        tuple(one if phi(x) + phi(y) >= 4 else zero for y in range(n)) for x in range(n)
    )
    return CentralExtension(ext1.total, z2, fs)


def z2_tower(levels=2):
    """The tower Z/2 -> Z/4 -> Z/8 -> ... with Z/2 kernels throughout.

    Each step pulls the carry cocycle back along a discrete logarithm of
    the (cyclic) previous total group, taken at its first generator.
    """
    z2 = FgAbelianGroup((2,))
    zero, one = z2.zero(), z2.element((1,))
    exts = [z2_z4_extension()]
    while len(exts) < levels:
        total = exts[-1].total
        m = total.order
        gen = next(g for g in range(m) if _element_order(total, g) == m)
        log = {total.identity: 0}
        cur = total.identity
        for k in range(1, m):
            cur = total.mul(cur, gen)
            log[cur] = k
        fs = tuple(
            tuple(one if (log[x] + log[y]) >= m else zero for y in range(m))
            for x in range(m)
        )
        exts.append(CentralExtension(total, z2, fs))
    return ExtensionTower(exts)


def _element_order(group, g):
    k = 1
    cur = g
    while cur != group.identity:
        cur = group.mul(cur, g)
        k += 1
    return k


#: The first two levels of the carry tower, each by its own construction.
FIRST_LEVELS = (z2_z4_extension, z4_z8_extension)
