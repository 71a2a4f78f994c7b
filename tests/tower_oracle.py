"""The class-first tower run, kept as an oracle for ``tower_obstructions``.

Each level first builds the Giraud cocycle and reads its class
coordinates; only a zero class goes on to ``lift_transitions``, which
builds the cocycle again and must then lift.  The library decides each
level by one ``lift_transitions`` instead; the entries and the status
must not change.
"""

from __future__ import annotations

from dataclasses import dataclass

from cechlift.abelian import FgAbelianGroup
from cechlift.cochains import Cochain, cohomology_classes, zero_cochain
from cechlift.errors import GroupMismatch, NotACocycle
from cechlift.tower import Obstruction, bockstein, giraud_obstruction, lift_transitions


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
                zero_cochain(nerve_, level + 1, ext.kernel),
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
