"""Finite groups, central extensions, lifting obstructions, Bocksteins.

This module makes the obstruction theory executable: a bundle is a
transition cocycle on a nerve, a central extension is a normalized
factor set, and the failure of the transitions to lift through the
extension is the degree-2 kernel-valued cocycle built from the
canonical section.  ``lift_transitions`` decides a lift with one such
cocycle and one solve, and returns the lift or a nonzero ``Obstruction``;
``tower_obstructions`` runs it once per level of an extension tower.
After the first blocked level the higher obstructions are the
connecting-operator images through the derived quotient sequences.
Every class is read by ``obstruction_class``.
"""

from __future__ import annotations

import operator
from collections import Counter
from dataclasses import dataclass

from . import abelian
from .abelian import FgAbelianGroup, GroupElement, Homomorphism, ShortExactSequence
from .cochains import Cochain, coboundary, cohomology_classes, is_coboundary
from .errors import (
    GroupMismatch,
    NotAbelian,
    NotACocycle,
    NotACocycle2,
    NotNormalized,
)


class FiniteGroup:
    """A finite group as a multiplication table on indices 0..order-1.

    Associativity, identity and inverses are verified exhaustively at
    construction; fixtures here are small enough that the cubic check
    is immediate.  The total group of a checked ``CentralExtension`` is a
    group by the cocycle law and is built by ``_trusted``, which checks
    none of this again.
    """

    __slots__ = ("order", "table", "identity", "inverse")

    def __init__(self, table, identity=None):
        table = tuple(tuple(operator.index(x) for x in row) for row in table)
        n = len(table)
        for row in table:
            if len(row) != n or any(x < 0 or x >= n for x in row):
                raise ValueError("malformed multiplication table")
        if identity is None:
            identity = next(
                (e for e in range(n) if all(table[e][b] == b == table[b][e] for b in range(n))),
                None,
            )
            if identity is None:
                raise ValueError("table has no identity")
        e = operator.index(identity)
        if not 0 <= e < n:
            raise ValueError(f"identity {e} is not an element of a group of order {n}")
        if any(table[e][b] != b or table[b][e] != b for b in range(n)):
            raise ValueError("claimed identity is not an identity")
        inverse = [None] * n
        for a in range(n):
            for b in range(n):
                if table[a][b] == e and table[b][a] == e:
                    inverse[a] = b
                    break
            if inverse[a] is None:
                raise ValueError(f"element {a} has no inverse")
        for a in range(n):
            for b in range(n):
                ab = table[a][b]
                for c in range(n):
                    if table[ab][c] != table[a][table[b][c]]:
                        raise ValueError(f"associativity fails at {(a, b, c)}")
        self.order = n
        self.table = table
        self.identity = e
        self.inverse = tuple(inverse)

    @classmethod
    def _trusted(cls, table, identity):
        """The group of a table already known to be a group with this identity.

        ``table`` is a tuple of tuples of ints; only the inverses are
        computed, each the one entry of its row equal to the identity.
        """
        self = cls.__new__(cls)
        self.order = len(table)
        self.table = table
        self.identity = identity
        self.inverse = tuple(row.index(identity) for row in table)
        return self

    @classmethod
    def cyclic(cls, m):
        return cls(tuple(tuple((a + b) % m for b in range(m)) for a in range(m)), 0)

    def mul(self, a, b):
        return self.table[a][b]

    def inv(self, a):
        return self.inverse[a]

    def is_abelian(self):
        return all(
            self.table[a][b] == self.table[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def __eq__(self, other):
        return (
            isinstance(other, FiniteGroup)
            and self.table == other.table
            and self.identity == other.identity
        )

    def __hash__(self):
        return hash((self.table, self.identity))

    def __repr__(self):
        return f"FiniteGroup(order={self.order})"


def abelian_invariants(group):
    """Invariant factors of an abelian FiniteGroup, with coordinates.

    Presents the group on all of its elements modulo the Cayley-table
    relations e_a + e_b - e_{ab}; returns (FgAbelianGroup, coords) where
    coords maps an element index to its canonical coordinates.
    """
    if not group.is_abelian():
        raise NotAbelian("group is not commutative")
    pres = _element_presentation(group)
    n = group.order

    def coords(idx):
        return pres.coords_of([int(a == idx) for a in range(n)])

    return pres.group, coords


def _element_presentation(group):
    """The presentation behind ``abelian_invariants``, of a group already
    known to be commutative."""
    n = group.order
    # one {column: value} row per element, one column per relation; the
    # coefficients of a relation sum to 1, so none cancels to zero
    rows = [{} for _ in range(n)]
    ncols = 0
    for a in range(n):
        for b in range(a, n):
            rel = Counter((a, b))
            rel[group.mul(a, b)] -= 1
            for i, x in rel.items():
                if x:
                    rows[i][ncols] = x
            ncols += 1
    return abelian._presentation(rows, ncols)


# ---------------------------------------------------------------------------
# central extensions via factor sets
# ---------------------------------------------------------------------------

class CentralExtension:
    """1 -> kernel -> total -> base -> 1 encoded by a normalized factor set.

    The total group lives on pairs (a, h) with multiplication
    (a, h)(b, k) = (ab, h + k + f(a, b)); the canonical section is
    s(a) = (a, 0), which realizes the local-sections hypothesis with an
    exactly computable kernel part.

    The base is a checked ``FiniteGroup`` and the factor set is checked
    for normalization and the cocycle law, on kernel coordinates reduced
    mod each modulus.  By that law the total is a group with identity
    (e, 0), so its table is not checked again.
    """

    __slots__ = ("base", "kernel", "factor_set", "total", "_kernel_elements", "_kernel_index")

    def __init__(self, base, kernel, factor_set):
        if not isinstance(base, FiniteGroup):
            raise GroupMismatch("base must be a FiniteGroup")
        if not isinstance(kernel, FgAbelianGroup) or not kernel.is_finite():
            raise GroupMismatch("kernel must be a finite FgAbelianGroup")
        n = base.order
        fs = [tuple(kernel.element(factor_set[a][b]) for b in range(n)) for a in range(n)]
        self.base = base
        self.kernel = kernel
        self.factor_set = tuple(fs)
        self._kernel_elements = tuple(kernel.elements())
        self._kernel_index = {el.coords: i for i, el in enumerate(self._kernel_elements)}
        # kernel elements as indices; the zero element is index 0
        add = self._kernel_addition()
        f = [[self._kernel_index[v.coords] for v in row] for row in fs]
        e = base.identity
        for a in range(n):
            if f[e][a] or f[a][e]:
                raise NotNormalized(f"factor set nonzero on identity at {a}")
        mul = base.table
        for a in range(n):
            fa, mul_a = f[a], mul[a]
            for b in range(n):
                fab_row, fb, mul_b = f[mul_a[b]], f[b], mul[b]
                add_fab = add[fa[b]]
                for c in range(n):
                    if add_fab[fab_row[c]] != add[fb[c]][fa[mul_b[c]]]:
                        raise NotACocycle2((a, b, c))
        self.total = self._build_total(f, add)

    def _kernel_addition(self):
        """add[i][j] = the index of kernel element i + kernel element j."""
        moduli = self.kernel.moduli
        index = self._kernel_index
        return tuple(
            tuple(
                index[tuple((x + y) % m for x, y, m in zip(h.coords, k.coords, moduli))]
                for k in self._kernel_elements
            )
            for h in self._kernel_elements
        )

    def _build_total(self, f, add):
        """The table of (a, h)(b, k) = (ab, h + k + f(a, b)) on a * |kernel| + h."""
        n = self.base.order
        k = len(self._kernel_elements)
        mul = self.base.table
        table = []
        for a in range(n):
            for h in range(k):
                row = []
                for b in range(n):
                    offset = mul[a][b] * k
                    row.extend(offset + x for x in add[add[h][f[a][b]]])
                table.append(tuple(row))
        return FiniteGroup._trusted(tuple(table), self.base.identity * k)

    @property
    def kernel_size(self):
        return len(self._kernel_elements)

    def section(self, a):
        """The canonical section s(a) = (a, 0)."""
        return a * self.kernel_size + 0

    def project(self, t):
        return t // self.kernel_size

    def embed(self, h):
        """The kernel element h as a central element of the total group."""
        if h.group != self.kernel:
            raise GroupMismatch("element outside the kernel")
        return self.base.identity * self.kernel_size + self._kernel_index[h.coords]

    def kernel_part(self, t):
        """The kernel element of a total element lying over the identity."""
        if self.project(t) != self.base.identity:
            raise GroupMismatch("element does not lie over the identity")
        return self._kernel_elements[t % self.kernel_size]

    def with_kernel_offset(self, a, h):
        """The total element s(a) * embed(h) = (a, h)."""
        return a * self.kernel_size + self._kernel_index[h.coords]


def split_extension(base, kernel):
    """The direct product: zero factor set."""
    zero = kernel.zero()
    n = base.order
    return CentralExtension(base, kernel, tuple(tuple(zero for _ in range(n)) for _ in range(n)))


# ---------------------------------------------------------------------------
# transition cocycles
# ---------------------------------------------------------------------------

class TransitionCocycle:
    """Bundle transition data on a nerve: one group element per edge.

    Values are stored on canonical edges (i < j); g_ii = e and
    g_ji = g_ij^{-1} are implied.  The nonabelian cocycle law
    g_ij g_jk = g_ik is verified on every nerve 2-simplex.
    """

    __slots__ = ("nerve", "group", "g")

    def __init__(self, nerve_, group, g):
        self.nerve = nerve_
        self.group = group
        vals = {}
        for (i, j), v in g.items():
            if (i, j) not in nerve_.simplices:
                raise GroupMismatch(f"({i},{j}) is not a nerve edge")
            v = operator.index(v)
            if v < 0 or v >= group.order:
                raise GroupMismatch(f"invalid group element {v}")
            if v != group.identity:
                vals[(i, j)] = v
        self.g = vals
        table, get, e = group.table, vals.get, group.identity
        for (i, j, k) in nerve_.simplices_of_dim(2):
            if table[get((i, j), e)][get((j, k), e)] != get((i, k), e):
                raise NotACocycle(f"transition cocycle law fails on {(i, j, k)}")

    def value(self, i, j):
        if i == j:
            return self.group.identity
        if i < j:
            return self.g.get((i, j), self.group.identity)
        return self.group.inv(self.g.get((j, i), self.group.identity))

    def items(self):
        return sorted(self.g.items())

    def __repr__(self):
        return f"TransitionCocycle(group_order={self.group.order}, support={len(self.g)})"


# ---------------------------------------------------------------------------
# the lifting obstruction
# ---------------------------------------------------------------------------

def _lift_value(ext, twist, a):
    """The chosen lift s(a) * embed(twist(a)) of a base element a."""
    h = twist(a) if twist else None
    return ext.with_kernel_offset(a, h) if h is not None else ext.section(a)


def giraud_obstruction(g, ext, section_twist=None):
    """The degree-2 kernel-valued cocycle c_ijk = ker(g~_ki g~_ij g~_jk).

    Each canonical nerve edge (i < j) is lifted once, by ``_lift_value``;
    the opposite orientation is the exact inverse in the total group, so
    lifts are fixed per unordered pair.  Each triangle is then two
    lookups in the total's table.  Its product lies over g_ki g_ij g_jk,
    which is the identity by the cocycle law of g, so its kernel part is
    read off the total index.

    ``section_twist`` optionally replaces the canonical section by
    s'(a) = (a, twist(a)) with twist(e) = 0, which is how the
    choice-independence property is exercised.  The transitions must
    take values in the base of the extension, the twist must vanish on
    the identity, and the result is verified to be a cocycle.
    """
    if g.group != ext.base:
        raise GroupMismatch("transition group differs from the extension base")
    if section_twist is not None and not section_twist(ext.base.identity).is_zero():
        raise NotNormalized("section twist must vanish on the identity")
    e = g.group.identity
    lift = {
        edge: _lift_value(ext, section_twist, g.g.get(edge, e))
        for edge in g.nerve.simplices_of_dim(1)
    }
    table, inv = ext.total.table, ext.total.inverse
    size = ext.kernel_size
    parts = ext._kernel_elements
    values = {}
    for (i, j, k) in g.nerve.simplices_of_dim(2):
        h = table[table[inv[lift[(i, k)]]][lift[(i, j)]]][lift[(j, k)]] % size
        if h:
            values[(i, j, k)] = parts[h]
    c = Cochain._trusted(g.nerve, 2, ext.kernel, values)
    if not coboundary(c).is_zero():
        raise NotACocycle("obstruction cochain failed the cocycle law")
    return c


@dataclass
class Obstruction:
    """A cocycle and its class: the cohomology group and the coordinates in it."""

    cocycle: Cochain
    cohomology: FgAbelianGroup
    coords: tuple

    @property
    def degree(self):
        return self.cocycle.degree

    @property
    def coefficients(self):
        return self.cocycle.group

    def is_zero(self):
        return not any(self.coords)


def obstruction_class(c):
    """The class of a cocycle in the cohomology of its carrier, as an Obstruction."""
    classes = cohomology_classes(c.carrier, c.group, c.degree)
    return Obstruction(c, classes.group, classes.class_coords(c))


def lift_transitions(g, ext, witness_shift=None):
    """Lift the transitions through the extension, or report the class.

    When the Giraud cocycle is a coboundary with witness y, the lift is
    g'_ij = s(g_ij) * embed(-y_ij), made once per canonical edge from the
    stored values of g and y.  It is re-validated by the
    ``TransitionCocycle`` constructor (edges, range and the nonabelian
    cocycle law) and checked to project back to g exactly, and it is the
    certificate that the class vanishes.  Otherwise the obstruction class
    is returned; it is nonzero, or ``NotACocycle`` is raised, since a
    cocycle the solve refuses is not a coboundary.

    ``witness_shift`` adds a kernel-valued 1-cocycle to the chosen
    witness, selecting a different valid trivialization (used by the
    witness-independence tests).
    """
    c = giraud_obstruction(g, ext)
    y = is_coboundary(c)
    if y is None:
        obs = obstruction_class(c)
        if obs.is_zero():
            raise NotACocycle("the solve refused an obstruction whose class vanishes")
        return obs
    if witness_shift is not None:
        if not coboundary(witness_shift).is_zero():
            raise NotACocycle("witness shift must be a cocycle")
        y = y + witness_shift
    k = ext.kernel_size
    e = g.group.identity
    edges = g.nerve.simplices_of_dim(1)
    lifted = {}
    for edge in edges:
        a = g.g.get(edge, e)
        h = y.values.get(edge)
        lifted[edge] = a * k if h is None else ext.with_kernel_offset(a, -h)
    out = TransitionCocycle(g.nerve, ext.total, lifted)
    top = ext.total.identity
    for edge in edges:
        if out.g.get(edge, top) // k != g.g.get(edge, e):
            raise NotACocycle("lift does not project to the input transitions")
    return out


# ---------------------------------------------------------------------------
# Bockstein / connecting operator
# ---------------------------------------------------------------------------

def bockstein(c, ses):
    """Connecting operator of 0 -> A -> B -> C -> 0 on a C-valued cocycle.

    Lifts c valuewise through the canonical set-section of the
    projection, takes the coboundary (which lands in the kernel), and
    expresses it in A.  The result is a verified cocycle one degree up;
    its class does not depend on the choice of lifts.
    """
    if c.group != ses.C:
        raise GroupMismatch("cocycle coefficients differ from the quotient C")
    if not coboundary(c).is_zero():
        raise NotACocycle("bockstein input is not a cocycle")
    # the section and the kernel part of a nonzero value are nonzero
    lifted = Cochain._trusted(
        c.carrier, c.degree, ses.B, {s: ses.section(v) for s, v in c.values.items()}
    )
    delta = coboundary(lifted)
    values = {s: ses.kernel_part(v) for s, v in delta.values.items()}
    out = Cochain._trusted(c.carrier, c.degree + 1, ses.A, values)
    if not coboundary(out).is_zero():
        raise NotACocycle("bockstein output failed the cocycle law")
    return out


# ---------------------------------------------------------------------------
# extension towers
# ---------------------------------------------------------------------------

class ExtensionTower:
    """A chain of central extensions, each based on the previous total.

    Level i extends L_{i-1} by the kernel H_i.  For consecutive levels
    the derived quotient K_{i+1} = ker(L_{i+1} -> L_{i-1}) must be
    commutative; that is what makes it fit the short exact sequence
    0 -> H_{i+1} -> K_{i+1} -> H_i -> 0 driving the higher connecting
    operators.
    """

    def __init__(self, extensions):
        extensions = tuple(extensions)
        if not extensions:
            raise ValueError("a tower needs at least one extension")
        for k in range(1, len(extensions)):
            if extensions[k].base != extensions[k - 1].total:
                raise GroupMismatch(f"extension {k} is not based on the previous total")
        self.extensions = extensions
        # build and validate every derived quotient sequence eagerly
        self._derived = [
            self._derived_sequence(i) for i in range(1, len(extensions))
        ]

    def __len__(self):
        return len(self.extensions)

    def derived_sequence(self, level):
        """The sequence 0 -> H_{level+1} -> K_{level+1} -> H_level -> 0."""
        return self._derived[level - 1]

    def _derived_sequence(self, i):
        lower = self.extensions[i - 1]   # extends L_{i-1} by H_i
        upper = self.extensions[i]       # extends L_i by H_{i+1}
        total = upper.total
        members = [
            t
            for t in range(total.order)
            if lower.project(upper.project(t)) == lower.base.identity
        ]
        index_of = {t: p for p, t in enumerate(members)}
        # a kernel of a checked group: closed, and a group with its identity
        ksub = FiniteGroup._trusted(
            tuple(tuple(index_of[total.mul(a, b)] for b in members) for a in members),
            index_of[total.identity],
        )
        if not ksub.is_abelian():
            raise NotAbelian(f"derived quotient at level {i} is not commutative")
        pres = _element_presentation(ksub)
        kgroup = pres.group

        # inject: H_{i+1} -> K via the kernel embedding of the upper extension
        inj_cols = []
        for gidx in range(upper.kernel.rank):
            gen = GroupElement(
                upper.kernel,
                tuple(1 if t == gidx else 0 for t in range(upper.kernel.rank)),
            )
            member = index_of[upper.embed(gen)]
            inj_cols.append(pres.coords_of([int(p == member) for p in range(len(members))]))
        inject = Homomorphism(
            upper.kernel,
            kgroup,
            tuple(
                tuple(inj_cols[j][r] for j in range(upper.kernel.rank))
                for r in range(kgroup.rank)
            ),
        )

        # project: K -> H_i, the kernel part in L_i.  It is a homomorphism,
        # so the generator realized by sum v_p members[p] goes to sum v_p
        # of their kernel parts.
        parts = [lower.kernel_part(upper.project(t)).coords for t in members]
        proj_cols = []
        for v in pres.generators:
            col = [0] * lower.kernel.rank
            for p, x in enumerate(v):
                if x:
                    col = [c + x * h for c, h in zip(col, parts[p])]
            proj_cols.append([c % m for c, m in zip(col, lower.kernel.moduli)])
        project = Homomorphism(
            kgroup,
            lower.kernel,
            tuple(
                tuple(proj_cols[j][r] for j in range(kgroup.rank))
                for r in range(lower.kernel.rank)
            ),
        )
        return ShortExactSequence(upper.kernel, kgroup, lower.kernel, inject, project)


# ---------------------------------------------------------------------------
# the full obstruction sequence
# ---------------------------------------------------------------------------

@dataclass
class ObstructionEntry(Obstruction):
    """The Obstruction recorded at one level of a tower run."""

    level: int


@dataclass
class ObstructionSequence:
    """The recorded classes of a tower run.

    ``status`` is ("lifted", n) when every level lifted, or
    ("blocked", b) for the first level whose class is nonzero; after a
    block the remaining entries are the connecting-operator images
    through the derived quotient sequences.
    """

    entries: list
    status: tuple

    @property
    def lifted_to(self):
        return self.status[1] if self.status[0] == "lifted" else None

    @property
    def blocked_at(self):
        return self.status[1] if self.status[0] == "blocked" else None


def tower_obstructions(g, tower, witness_shifts=None):
    """Run the lifting pipeline of a tower on a transition cocycle.

    Each level is decided by one ``lift_transitions`` of the current
    transitions through the level's extension: one Giraud cocycle and
    one solve.  A lift records the zero tower class one degree up (the
    zero representative is chosen, which is what makes the next level
    exact) and replaces the transitions.  An ``Obstruction`` blocks the
    tower and is recorded as it is; every later class is the
    connecting-operator image of the previous one through the derived
    quotient sequence, read by ``obstruction_class``.

    ``witness_shifts`` optionally maps a level to a kernel-valued
    1-cocycle added to that level's coboundary witness.
    """
    if g.group != tower.extensions[0].base:
        raise GroupMismatch("transitions do not start at the base of the tower")
    witness_shifts = witness_shifts or {}
    nerve_ = g.nerve
    entries = []
    current = g
    n = len(tower)
    for level in range(1, n + 1):
        ext = tower.extensions[level - 1]
        lifted = lift_transitions(current, ext, witness_shift=witness_shifts.get(level))
        if isinstance(lifted, Obstruction):
            entries.append(ObstructionEntry(lifted.cocycle, lifted.cohomology, lifted.coords, level))
            break
        zero = cohomology_classes(nerve_, ext.kernel, level + 1).group
        entries.append(
            ObstructionEntry(Cochain(nerve_, level + 1, ext.kernel), zero, (0,) * zero.rank, level)
        )
        current = lifted
    else:
        return ObstructionSequence(entries, ("lifted", n))
    blocked, c = level, lifted.cocycle
    for level in range(blocked + 1, n + 1):
        obs = obstruction_class(bockstein(c, tower.derived_sequence(level - 1)))
        c = obs.cocycle
        entries.append(ObstructionEntry(c, obs.cohomology, obs.coords, level))
    return ObstructionSequence(entries, ("blocked", blocked))
