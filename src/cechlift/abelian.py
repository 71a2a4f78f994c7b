"""Exact arithmetic for finitely generated abelian groups.

Groups are kept in invariant-factor form (nonzero moduli in a
divisibility chain, free factors last).  The circle group is the
rational circle Q/Z, so every vanishing test is an exact equality
test.  All the linear algebra runs over arbitrary-precision integers
through the Smith-normal-form kernel in cechlift.kernels; the pivot
rule there is deterministic, which makes every solution representative
produced here reproducible.
"""

from __future__ import annotations

import itertools
import numbers
from contextvars import ContextVar
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import index

from . import kernels
from .errors import GroupMismatch

#: When true, every Smith factorization computed is re-checked: every
#: logged combine has determinant 1, so U and V are unimodular, and
#: U @ M = S @ V^-1, both sides replayed forward from the logs.  A
#: factorization is kept by the object that owns its matrix, so this
#: checks those built while it is set.  The CLI's --verify full sets it
#: for one command; being a context variable, it never leaks into other
#: threads.
SNF_VERIFY = ContextVar("cechlift_snf_verify", default=False)


# ---------------------------------------------------------------------------
# integer matrices and their Smith factorizations
# ---------------------------------------------------------------------------

def mat_vec(a, x):
    nz = [(k, xk) for k, xk in enumerate(x) if xk]
    return [sum(row[k] * xk for k, xk in nz) for row in a]


def _back_substitute(fac, b, ring, den=1):
    """The canonical solution of M x = b / den from a factorization U M V = S.

    ``b`` is an integer vector over the denominator den > 0, which is 1
    over Z and Z/m.  ``ring`` is one of "Z", "Q", "Q/Z" or an integer
    m > 1 (Z/m).  With s_j the diagonal of S and t = U b, the entries of
    t past the rank must vanish (Z, Q), be divisible by den (Q/Z) or
    vanish mod m.  Over Z, y_j = t_j / s_j must be an integer; over Z/m,
    g = gcd(s_j, m) must divide t_j and y_j = (t_j/g) (s_j/g)^-1 mod m/g.
    Over Q and Q/Z, with D = lcm(s_j), y_j = t_j (D / s_j) is integral
    and the solution is over n = den D.  Free coordinates are zero.

    Returns (x, n), x = V y an integer vector over n (1 over Z and Z/m),
    reduced mod n over Q/Z and mod m over Z/m; or None without a
    solution.  Every product is on integers.
    """
    diag = fac.diag
    r = len(diag)
    m = den if ring == "Q/Z" else ring if type(ring) is int else 0
    t = fac.u_times(b)
    if any(tj % m if m else tj for tj in t[r:]):
        return None
    if ring in ("Q", "Q/Z"):
        scale = lcm(*diag)
        y = [tj * (scale // sj) for tj, sj in zip(t, diag)]
        den *= scale
        m = den if ring == "Q/Z" else 0
    else:
        y = []
        for tj, sj in zip(t, diag):
            g = gcd(sj, m)
            if tj % g:
                return None
            y.append(tj // g * pow(sj // g, -1, m // g) % (m // g) if m else tj // g)
    x = fac.v_times(y + [0] * (len(fac.col_at) - r))
    if m:
        x = [xi % m for xi in x]
    return x, den


def factor(rows, ncols):
    """The ``kernels.Factorization`` U @ M @ V = S of an integer matrix M.

    M has ``ncols`` columns and one {column: value} dict of its nonzero
    entries per row.  A matrix without entries gets identity transforms.
    While ``SNF_VERIFY`` is set, the factorization is re-checked.
    """
    if not any(rows):
        return kernels.Factorization.identity(len(rows), ncols)
    fac = kernels.snf_with_transforms(rows, ncols)
    if SNF_VERIFY.get() and not fac.is_factorization_of(rows):
        raise AssertionError("SNF product check failed")
    return fac


def solve(rows, b, ring, ncols):
    """A particular solution x of M x = b over Z, Z/m, Q or Q/Z, or None.

    M has ``ncols`` columns and one {column: value} row per entry of b.
    ``ring`` is "Z" (integer x), an integer m > 1 (x in [0, m), equations
    taken mod m), "Q" (rational x) or "Q/Z" (rational x with the equations
    taken mod 1, entries reduced into [0, 1)).  The representative is the
    canonical one of Smith back-substitution: free coordinates of the
    diagonalized system are zero.  Over Q and Q/Z, b holds ints or
    Fractions and x Fractions: b is cleared to numerators over the lcm of
    its denominators, and each nonzero numerator of the solution becomes
    one Fraction, the zeros one shared ``Fraction(0)``.
    """
    if ring not in ("Z", "Q", "Q/Z") and not (type(ring) is int and ring > 1):
        raise ValueError(f"unknown ring {ring!r}; expected 'Z', 'Q', 'Q/Z' or an int m > 1")
    fac = factor(rows, ncols)
    if ring not in ("Q", "Q/Z"):
        sol = _back_substitute(fac, b, ring)
        return None if sol is None else sol[0]
    (num,), den = _numerators(dict(enumerate(b)))
    sol = _back_substitute(fac, list(num.values()), ring, den)
    if sol is None:
        return None
    x, n = sol
    zero = Fraction(0)
    return [Fraction(xi, n) if xi else zero for xi in x]


# ---------------------------------------------------------------------------
# groups and elements
# ---------------------------------------------------------------------------

def _is_invariant_chain(moduli):
    seen_free = False
    prev = None
    for m in moduli:
        if m < 0 or m == 1:
            return False
        if m == 0:
            seen_free = True
            continue
        if seen_free:
            return False
        if prev is not None and m % prev != 0:
            return False
        prev = m
    return True


class FgAbelianGroup:
    """A finitely generated abelian group in invariant-factor form.

    ``moduli`` lists the cyclic factors: m > 0 stands for Z/m, 0 for a
    free Z factor.  Nonzero moduli come first and divide in turn, so the
    representation is unique and equality of groups is equality of
    moduli.
    """

    __slots__ = ("moduli", "rings")

    def __init__(self, moduli):
        moduli = tuple(index(m) for m in moduli)
        if not _is_invariant_chain(moduli):
            raise ValueError(f"moduli {moduli} are not in invariant-factor form")
        self.moduli = moduli
        self.rings = tuple(m or "Z" for m in moduli)

    @property
    def rank(self):
        return len(self.moduli)

    def is_trivial(self):
        return not self.moduli

    def is_finite(self):
        return all(m > 0 for m in self.moduli)

    def order(self):
        if not self.is_finite():
            return None
        n = 1
        for m in self.moduli:
            n *= m
        return n

    def zero(self):
        # the all-zero tuple is reduced mod every modulus
        return GroupElement._trusted(self, (0,) * self.rank)

    def element(self, coords):
        if isinstance(coords, GroupElement) and coords.group == self:
            return coords
        _refuse_foreign(coords, self)
        return GroupElement(self, tuple(coords))

    def split(self, values):
        """(maps, 1): per coefficient factor, the {key: int coordinate} map
        of ``values``, over the denominator 1."""
        return [{s: v.coords[j] for s, v in values.items()} for j in range(self.rank)], 1

    def join(self, maps, n):
        """The {key: element} map with coordinate j taken from ``maps[j]``
        (missing keys are 0), reduced mod each modulus, zeros dropped; the
        int maps are over n = 1."""
        rank = self.rank
        coords = {}
        for j, (raw, m) in enumerate(zip(maps, self.moduli)):
            for s, c in raw.items():
                if m:
                    c %= m
                if c:
                    coords.setdefault(s, [0] * rank)[j] = c
        trusted = GroupElement._trusted
        return {s: trusted(self, tuple(cs)) for s, cs in coords.items()}

    def elements(self):
        if not self.is_finite():
            raise ValueError("cannot enumerate an infinite group")
        for coords in itertools.product(*(range(m) for m in self.moduli)):
            yield GroupElement(self, coords)

    def __eq__(self, other):
        return isinstance(other, FgAbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(("fg", self.moduli))

    def __repr__(self):
        return f"FgAbelianGroup({list(self.moduli)})"

    def __str__(self):
        if not self.moduli:
            return "0"
        parts = [f"Z/{m}" if m else "Z" for m in self.moduli]
        return " + ".join(parts)


@dataclass(frozen=True)
class GroupElement:
    group: FgAbelianGroup
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.group.rank:
            raise ValueError("coordinate length does not match group rank")
        # index() refuses Fractions and floats instead of truncating them
        reduced = tuple(
            index(c) % m if m else index(c) for c, m in zip(self.coords, self.group.moduli)
        )
        object.__setattr__(self, "coords", reduced)

    @classmethod
    def _trusted(cls, group, coords):
        """An element whose coords are a tuple of ints already reduced mod
        each modulus of the group; nothing is checked."""
        self = cls.__new__(cls)
        object.__setattr__(self, "group", group)
        object.__setattr__(self, "coords", coords)
        return self

    def _check(self, other):
        if self.group != other.group:
            raise GroupMismatch("elements of different groups")

    def _reduced(self, coords):
        """The element with these int coords, reduced mod each modulus."""
        return GroupElement._trusted(
            self.group, tuple(c % m if m else c for c, m in zip(coords, self.group.moduli))
        )

    def __add__(self, other):
        self._check(other)
        return self._reduced(a + b for a, b in zip(self.coords, other.coords))

    def __sub__(self, other):
        self._check(other)
        return self._reduced(a - b for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        return self._reduced(-a for a in self.coords)

    def __mul__(self, k):
        # the validating constructor: index() refuses a Fraction or float k
        return GroupElement(self.group, tuple(k * a for a in self.coords))

    __rmul__ = __mul__

    def is_zero(self):
        return all(c == 0 for c in self.coords)


class CircleGroup:
    """The additive rational circle Q/Z (exact representatives in [0,1))."""

    rings = ("Q/Z",)

    def zero(self):
        return CircleElement(Fraction(0))

    def element(self, value):
        if isinstance(value, CircleElement):
            return value
        return CircleElement(_exact_rational(value, self))

    def split(self, values):
        """([{key: int}], n): the values' numerators over n, the lcm of
        their denominators."""
        return _numerators({s: v.value for s, v in values.items()})

    def join(self, maps, n):
        """The {key: element} map of the one int map over n: each value is
        reduced mod n and only the ones n does not divide become Fractions."""
        (raw,) = maps
        trusted = CircleElement._trusted
        out = {}
        for s, x in raw.items():
            x %= n
            if x:
                out[s] = trusted(Fraction(x, n))
        return out

    def __eq__(self, other):
        return isinstance(other, CircleGroup)

    def __hash__(self):
        return hash("circle")

    def __repr__(self):
        return "CircleGroup()"

    def __str__(self):
        return "Q/Z"


CIRCLE = CircleGroup()


@dataclass(frozen=True)
class CircleElement:
    value: Fraction

    def __post_init__(self):
        value = self.value
        if type(value) is not Fraction:
            value = _exact_rational(value, CIRCLE)
        object.__setattr__(self, "value", value % 1)

    @classmethod
    def _trusted(cls, value):
        """An element whose value is a Fraction already in [0, 1); nothing
        is checked or reduced."""
        self = cls.__new__(cls)
        object.__setattr__(self, "value", value)
        return self

    def __add__(self, other):
        return CircleElement(self.value + other.value)

    def __sub__(self, other):
        return CircleElement(self.value - other.value)

    def __neg__(self):
        return CircleElement(-self.value)

    def __mul__(self, k):
        # Q/Z is a Z-module only: index() refuses a Fraction or float k
        return CircleElement(index(k) * self.value)

    __rmul__ = __mul__

    def is_zero(self):
        return self.value == 0


class RationalGroup:
    """Q as coefficients; elements are plain Fractions.

    Used for the discretized differential forms (global rational
    cochains), where cup products and pairings need a genuine ring.
    """

    rings = ("Q",)

    def zero(self):
        return Fraction(0)

    def element(self, value):
        return _exact_rational(value, self)

    def split(self, values):
        """([{key: int}], n): the values' numerators over n, the lcm of
        their denominators."""
        return _numerators(values)

    def join(self, maps, n):
        """The one int map over n as Fractions, zeros dropped."""
        (raw,) = maps
        return {s: Fraction(x, n) for s, x in raw.items() if x}

    def __eq__(self, other):
        return isinstance(other, RationalGroup)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "RationalGroup()"

    def __str__(self):
        return "Q"


QQ = RationalGroup()


def _numerators(values):
    """([{key: int}], n) with values[key] = int / n, n the lcm of the
    values' denominators (1 for none)."""
    n = lcm(*{v.denominator for v in values.values()})
    return [{s: v.numerator * (n // v.denominator) for s, v in values.items()}], n


def _refuse_foreign(value, group):
    """Raise GroupMismatch when ``value`` is an element of another group."""
    if isinstance(value, (GroupElement, CircleElement)):
        raise GroupMismatch(f"{value!r} is not an element of {group}")


def _exact_rational(value, group):
    """``value`` as a Fraction, for Q or Q/Z.  Refuses an element of
    another group, and with TypeError every number that is not an int or
    a Fraction: a float would be kept as its binary expansion."""
    _refuse_foreign(value, group)
    if not isinstance(value, numbers.Rational):
        raise TypeError(f"{group} value {value!r} is not an int or a Fraction")
    return Fraction(value)


INTEGERS = FgAbelianGroup((0,))


# ---------------------------------------------------------------------------
# presentations and canonical forms
# ---------------------------------------------------------------------------

class Presentation:
    """A quotient Z^n / L, from one diagonalization U @ M @ V = S.

    The columns of M generate L, and S is its Smith form or, for a
    diagonal M, M itself.  ``diag`` is the full diagonal of S: n
    entries, 0 past the rank.  ``fac`` is the factorization of M (only
    its U is used, and it is the identity for a diagonal M).  The
    coordinates whose diagonal entry is not 1, taken in the order
    ``_kept``, carry the quotient: ``group``, ``coords_of`` (an integer
    vector's coordinates there) and ``generators`` (each canonical
    generator lifted back to Z^n).
    """

    __slots__ = ("diag", "group", "fac", "_kept")

    def __init__(self, diag, fac, kept=None):
        self.diag = diag
        self.fac = fac
        self._kept = [i for i, d in enumerate(diag) if d != 1] if kept is None else kept
        self.group = FgAbelianGroup(diag[i] for i in self._kept)

    @classmethod
    def of(cls, fac):
        """The quotient of Z^rows by the columns of a factored matrix: its
        diagonal padded with zeros to the row count."""
        return cls(fac.diag + [0] * (len(fac.row_at) - len(fac.diag)), fac)

    def coords_of(self, vec):
        full = self.fac.u_times(vec)
        out = []
        for pos, m in zip(self._kept, self.group.moduli):
            out.append(full[pos] % m if m else full[pos])
        return tuple(out)

    def element_of(self, vec):
        return GroupElement(self.group, self.coords_of(vec))

    @property
    def generators(self):
        n = len(self.diag)
        return [self.fac.uinv_times([int(i == pos) for i in range(n)]) for pos in self._kept]


def _presentation(rows, ncols):
    """Factor the lattice spanned by the columns of the matrix, once."""
    return Presentation.of(factor(rows, ncols))


def canonical_presentation(orders):
    """The sum of the cyclic groups Z/o (o = 0: Z), in invariant-factor form.

    When the orders other than 1, sorted with the zeros last, already
    divide in turn, U is the identity and only the order of the
    coordinates changes; otherwise diag(orders) is factored once.  The
    result's ``group`` is the sum and its ``coords_of`` maps raw
    coordinates to canonical ones.
    """
    n = len(orders)
    kept = [i for i, o in enumerate(orders) if o != 1]
    kept.sort(key=lambda i: (not orders[i], orders[i]))
    if _is_invariant_chain([orders[i] for i in kept]):
        return Presentation(list(orders), kernels.Factorization.identity(n, n), kept)
    return _presentation([{i: o} if o else {} for i, o in enumerate(orders)], n)


# ---------------------------------------------------------------------------
# homomorphisms and exact sequences
# ---------------------------------------------------------------------------

def _in_relation_lattice(moduli, vec):
    for x, m in zip(vec, moduli):
        if m == 0:
            if x != 0:
                return False
        elif x % m != 0:
            return False
    return True


@dataclass(frozen=True)
class Homomorphism:
    """A homomorphism between fg abelian groups, as an integer matrix.

    ``matrix`` has codomain.rank rows and domain.rank columns and must
    annihilate the order of every domain generator.
    """

    domain: FgAbelianGroup
    codomain: FgAbelianGroup
    matrix: tuple

    def __post_init__(self):
        mat = tuple(tuple(index(x) for x in row) for row in self.matrix)
        object.__setattr__(self, "matrix", mat)
        if len(mat) != self.codomain.rank:
            raise ValueError("matrix row count does not match codomain rank")
        for row in mat:
            if len(row) != self.domain.rank:
                raise ValueError("matrix column count does not match domain rank")
        for k, m in enumerate(self.domain.moduli):
            if m:
                col = [m * row[k] for row in mat]
                if not _in_relation_lattice(self.codomain.moduli, col):
                    raise ValueError(
                        f"matrix does not respect the order of generator {k}"
                    )

    def apply(self, el):
        if el.group != self.domain:
            raise GroupMismatch("element not in the domain")
        return GroupElement(self.codomain, tuple(mat_vec(self.matrix, el.coords)))

    @cached_property
    def _factored(self):
        """The factorization of [M | R], R the codomain relations, built on first use.

        [M | R] (x, k) = b says M x = b in the codomain, so this one
        factorization gives the kernel (V past the rank), surjectivity (a
        full diagonal of units) and preimages (back-substitution).
        """
        n = self.domain.rank
        aug = [{j: x for j, x in enumerate(row) if x} for row in self.matrix]
        for i, m in enumerate(self.codomain.moduli):
            if m:
                aug[i][n] = m
                n += 1
        return factor(aug, n)

    def kernel_lattice(self):
        """Generators of {x in Z^dom : M x in relation lattice of codomain}.

        The columns of V past the rank, cut to the domain's coordinates.
        They hold the domain's relations m_k e_k too: M maps each into
        the codomain's relations, so (m_k e_k, k') is in the kernel of
        [M | R] for some k'.
        """
        fac = self._factored
        n = len(fac.col_at)
        return [
            fac.v_times([int(i == j) for i in range(n)])[: self.domain.rank]
            for j in range(len(fac.diag), n)
        ]

    def is_injective(self):
        return all(
            _in_relation_lattice(self.domain.moduli, g) for g in self.kernel_lattice()
        )

    def is_surjective(self):
        diag = self._factored.diag
        return len(diag) == self.codomain.rank and all(d == 1 for d in diag)

    def preimage(self, el):
        """The canonical domain element mapping to el, or None off the image."""
        if el.group != self.codomain:
            raise GroupMismatch("element not in the codomain")
        sol = _back_substitute(self._factored, el.coords, "Z")
        return None if sol is None else GroupElement(self.domain, tuple(sol[0][: self.domain.rank]))


@dataclass(frozen=True)
class ShortExactSequence:
    """0 -> A -> B -> C -> 0 with exactness verified on construction."""

    A: FgAbelianGroup
    B: FgAbelianGroup
    C: FgAbelianGroup
    inject: Homomorphism
    project: Homomorphism

    def __post_init__(self):
        if self.inject.domain != self.A or self.inject.codomain != self.B:
            raise ValueError("inject must map A to B")
        if self.project.domain != self.B or self.project.codomain != self.C:
            raise ValueError("project must map B to C")
        inject = self.inject.matrix
        for k in range(self.A.rank):
            col = mat_vec(self.project.matrix, [row[k] for row in inject])
            if not _in_relation_lattice(self.C.moduli, col):
                raise ValueError("project o inject is nonzero")
        if not self.inject.is_injective():
            raise ValueError("inject is not injective")
        if not self.project.is_surjective():
            raise ValueError("project is not surjective")
        # image(inject) contains kernel(project); the converse is the
        # vanishing of project o inject above
        for g in self.project.kernel_lattice():
            if self.inject.preimage(GroupElement(self.B, tuple(g))) is None:
                raise ValueError("image of inject differs from kernel of project")

    def section(self, el):
        """Canonical set-section of project: the minimal B-representative."""
        return self.project.preimage(el)

    def kernel_part(self, el):
        """The unique A-element mapping to el under inject."""
        x = self.inject.preimage(el)
        if x is None:
            raise ValueError("element is not in the image of inject")
        return x
