"""Cochains on a simplicial complex; on a Nerve they are Cech cochains.

A cochain stores values only on canonical increasing tuples; evaluation
on arbitrary orderings applies the alternating sign on demand, the single
sign convention the whole library is built on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import abelian
from .abelian import (
    CIRCLE,
    QQ,
    CircleElement,
    CircleGroup,
    FgAbelianGroup,
    GroupElement,
    RationalGroup,
)
from .errors import DegreeMismatch, GroupMismatch, NoProduct, NotACocycle


def _perm_sign_and_sort(indices):
    """(canonical tuple, sign) for an index tuple; sign 0 on repeats."""
    idx = list(indices)
    if len(set(idx)) != len(idx):
        return None, 0
    sign = 1
    # insertion sort, counting swaps; tuples here are short
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


def _zero_of(group):
    return group.zero()


class Cochain:
    """A degree-p assignment of coefficient values to carrier p-simplices.

    Missing simplices are zero.  Values must live in the coefficient
    group: GroupElement, CircleElement or Fraction according to it.
    """

    __slots__ = ("carrier", "degree", "group", "values")

    def __init__(self, carrier, degree, group, values=None):
        self.carrier = carrier
        self.degree = int(degree)
        self.group = group
        vals = {}
        if values:
            for s, v in values.items():
                s = tuple(s)
                if len(s) != self.degree + 1 or s not in carrier.simplices:
                    raise DegreeMismatch(
                        f"{s} is not a degree-{self.degree} simplex of the carrier"
                    )
                v = self._coerce(v)
                if not abelian.is_zero_value(group, v):
                    vals[s] = v
        self.values = vals

    def _coerce(self, v):
        g = self.group
        if isinstance(g, FgAbelianGroup):
            if isinstance(v, GroupElement):
                if v.group != g:
                    raise GroupMismatch("value in a different group")
                return v
            return GroupElement(g, tuple(v))
        if isinstance(g, CircleGroup):
            if isinstance(v, CircleElement):
                return v
            return CircleElement(Fraction(v))
        if isinstance(g, RationalGroup):
            return Fraction(v)
        raise GroupMismatch(f"unsupported coefficient group {g!r}")

    def value(self, indices):
        """Alternating-extension value on an arbitrary index tuple."""
        canon, sign = _perm_sign_and_sort(indices)
        if sign == 0:
            return _zero_of(self.group)
        v = self.values.get(canon)
        if v is None:
            return _zero_of(self.group)
        return v if sign == 1 else -v

    def is_zero(self):
        return not self.values

    def _same_shape(self, other):
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise GroupMismatch("cochains on different carriers")
        if self.degree != other.degree or self.group != other.group:
            raise DegreeMismatch("cochains of different shape")

    def __add__(self, other):
        self._same_shape(other)
        out = dict(self.values)
        for s, v in other.values.items():
            w = out.get(s)
            out[s] = v if w is None else w + v
        return Cochain(self.carrier, self.degree, self.group, out)

    def __sub__(self, other):
        self._same_shape(other)
        return self + (-other)

    def __neg__(self):
        return Cochain(
            self.carrier, self.degree, self.group, {s: -v for s, v in self.values.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, Cochain):
            return NotImplemented
        return (
            self.degree == other.degree
            and self.group == other.group
            and self.values == other.values
        )

    def __repr__(self):
        return f"Cochain(degree={self.degree}, group={self.group}, support={len(self.values)})"

    def items(self):
        return sorted(self.values.items())


def zero_cochain(carrier, degree, group):
    return Cochain(carrier, degree, group)


def coboundary(x):
    """(delta x)(i_0..i_{p+1}) = sum_j (-1)^j x(i_0..îj..i_{p+1})."""
    out = {}
    for s in x.carrier.simplices_of_dim(x.degree + 1):
        acc = _zero_of(x.group)
        for j in range(len(s)):
            face = s[:j] + s[j + 1 :]
            v = x.values.get(face)
            if v is not None:
                acc = acc + v if j % 2 == 0 else acc - v
        out[s] = acc
    return Cochain(x.carrier, x.degree + 1, x.group, out)


def _fg_vectors(x, simps):
    """Per coefficient factor, the integer coordinate vector of x."""
    moduli = x.group.moduli
    vecs = [[0] * len(simps) for _ in moduli]
    for i, s in enumerate(simps):
        v = x.values.get(s)
        if v is not None:
            for j, c in enumerate(v.coords):
                vecs[j][i] = c
    return vecs


def is_coboundary(x):
    """A witness y with delta y = x, or None.

    The decision is exact: x is solved over Z, Z/m (per cyclic
    coefficient factor), Q or Q/Z by Smith back-substitution on the
    carrier's one factorization of delta.  The witness is the canonical
    representative of that solve.  Raises NotACocycle when delta x != 0.
    """
    if not coboundary(x).is_zero():
        raise NotACocycle("input cochain is not a cocycle")
    p = x.degree
    if p == 0:
        # only the zero 0-cochain is a coboundary
        return zero_cochain(x.carrier, 0, x.group) if x.is_zero() else None
    rows = x.carrier.simplices_of_dim(p)
    if not rows:
        # without p-simplices x is zero
        return zero_cochain(x.carrier, p - 1, x.group)
    cols = x.carrier.simplices_of_dim(p - 1)
    fac = x.carrier.factored_coboundary(p - 1)

    def solve(b, ring):
        return abelian._back_substitute(fac, b, ring)

    if isinstance(x.group, FgAbelianGroup):
        per_factor = []
        for m, vec in zip(x.group.moduli, _fg_vectors(x, rows)):
            sol = solve(vec, m or "Z")
            if sol is None:
                return None
            per_factor.append(sol)
        values = {}
        for i, s in enumerate(cols):
            values[s] = GroupElement(x.group, tuple(f[i] for f in per_factor))
        return Cochain(x.carrier, p - 1, x.group, values)
    if isinstance(x.group, CircleGroup):
        sol = solve([x.value(s).value for s in rows], "Q/Z")
        if sol is None:
            return None
        return Cochain(
            x.carrier, p - 1, x.group, {s: CircleElement(sol[i]) for i, s in enumerate(cols)}
        )
    if isinstance(x.group, RationalGroup):
        sol = solve([x.value(s) for s in rows], "Q")
        if sol is None:
            return None
        return Cochain(x.carrier, p - 1, x.group, dict(zip(cols, sol)))
    raise GroupMismatch("unsupported coefficient group")


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass
class CohomologyClasses:
    """H^p of a carrier with fg coefficients, with coordinates and
    representative cocycles."""

    carrier: object
    degree: int
    coefficients: FgAbelianGroup
    data: abelian.CohomologyData

    @property
    def group(self):
        return self.data.group

    def class_coords(self, x):
        if x.degree != self.degree or x.group != self.coefficients:
            raise DegreeMismatch("cochain does not match this cohomology")
        simps = self.carrier.simplices_of_dim(self.degree)
        return self.data.class_coords(_fg_vectors(x, simps))

    def generators(self):
        simps = self.carrier.simplices_of_dim(self.degree)
        moduli = self.coefficients.moduli
        out = []
        for per_factor in self.data.generator_vectors():
            values = {}
            for i, s in enumerate(simps):
                coords = tuple(vec[i] for vec in per_factor)
                values[s] = GroupElement(self.coefficients, coords)
            out.append(Cochain(self.carrier, self.degree, self.coefficients, values))
        return out


def cohomology_classes(carrier, coefficients, p):
    """Cohomology of the carrier cochain complex at degree p, with
    class coordinates in the invariant-factor presentation."""
    if p < 0:
        raise DegreeMismatch("negative degree")
    dim = len(carrier.simplices_of_dim(p))
    d_prev = carrier.coboundary_matrix(p - 1) if p > 0 else [[] for _ in range(dim)]
    data = abelian.cohomology_with_coords(d_prev, carrier.factored_coboundary(p), coefficients)
    return CohomologyClasses(carrier, p, coefficients, data)


def cech_cohomology(nerve, coefficients, p):
    """H^p of the nerve with constant fg coefficients."""
    return cohomology_classes(nerve, coefficients, p).group


def simplicial_cohomology(complex_, coefficients, p):
    """H^p of a simplicial complex with constant fg coefficients."""
    return cohomology_classes(complex_, coefficients, p).group


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def _cup_target(ga, gb):
    """Resolve the declared bilinear product of two coefficient groups."""
    def is_cyclic(g):
        return isinstance(g, FgAbelianGroup) and g.rank == 1

    if is_cyclic(ga) and is_cyclic(gb):
        ma, mb = ga.moduli[0], gb.moduli[0]
        if ma == mb:
            target = ga
        elif ma == 0:
            target = gb
        elif mb == 0:
            target = ga
        else:
            raise NoProduct(f"no declared product for {ga} x {gb}")
        m = target.moduli[0]

        def mul(a, b, m=m, target=target):
            return GroupElement(target, (a.coords[0] * b.coords[0],))

        return target, mul
    if is_cyclic(ga) and ga.moduli[0] == 0 and isinstance(gb, CircleGroup):
        return CIRCLE, lambda a, b: CircleElement(a.coords[0] * b.value)
    if isinstance(ga, CircleGroup) and is_cyclic(gb) and gb.moduli[0] == 0:
        return CIRCLE, lambda a, b: CircleElement(a.value * b.coords[0])
    if isinstance(ga, RationalGroup) and isinstance(gb, RationalGroup):
        return QQ, lambda a, b: a * b
    if is_cyclic(ga) and ga.moduli[0] == 0 and isinstance(gb, RationalGroup):
        return QQ, lambda a, b: a.coords[0] * b
    if isinstance(ga, RationalGroup) and is_cyclic(gb) and gb.moduli[0] == 0:
        return QQ, lambda a, b: a * b.coords[0]
    raise NoProduct(f"no declared product for {ga} x {gb}")


def cup(a, b):
    """Alexander-Whitney cup product.

    (a cup b)(i_0..i_{p+q}) = a(i_0..i_p) * b(i_p..i_{p+q}); satisfies
    the Leibniz rule delta(a cup b) = delta a cup b + (-1)^p a cup
    delta b.
    """
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise GroupMismatch("cup of cochains on different carriers")
    target, mul = _cup_target(a.group, b.group)
    p, q = a.degree, b.degree
    out = {}
    for s in a.carrier.simplices_of_dim(p + q):
        front = s[: p + 1]
        back = s[p:]
        va = a.values.get(front)
        if va is None:
            continue
        vb = b.values.get(back)
        if vb is None:
            continue
        out[s] = mul(va, vb)
    return Cochain(a.carrier, p + q, target, out)


# ---------------------------------------------------------------------------
# cover goodness
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoodnessReport:
    """Result of an acyclicity check of all nerve intersections.

    ``failures`` lists (nerve simplex, degree, reduced cohomology) for
    every non-acyclic intersection; ``max_degree`` is the highest degree
    checked, dim(base) + 1.
    """

    max_degree: int
    failures: tuple

    @property
    def ok(self):
        return not self.failures

    def describe(self):
        """The first four failures as text: ``(0, 1) H^1=Z, (0, 2) H^1=Z, ...``."""
        return ", ".join(f"{s} H^{q}={h}" for s, q, h in self.failures[:4])


def verify_good_cover(cover, nerve_):
    """Check every non-empty intersection is acyclic over Z in every degree.

    An intersection with a collapse certificate (``collapse()``) is
    acyclic and costs no Smith call.  Any other one is checked by its
    connected components and the Smith diagonals of its coboundaries up
    to dim(base) + 1, read from the factorizations W keeps
    (``factored_coboundary``), which is every degree: an intersection W is a
    subcomplex of the base, so H^q(W) = 0 for q > dim(base).  That check
    also settles acyclic intersections that do not collapse greedily.
    Failure is a value, not an error.
    """
    max_degree = cover.base.dim + 1
    failures = []
    for s in sorted(nerve_.simplices):
        w = nerve_.intersection_of[s]
        if w.collapse() is not None:
            continue
        comps = w.connected_component_count()
        if comps != 1:
            failures.append((s, 0, FgAbelianGroup((0,) * (comps - 1))))
        # H^q(W; Z) = Z^(n_q - rank d_q - rank d_{q-1}) + Z/s for every
        # invariant factor s > 1 of d_{q-1}
        diags = [w.factored_coboundary(q).diag for q in range(max_degree + 1)]
        for q in range(1, max_degree + 1):
            free = len(w.simplices_of_dim(q)) - len(diags[q]) - len(diags[q - 1])
            h = FgAbelianGroup([d for d in diags[q - 1] if d > 1] + [0] * free)
            if not h.is_trivial():
                failures.append((s, q, h))
    return GoodnessReport(max_degree, tuple(failures))
