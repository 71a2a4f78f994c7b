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

    @classmethod
    def _trusted(cls, carrier, degree, group, values):
        """A cochain whose values are valid by construction.

        Every key must be a canonical degree-``degree`` simplex of the
        carrier and every value a nonzero element of the group, of the
        type it uses; nothing is checked or coerced.
        """
        self = cls.__new__(cls)
        self.carrier = carrier
        self.degree = degree
        self.group = group
        self.values = values
        return self

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
            if w is None:
                out[s] = v
            else:
                w = w + v
                if abelian.is_zero_value(self.group, w):
                    del out[s]
                else:
                    out[s] = w
        return Cochain._trusted(self.carrier, self.degree, self.group, out)

    def __sub__(self, other):
        self._same_shape(other)
        return self + (-other)

    def __neg__(self):
        # -v is zero only when v is
        return Cochain._trusted(
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


def _elements(group, raw):
    """The nonzero entries of ``raw`` as elements of the group.

    ``raw`` maps simplices to plain values: integer coordinate sequences
    for an fg group, Fractions for Q and Q/Z.  Each value is reduced
    (mod every m_i, mod 1) before it is tested for zero.
    """
    out = {}
    if isinstance(group, FgAbelianGroup):
        moduli = group.moduli
        for s, coords in raw.items():
            coords = tuple(c % m if m else c for c, m in zip(coords, moduli))
            if any(coords):
                out[s] = GroupElement._trusted(group, coords)
    elif isinstance(group, CircleGroup):
        for s, v in raw.items():
            v %= 1
            if v:
                out[s] = CircleElement(v)
    else:
        out = {s: v for s, v in raw.items() if v}
    return out


def _face_sums(simps, raw):
    """Per simplex s, sum_j (-1)^j raw(s without vertex j), where nonzero."""
    out = {}
    if not raw:
        return out
    get = raw.get
    for s in simps:
        acc = 0
        for j in range(len(s)):
            v = get(s[:j] + s[j + 1 :])
            if v is not None:
                acc = acc - v if j & 1 else acc + v
        if acc:
            out[s] = acc
    return out


def coboundary(x):
    """(delta x)(i_0..i_{p+1}) = sum_j (-1)^j x(i_0..îj..i_{p+1}).

    The sums run on plain values (integer coordinates per factor,
    Fractions over Q and Q/Z) and are reduced once, at the end.
    """
    simps = x.carrier.simplices_of_dim(x.degree + 1)
    g = x.group
    if isinstance(g, FgAbelianGroup):
        raw = {}
        for j in range(g.rank):
            sums = _face_sums(simps, {s: v.coords[j] for s, v in x.values.items()})
            for s, c in sums.items():
                raw.setdefault(s, [0] * g.rank)[j] = c
    elif isinstance(g, CircleGroup):
        raw = _face_sums(simps, {s: v.value for s, v in x.values.items()})
    else:
        raw = _face_sums(simps, x.values)
    return Cochain._trusted(x.carrier, x.degree + 1, g, _elements(g, raw))


def _require_cocycle(x):
    if not coboundary(x).is_zero():
        raise NotACocycle("input cochain is not a cocycle")


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
    carrier's one factorization of delta_{p-1}.  The witness is the
    canonical representative of that solve.  Raises NotACocycle when
    delta x != 0.

    A solved x is delta y, so delta x = delta delta y = 0 over every
    coefficient ring: the cocycle law needs testing only when a solve
    refuses.  It is tested then, and up front in degree 0 and without
    p-simplices, where there is nothing to solve; the test is one
    coboundary and never factors delta_p.
    """
    p = x.degree
    rows = x.carrier.simplices_of_dim(p)
    if p == 0 or not rows:
        _require_cocycle(x)
        if p == 0:
            # only the zero 0-cochain is a coboundary, of the zero (-1)-cochain
            return zero_cochain(x.carrier, -1, x.group) if x.is_zero() else None
        # without p-simplices x is zero
        return zero_cochain(x.carrier, p - 1, x.group)
    cols = x.carrier.simplices_of_dim(p - 1)
    fac = x.carrier.factored_coboundary(p - 1)
    g = x.group
    get = x.values.get
    if isinstance(g, FgAbelianGroup):
        per_factor = [
            abelian._back_substitute(fac, vec, m or "Z")
            for m, vec in zip(g.moduli, _fg_vectors(x, rows))
        ]
        sol = None if None in per_factor else zip(*per_factor)
    elif isinstance(g, CircleGroup):
        sol = abelian._back_substitute(
            fac, [v.value if (v := get(s)) is not None else 0 for s in rows], "Q/Z"
        )
    elif isinstance(g, RationalGroup):
        sol = abelian._back_substitute(fac, [get(s, 0) for s in rows], "Q")
    else:
        raise GroupMismatch("unsupported coefficient group")
    if sol is None:
        _require_cocycle(x)
        return None
    return Cochain._trusted(x.carrier, p - 1, g, _elements(g, dict(zip(cols, sol))))


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
        out = []
        for per_factor in self.data.generator_vectors():
            values = _elements(self.coefficients, dict(zip(simps, zip(*per_factor))))
            out.append(Cochain._trusted(self.carrier, self.degree, self.coefficients, values))
        return out


def cohomology_classes(carrier, coefficients, p):
    """Cohomology of the carrier cochain complex at degree p, with
    class coordinates in the invariant-factor presentation."""
    if p < 0:
        raise DegreeMismatch("negative degree")
    d_prev = carrier.coboundary_matrix(p - 1)
    prev_dim = len(carrier.simplices_of_dim(p - 1))
    data = abelian.cohomology_with_coords(
        d_prev, carrier.factored_coboundary(p), coefficients, prev_dim
    )
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
        v = mul(va, vb)
        if not abelian.is_zero_value(target, v):
            out[s] = v
    return Cochain._trusted(a.carrier, p + q, target, out)


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
