"""Cochains on a simplicial complex; on a Nerve they are Cech cochains.

A cochain stores values only on canonical increasing tuples; evaluation
on arbitrary orderings applies the alternating sign on demand, the single
sign convention the whole library is built on.

Every operation runs one path for Z, Z/m, Q and Q/Z.  The coefficient
group splits the values into one map of ints per coefficient ring
(``rings``: an int m for Z/m, "Z", "Q" or "Q/Z"), all over one
denominator n: the coordinates of an fg group over 1, Q and Q/Z values
as numerators over the lcm of their denominators.  The operation works
on those ints (face sums, one back-substitution per ring, products) and
the group joins the results, over their denominator, back into reduced,
nonzero elements.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import index

from . import abelian, kernels
from .abelian import CircleGroup, FgAbelianGroup, RationalGroup
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


class Cochain:
    """A degree-p assignment of coefficient values to carrier p-simplices.

    Missing simplices are zero.  Values must live in the coefficient
    group: GroupElement, CircleElement or Fraction according to it;
    ``group.element`` coerces each one.
    """

    __slots__ = ("carrier", "degree", "group", "values")

    def __init__(self, carrier, degree, group, values=None):
        if not isinstance(group, (FgAbelianGroup, CircleGroup, RationalGroup)):
            raise GroupMismatch(f"unsupported coefficient group {group!r}")
        self.carrier = carrier
        self.degree = index(degree)
        self.group = group
        vals = {}
        if values:
            zero = group.zero()
            for s, v in values.items():
                s = tuple(s)
                if len(s) != self.degree + 1 or s not in carrier.simplices:
                    raise DegreeMismatch(
                        f"{s} is not a degree-{self.degree} simplex of the carrier"
                    )
                v = group.element(v)
                if v != zero:
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

    def value(self, indices):
        """Alternating-extension value on an arbitrary index tuple."""
        canon, sign = _perm_sign_and_sort(indices)
        if sign == 0:
            return self.group.zero()
        v = self.values.get(canon)
        if v is None:
            return self.group.zero()
        return v if sign == 1 else -v

    def is_zero(self):
        return not self.values

    def _same_shape(self, other):
        if self.carrier is not other.carrier and self.carrier != other.carrier:
            raise GroupMismatch("cochains on different carriers")
        if self.degree != other.degree:
            raise DegreeMismatch("cochains of different degrees")
        if self.group != other.group:
            raise GroupMismatch(f"cochains with coefficients {self.group} and {other.group}")

    def __add__(self, other):
        self._same_shape(other)
        out = dict(self.values)
        zero = self.group.zero()
        for s, v in other.values.items():
            w = out.get(s)
            if w is None:
                out[s] = v
            else:
                w = w + v
                if w == zero:
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

    The sums run on the split ints of each ring, over their one
    denominator n, and are reduced once by ``join``, which makes a
    Fraction only of a sum that is not zero (over Q) or not divisible by
    n (over Q/Z).
    """
    simps = x.carrier.simplices_of_dim(x.degree + 1)
    g = x.group
    if not simps:
        return Cochain._trusted(x.carrier, x.degree + 1, g, {})
    maps, n = g.split(x.values)
    sums = [_face_sums(simps, raw) for raw in maps]
    return Cochain._trusted(x.carrier, x.degree + 1, g, g.join(sums, n))


def _require_cocycle(x):
    if not coboundary(x).is_zero():
        raise NotACocycle("input cochain is not a cocycle")


def _vectors(x, simps):
    """(vectors, n): per coefficient ring, the int vector of x's values on
    simps, over the one denominator n of ``split``."""
    maps, n = x.group.split(x.values)
    return [[raw.get(s, 0) for s in simps] for raw in maps], n


def is_coboundary(x):
    """A witness y with delta y = x, or None.

    The decision is exact: x is solved over each coefficient ring (Z,
    Z/m per cyclic factor, Q or Q/Z) by Smith back-substitution on the
    carrier's one factorization of delta_{p-1}.  The witness is the
    canonical representative of those solves.  Raises NotACocycle when
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
            return Cochain(x.carrier, -1, x.group) if x.is_zero() else None
        # without p-simplices x is zero
        return Cochain(x.carrier, p - 1, x.group)
    cols = x.carrier.simplices_of_dim(p - 1)
    fac = x.carrier.factored_coboundary(p - 1)
    g = x.group
    vecs, n = _vectors(x, rows)
    # every fg factor is solved over 1; Q and Q/Z have one ring
    den = n
    sols = []
    for ring, vec in zip(g.rings, vecs):
        sol = abelian._back_substitute(fac, vec, ring, n)
        if sol is None:
            _require_cocycle(x)
            return None
        vec, den = sol
        sols.append(dict(zip(cols, vec)))
    return Cochain._trusted(x.carrier, p - 1, g, g.join(sols, den))


# ---------------------------------------------------------------------------
# cohomology
# ---------------------------------------------------------------------------

@dataclass
class CohomologyClasses:
    """H^p of a carrier with fg coefficients, with coordinates and
    representative cocycles.

    Read from the carrier's kept factorization U @ delta_p @ V = S
    (``_next``), with pivots s_1..s_r, and its kept presentation of the
    relations R of H^p (``_tail``, ``cohomology_presentation(p)``), with
    diagonal t_j; neither depends on the coefficients.  With y = V^-1 x,
    an integer vector x is a Z/m-cocycle (m = 0 is Z) exactly when
    s_i * y_i = 0 mod m at each pivot.  Its coordinates are z = U_R y past
    the pivots, of order gcd(t_j, m), then z_i = y_i / c_i at each pivot,
    c_i = m / gcd(s_i, m), of order gcd(s_i, m) (1 over Z): H^p(Z) (x) Z/m,
    then Tor(H^p+1(Z), Z/m).  ``_orders`` lists every coordinate's order,
    per coefficient factor, and ``_combine`` puts the coordinates of order
    other than 1, over all factors, in invariant-factor form: ``group``.
    """

    carrier: object
    degree: int
    coefficients: FgAbelianGroup
    _next: kernels.Factorization
    _tail: abelian.Presentation
    _orders: list
    _combine: abelian.Presentation

    @property
    def group(self):
        return self._combine.group

    def class_coords(self, x):
        """The coordinates in ``group`` of the class of the cocycle x."""
        if x.carrier is not self.carrier and x.carrier != self.carrier:
            raise GroupMismatch("cochains on different carriers")
        if x.degree != self.degree:
            raise DegreeMismatch(f"a degree-{x.degree} cochain has no class in H^{self.degree}")
        if x.group != self.coefficients:
            raise GroupMismatch(
                f"a {x.group} cochain has no class with {self.coefficients} coefficients"
            )
        return self._coords(_vectors(x, self.carrier.simplices_of_dim(self.degree))[0])

    def _coords(self, vectors):
        """Class coordinates of a cocycle given as one integer vector per
        coefficient factor."""
        pivots = self._next.diag
        r = len(pivots)
        raw = []
        for m, orders, vec in zip(self.coefficients.moduli, self._orders, vectors):
            y = self._next.vinv_times(vec)
            z = self._tail.fac.u_times(y[r:])
            for yi, s in zip(y, pivots):
                c = m // gcd(s, m)
                if yi % c if c else yi:
                    raise NotACocycle("class of a non-cocycle requested")
                z.append(yi // c if c else 0)
            raw.extend(zi for zi, o in zip(z, orders) if o != 1)
        return self._combine.coords_of(raw)

    def generators(self):
        """One representative cocycle per canonical generator of ``group``."""
        simps = self.carrier.simplices_of_dim(self.degree)
        g = self.coefficients
        out = []
        for per_factor in self._generator_vectors():
            values = g.join([dict(zip(simps, v)) for v in per_factor], 1)
            out.append(Cochain._trusted(self.carrier, self.degree, g, values))
        return out

    def _generator_vectors(self):
        """Per canonical generator, one integer cocycle vector per
        coefficient factor."""
        pivots = self._next.diag
        k = len(self._tail.diag)
        out = []
        for gen in self._combine.generators:
            gen = iter(gen)
            per_factor = []
            for m, orders in zip(self.coefficients.moduli, self._orders):
                z = [next(gen) if o != 1 else 0 for o in orders]
                y = [m // gcd(s, m) * zi for s, zi in zip(pivots, z[k:])]
                per_factor.append(self._next.v_times(y + self._tail.fac.uinv_times(z[:k])))
            out.append(per_factor)
        return out


def cohomology_classes(carrier, coefficients, p):
    """Cohomology of the carrier cochain complex at degree p, with
    class coordinates in the invariant-factor presentation."""
    if p < 0:
        raise DegreeMismatch("negative degree")
    if not isinstance(coefficients, FgAbelianGroup):
        raise GroupMismatch(f"cohomology classes need fg coefficients, not {coefficients}")
    fac = carrier.factored_coboundary(p)
    tail = carrier.cohomology_presentation(p)
    orders = [
        [gcd(t, m) for t in tail.diag] + [gcd(s, m) if m else 1 for s in fac.diag]
        for m in coefficients.moduli
    ]
    combine = abelian.canonical_presentation([o for per in orders for o in per if o != 1])
    return CohomologyClasses(carrier, p, coefficients, fac, tail, orders, combine)


# ---------------------------------------------------------------------------
# cup product
# ---------------------------------------------------------------------------

def _cup_target(ga, gb):
    """The target of the declared bilinear product of two coefficient groups.

    Z acts on every group with one ring, and Z/m and Q multiply within
    themselves; Q/Z x Q/Z and every group of more than one ring have no
    product.
    """
    if len(ga.rings) == 1 == len(gb.rings):
        if ga.rings == ("Z",):
            return gb
        if gb.rings == ("Z",) or (ga == gb and ga.rings != ("Q/Z",)):
            return ga
    raise NoProduct(f"no declared product for {ga} x {gb}")


def cup(a, b):
    """Alexander-Whitney cup product.

    (a cup b)(i_0..i_{p+q}) = a(i_0..i_p) * b(i_p..i_{p+q}); satisfies
    the Leibniz rule delta(a cup b) = delta a cup b + (-1)^p a cup
    delta b.  The products run on the split ints of the one ring of
    each side, over na and nb, and the target joins them over na * nb.
    """
    if a.carrier is not b.carrier and a.carrier != b.carrier:
        raise GroupMismatch("cup of cochains on different carriers")
    target = _cup_target(a.group, b.group)
    (fa,), na = a.group.split(a.values)
    (fb,), nb = b.group.split(b.values)
    p, q = a.degree, b.degree
    out = {}
    for s in a.carrier.simplices_of_dim(p + q):
        va = fa.get(s[: p + 1])
        if va is None:
            continue
        vb = fb.get(s[p:])
        if vb is None:
            continue
        out[s] = va * vb
    return Cochain._trusted(a.carrier, p + q, target, target.join([out], na * nb))


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

    An intersection that collapses to a vertex (``collapses()``) is
    acyclic and costs no Smith call.  Any other one is checked by the
    Smith diagonals of its coboundaries up to dim(base) + 1, read from the
    factorizations W keeps (``factored_coboundary``), which is every
    degree: an intersection W is a subcomplex of the base, so H^q(W) = 0
    for q > dim(base).  That check also settles acyclic intersections
    that do not collapse greedily.  Failure is a value, not an error;
    failures are reported in (simplex, degree) order.
    """
    max_degree = cover.base.dim + 1
    failures = []
    for s, w in nerve_.intersection_of.items():
        if w.collapses():
            continue
        # reduced H^q(W; Z) = Z^(n_q - rank d_q - rank d_{q-1}) + Z/s for
        # every invariant factor s > 1 of d_{q-1}; d_{-1} is the
        # augmentation Z -> C^0, a column of ones with Smith diagonal (1)
        diags = [[1]] + [w.factored_coboundary(q).diag for q in range(max_degree + 1)]
        for q in range(max_degree + 1):
            free = len(w.simplices_of_dim(q)) - len(diags[q + 1]) - len(diags[q])
            h = FgAbelianGroup([d for d in diags[q] if d > 1] + [0] * free)
            if not h.is_trivial():
                failures.append((s, q, h))
    failures.sort(key=lambda f: f[:2])
    return GoodnessReport(max_degree, tuple(failures))
