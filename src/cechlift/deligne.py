"""Discretized connective structures: descent data, curvature, holonomy.

Differential forms are modeled as rational simplicial cochains on the
intersection subcomplexes of a verified-good cover; the local
differential D is the simplicial coboundary and the Cech differential
delta alternately restricts to deeper intersections.  The two commute,
and the package equations below are stated without auxiliary signs;
the re-verification of every equation after construction is the sign
convention's certificate.

The logarithm of a circle value is its canonical rational
representative in [0, 1), so the Cech coboundary of a lifted
classifying cocycle is integer-valued.  Holonomy pairs the layers and
the lift with chains of flags of the cycle; on a valid package this is
independent of the piece assignment mod 1.  The lift is constant on
each intersection, so D lift(c) = 0: every layer ``descent_chain``
builds is zero and the top package equation reads delta A^(d-1) = 0.

The operators delta, D and the partition-of-unity contraction h are
+-1 integer maps, so a DoubleCochain holds exactly what they compute
on: ``num``, a ``{nerve simplex: {simplex: int}}`` map, over ``den``,
the least common denominator of its values, and the kernel below runs
on ``num`` directly.  Where two double cochains meet, both are taken
over the lcm of their dens (over N, the lcm of the classifying
cocycle's denominators and every layer's den, for a package).  The
Fraction ``values`` are derived on request; in the collapse checks of
the trivialization, "integral" means "divisible by N".
"""

from __future__ import annotations

import numbers
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import index

from . import abelian
from .abelian import CIRCLE, CircleElement, QQ
from .cochains import Cochain, _face_sums, coboundary, cup, verify_good_cover
from .complexes import Cover, Nerve, chain_boundary, nerve
from .errors import (
    CoverNotGood,
    CoverNotGoodOnV,
    DegreeMismatch,
    GroupMismatch,
    NoFundamentalCycle,
    NotACocycle,
)


class DoubleCochain:
    """Cech p-cochain of rational simplicial q-cochains on intersections.

    The value at a canonical nerve p-simplex t and a simplex s of the
    corresponding intersection subcomplex is ``num[t][s] / den``;
    missing entries are zero.  ``num`` keeps no zero entry and no empty
    local, and ``den`` is the least common denominator of the values
    (1 for zero), so equal double cochains have equal ``(num, den)``.
    The constructor takes ints and Fractions and refuses any other
    number; ``values`` gives the Fractions.
    """

    __slots__ = ("cover", "nerve", "cech_degree", "form_degree", "num", "den")

    def __init__(self, cover, nerve_, cech_degree, form_degree, values=None):
        self.cover = cover
        self.nerve = nerve_
        self.cech_degree = index(cech_degree)
        self.form_degree = index(form_degree)
        checked = {}
        if values:
            for t, local in values.items():
                t = tuple(t)
                if len(t) != self.cech_degree + 1 or t not in nerve_.simplices:
                    raise DegreeMismatch(f"{t} is not a nerve {self.cech_degree}-simplex")
                inter = nerve_.intersection_of[t]
                out = checked[t] = {}
                for s, v in local.items():
                    s = tuple(s)
                    if len(s) != self.form_degree + 1 or not inter.has_simplex(s):
                        raise DegreeMismatch(
                            f"{s} is not a {self.form_degree}-simplex of the intersection {t}"
                        )
                    if not isinstance(v, numbers.Rational):
                        raise TypeError(f"double cochain value {v!r} is not an int or a Fraction")
                    out[s] = v
        n = lcm(*{v.denominator for loc in checked.values() for v in loc.values()})
        num = {
            t: {s: v.numerator * (n // v.denominator) for s, v in loc.items()}
            for t, loc in checked.items()
        }
        self.num, self.den = _lowest(num, n)

    @classmethod
    def _trusted(cls, cover, nerve_, cech_degree, form_degree, num, n):
        """The double cochain num / n, whose keys are valid by construction.

        Every key of ``num`` must be a nerve simplex of the Cech degree
        and every local key a simplex of the form degree in its
        intersection, with int values; n > 0.
        """
        self = cls.__new__(cls)
        self.cover = cover
        self.nerve = nerve_
        self.cech_degree = cech_degree
        self.form_degree = form_degree
        self.num, self.den = _lowest(num, n)
        return self

    @property
    def values(self):
        """``{nerve simplex: {simplex: Fraction}}``, without zero entries."""
        n = self.den
        return {t: {s: Fraction(v, n) for s, v in loc.items()} for t, loc in self.num.items()}

    def local(self, t):
        n = self.den
        return {s: Fraction(v, n) for s, v in self.num.get(tuple(t), {}).items()}

    def _over(self, n):
        """The numerators over n, a multiple of den."""
        if n == self.den:
            return self.num
        k = n // self.den
        return {t: {s: v * k for s, v in loc.items()} for t, loc in self.num.items()}

    def is_zero(self):
        return not self.num

    def _same_shape(self, other):
        if self.cover is not other.cover and self.cover != other.cover:
            raise DegreeMismatch("double cochains on different covers")
        if self.cech_degree != other.cech_degree or self.form_degree != other.form_degree:
            raise DegreeMismatch("double cochains of different bidegree")

    def _plus(self, other, sign):
        self._same_shape(other)
        n = lcm(self.den, other.den)
        raw = _add(self._over(n), other._over(n), sign)
        return self._trusted(self.cover, self.nerve, self.cech_degree, self.form_degree, raw, n)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        raw = _add({}, self.num, -1)
        return self._trusted(self.cover, self.nerve, self.cech_degree, self.form_degree, raw, self.den)

    def __eq__(self, other):
        if not isinstance(other, DoubleCochain):
            return NotImplemented
        return (
            self.cech_degree == other.cech_degree
            and self.form_degree == other.form_degree
            and self.den == other.den
            and self.num == other.num
        )

    def __repr__(self):
        return (
            f"DoubleCochain(cech={self.cech_degree}, form={self.form_degree}, "
            f"support={len(self.num)})"
        )


# ---------------------------------------------------------------------------
# the integer kernel: a Cech level is {nerve simplex: {simplex: int}}, the
# numerators over one denominator N; every level it returns keeps only
# nonzero entries and nonempty locals, so levels compare with ==
# ---------------------------------------------------------------------------

def _lowest(num, n):
    """(num, n) in lowest terms: zero entries and empty locals dropped,
    gcd(n, *num) divided out."""
    out = {}
    g = n
    for t, loc in num.items():
        loc = {s: v for s, v in loc.items() if v}
        if loc:
            out[t] = loc
            if g != 1:
                g = gcd(g, *loc.values())
    if g != 1:
        out = {t: {s: v // g for s, v in loc.items()} for t, loc in out.items()}
    return out, n // g


def _cocycle_denominator(c):
    """The lcm of the denominators of a circle cochain's values."""
    return lcm(*{v.value.denominator for v in c.values.values()})


def _package_denominator(pkg):
    """N of a package: the lcm of the denominators of its classifying
    cocycle and of every layer."""
    return lcm(_cocycle_denominator(pkg.cocycle), *(layer.den for layer in pkg.layers.values()))


def _add(x, y, sign=1):
    """x + sign * y, entry by entry, for sign +-1."""
    out = {t: dict(loc) for t, loc in x.items()}
    for t, loc in y.items():
        dst = out.get(t)
        if dst is None:
            out[t] = {s: sign * v for s, v in loc.items()}
            continue
        for s, v in loc.items():
            w = dst.get(s, 0) + sign * v
            if w:
                dst[s] = w
            else:
                del dst[s]
        if not dst:
            del out[t]
    return out


def _divisible(x, n):
    return all(v % n == 0 for loc in x.values() for v in loc.values())


def _delta(nerve_, p, x):
    """Cech delta of a Cech p-level: alternating sum of the restrictions
    of its faces to the deeper intersection."""
    out = {}
    if not x:
        return out
    intersection_of = nerve_.intersection_of
    for t in nerve_.simplices_of_dim(p + 1):
        acc = None
        for j in range(len(t)):
            loc = x.get(t[:j] + t[j + 1 :])
            if not loc:
                continue
            if acc is None:
                acc = {}
                inside = intersection_of[t].simplices
            for s, v in loc.items():
                if s in inside:
                    acc[s] = acc.get(s, 0) - v if j & 1 else acc.get(s, 0) + v
        if acc:
            acc = {s: v for s, v in acc.items() if v}
            if acc:
                out[t] = acc
    return out


def _d(nerve_, q, x):
    """The local D of a level of form degree q: a face sum per
    (q+1)-simplex of each intersection."""
    out = {}
    intersection_of = nerve_.intersection_of
    for t, loc in x.items():
        acc = _face_sums(intersection_of[t].simplices_of_dim(q + 1), loc)
        if acc:
            out[t] = acc
    return out


def _h(x, assign):
    """The contraction h of a Cech p-level, p >= 1.

    (h x)_t(s) = x_{assign(s) t}(s), read through the alternating
    extension.  Each nonzero value comes from the one entry x_T(s) with
    assign(s) in T: t is T without assign(s), and moving assign(s) from
    position k of T to the front takes k transpositions, so the value is
    (-1)^k x_T(s).
    """
    out = {}
    for big, loc in x.items():
        for s, v in loc.items():
            i = assign[s]
            if i in big:
                k = big.index(i)
                t = big[:k] + big[k + 1 :]
                dst = out.get(t)
                if dst is None:
                    dst = out[t] = {}
                dst[s] = -v if k & 1 else v
    return out


def _lift(nerve_, c, n):
    """n times the lift of a circle cocycle: each value's representative
    in [0, 1), spread over the vertices of its intersection."""
    out = {}
    for t, v in c.values.items():
        rep = v.value.numerator * (n // v.value.denominator)
        out[t] = dict.fromkeys(nerve_.intersection_of[t].simplices_of_dim(0), rep)
    return out


def _collapse(base, q, x, assign):
    """The global q-cochain tau -> x_{assign(tau)}(tau) of a Cech 0-level."""
    out = {}
    for s in base.simplices_of_dim(q):
        loc = x.get((assign[s],))
        if loc:
            v = loc.get(s)
            if v:
                out[s] = v
    return out


def _epsilon(nerve_, q, g):
    """The Cech 0-level of the restrictions of a global q-cochain."""
    out = {}
    for t in nerve_.simplices_of_dim(0):
        loc = {s: g[s] for s in nerve_.intersection_of[t].simplices_of_dim(q) if s in g}
        if loc:
            out[t] = loc
    return out


# ---------------------------------------------------------------------------
# the double complex
# ---------------------------------------------------------------------------

def cech_delta(x):
    """Cech coboundary: alternating sum of restrictions to the deeper
    intersection."""
    raw = _delta(x.nerve, x.cech_degree, x.num)
    return DoubleCochain._trusted(x.cover, x.nerve, x.cech_degree + 1, x.form_degree, raw, x.den)


def form_d(x):
    """Local simplicial coboundary applied on every intersection."""
    raw = _d(x.nerve, x.form_degree, x.num)
    return DoubleCochain._trusted(x.cover, x.nerve, x.cech_degree, x.form_degree + 1, raw, x.den)


def _min_piece_assignment(cover, shuffle=None):
    """simplex -> index of a piece containing it (smallest by default).

    A randomized assignment is an equally valid combinatorial partition
    of unity; holonomy must not depend on the choice.
    """
    assign = {}
    order = list(range(len(cover.pieces)))
    if shuffle is not None:
        shuffle.shuffle(order)
    # the first piece in order is written last, so it wins
    for i in reversed(order):
        assign.update(dict.fromkeys(cover.pieces[i].simplices, i))
    return assign


def cech_homotopy(x, assign):
    """The partition-of-unity contraction h with delta(h x) + h(delta x) = x.

    (h x)_{i_0..i_{p-1}}(tau) = x_{assign(tau), i_0..i_{p-1}}(tau).
    """
    raw = _h(x.num, assign) if x.cech_degree else {}
    return DoubleCochain._trusted(x.cover, x.nerve, x.cech_degree - 1, x.form_degree, raw, x.den)


# ---------------------------------------------------------------------------
# packages
# ---------------------------------------------------------------------------

def lift_cocycle(c, cover, nerve_):
    """The classifying cocycle as locally constant rational 0-forms.

    Each circle value is replaced by its representative in [0, 1),
    spread over the vertices of its intersection subcomplex.
    """
    n = _cocycle_denominator(c)
    return DoubleCochain._trusted(cover, nerve_, c.degree, 0, _lift(nerve_, c, n), n)


@dataclass
class DelignePackage:
    """A classifying circle cocycle with compatible local form layers.

    Layer q has Cech degree q and form degree (degree - q); the package
    equations are

        delta A^(d-1) = D lift(c) = 0
        D A^(q) = delta A^(q-1)       for 0 < q <= d-1

    and delta c = 0 in Q/Z; D lift(c) is 0 because the lift is constant
    on each intersection.  ``validate`` re-checks everything exactly.
    """

    cover: Cover
    nerve: Nerve
    degree: int
    cocycle: Cochain
    layers: dict

    def validate(self):
        d = self.degree
        if d < 1:
            raise DegreeMismatch("packages need classifying degree >= 1")
        for q in self.layers:
            if q not in range(d):
                raise DegreeMismatch(f"layer {q} is outside 0..{d - 1}")
        if self.cocycle.degree != d or self.cocycle.group != CIRCLE:
            raise NotACocycle("classifying cocycle has the wrong shape")
        if not coboundary(self.cocycle).is_zero():
            raise NotACocycle("classifying cochain is not a cocycle")
        for q in range(d):
            layer = self.layers.get(q)
            if layer is None or layer.cech_degree != q or layer.form_degree != d - q:
                raise DegreeMismatch(f"layer {q} missing or of wrong bidegree")
        n = lcm(*(self.layers[q].den for q in range(d)))
        nrv = self.nerve
        layers = {q: self.layers[q]._over(n) for q in range(d)}
        # D lift(c) = 0: the lift is constant on each intersection
        if _delta(nrv, d - 1, layers[d - 1]):
            raise NotACocycle("top descent equation fails")
        for q in range(1, d):
            if _d(nrv, d - q, layers[q]) != _delta(nrv, q - 1, layers[q - 1]):
                raise NotACocycle(f"middle descent equation fails at layer {q}")
        return True


def _not_good(what, report):
    """Error text naming how many intersections fail, then the first ones."""
    count = len({s for s, _, _ in report.failures})
    return f"{what} is not good ({count} non-acyclic intersections): {report.describe()}"


def descent_chain(c, cover, nerve_=None):
    """Build the layers of a connective structure under a good cover.

    The cover is verified good first (CoverNotGood reports the bad
    intersections).  Each layer solves its Cech equation through the
    contraction h from D lift(c) = 0, so every layer is zero, built as
    such.  The package is re-validated, the cocycle law of c first.
    """
    nerve_ = nerve_ if nerve_ is not None else nerve(cover)
    d = c.degree
    if d < 1:
        raise DegreeMismatch("packages need classifying degree >= 1")
    report = verify_good_cover(cover, nerve_)
    if not report.ok:
        raise CoverNotGood(_not_good("cover", report))
    if c.group != CIRCLE:
        raise NotACocycle("classifying cocycle must be circle-valued")
    # D lift(c) = 0 (the lift is constant on each intersection), so the
    # contraction solves every layer, top first, by 0
    layers = {
        q: DoubleCochain._trusted(cover, nerve_, q, d - q, {}, 1) for q in range(d - 1, -1, -1)
    }
    pkg = DelignePackage(cover, nerve_, d, c, layers)
    pkg.validate()
    return pkg


def curvature(pkg):
    """The global closed rational (d+1)-cochain D A^(0), glued.

    Gluing is well defined because delta(D A^(0)) = D(D A^(1)) = 0; the
    agreement of every covering index and the closedness are asserted.
    """
    d = pkg.degree
    layer = pkg.layers[0]
    n = layer.den
    bottom = _d(pkg.nerve, layer.form_degree, layer.num)
    glued = {}
    clashes = []
    for i, piece in enumerate(pkg.cover.pieces):
        local = bottom.get((i,), {})
        for s in piece.simplices_of_dim(d + 1):
            v = local.get(s, 0)
            if glued.setdefault(s, v) != v:
                clashes.append(s)
    if clashes:
        raise NotACocycle(f"curvature does not glue at {min(clashes)}")
    base = pkg.cover.base
    if _face_sums(base.simplices_of_dim(d + 2), glued):
        raise NotACocycle("curvature is not closed")
    return Cochain._trusted(base, d + 1, QQ, QQ.join([glued], n))


def characteristic_form(pkg, power):
    """The cup power curvature^power: a closed (power*(d+1))-cochain."""
    if power < 1:
        raise DegreeMismatch("monomial degree must be >= 1")
    f = curvature(pkg)
    out = f
    for _ in range(power - 1):
        out = cup(out, f)
    return out


def pair(x, z):
    """Evaluate a global rational cochain on a chain: sum of coeff * value."""
    if x.group != QQ:
        raise GroupMismatch(f"only a Q cochain pairs with a chain, not a {x.group} one")
    if x.degree != z.degree:
        raise DegreeMismatch("pairing a cochain and chain of different degrees")
    (num,), n = QQ.split(x.values)
    return Fraction(sum(coeff * num.get(s, 0) for s, coeff in z.coefficients.items()), n)


# ---------------------------------------------------------------------------
# exact gauge moves
# ---------------------------------------------------------------------------

def add_exact_datum(pkg, q0, rho):
    """A new valid package with A^(q0) += D rho and the next level
    compensated by delta rho.

    ``rho`` must have bidegree (q0, d - q0 - 1) with q0 <= d - 2; the
    top compensation (q0 = d - 1) changes the classifying cocycle by a
    circle coboundary, which ``shift_cocycle`` performs instead.
    Holonomy and curvature are invariant under both moves.
    """
    d = pkg.degree
    if not 0 <= q0 <= d - 2:
        raise DegreeMismatch("layer gauge moves need 0 <= q0 <= d-2")
    if rho.cech_degree != q0 or rho.form_degree != d - q0 - 1:
        raise DegreeMismatch("gauge datum has the wrong bidegree")
    layers = dict(pkg.layers)
    layers[q0] = layers[q0] + form_d(rho)
    layers[q0 + 1] = layers[q0 + 1] + cech_delta(rho)
    out = DelignePackage(pkg.cover, pkg.nerve, d, pkg.cocycle, layers)
    out.validate()
    return out


def add_global_datum(pkg, f):
    """A new valid package with A^(0) += restriction of D f, f a global
    rational (d-1)-cochain on the base.  The shift is delta-closed, so
    no other layer moves."""
    if f.degree != pkg.degree - 1 or f.group != QQ:
        raise DegreeMismatch("global gauge datum must be a rational (d-1)-cochain")
    (num,), n = QQ.split(f.values)
    shift = _epsilon(pkg.nerve, pkg.degree, _face_sums(f.carrier.simplices_of_dim(pkg.degree), num))
    shift = DoubleCochain._trusted(pkg.cover, pkg.nerve, 0, pkg.degree, shift, n)
    layers = dict(pkg.layers)
    layers[0] = layers[0] + shift
    out = DelignePackage(pkg.cover, pkg.nerve, pkg.degree, pkg.cocycle, layers)
    out.validate()
    return out


def shift_cocycle(pkg, eta):
    """A new valid package whose classifying cocycle is c + delta eta,
    eta a circle-valued (d-1)-cochain on the nerve.  The class of c is
    unchanged, and so is the holonomy."""
    if eta.degree != pkg.degree - 1 or eta.group != CIRCLE:
        raise DegreeMismatch("cocycle shift must be a circle (d-1)-cochain")
    c2 = pkg.cocycle + coboundary(eta)
    out = DelignePackage(pkg.cover, pkg.nerve, pkg.degree, c2, pkg.layers)
    out.validate()
    return out


# ---------------------------------------------------------------------------
# restriction and holonomy
# ---------------------------------------------------------------------------

def _restrict_cochain(c, nerve_v):
    values = {
        t: val for t, val in c.values.items() if nerve_v.has_simplex(t)
    }
    return Cochain._trusted(nerve_v, c.degree, c.group, values)


def _restrict_double(x, cover_v, nerve_v):
    out = {}
    for t, loc in x.num.items():
        inter = nerve_v.intersection_of.get(t)
        if inter is not None:
            out[t] = {s: v for s, v in loc.items() if s in inter.simplices}
    return DoubleCochain._trusted(cover_v, nerve_v, x.cech_degree, x.form_degree, out, x.den)


def _good_cover_on(pkg, v):
    """(cover, nerve) of the package over a subcomplex v, verified good:
    its own over its base, else its cover's kept ``restricted_to(v)``."""
    if v == pkg.cover.base:
        cover_v, nerve_v = pkg.cover, pkg.nerve
    elif v.is_subcomplex_of(pkg.cover.base):
        cover_v, nerve_v = pkg.cover.restricted_to(v)
    else:
        raise NoFundamentalCycle("restriction target is not a subcomplex of the base")
    report = verify_good_cover(cover_v, nerve_v)
    if not report.ok:
        raise CoverNotGoodOnV(_not_good("restricted cover", report))
    return cover_v, nerve_v


def restrict_package(pkg, v):
    """The package restricted to a subcomplex, with goodness verified, for
    the trivialization route: the package itself over its base, else its
    layers and cocycle on the restricted cover and nerve its cover keeps."""
    cover_v, nerve_v = _good_cover_on(pkg, v)
    if cover_v is pkg.cover:
        return pkg
    layers = {q: _restrict_double(x, cover_v, nerve_v) for q, x in pkg.layers.items()}
    return DelignePackage(cover_v, nerve_v, pkg.degree, _restrict_cochain(pkg.cocycle, nerve_v), layers)


@dataclass
class HolonomyTrivialization:
    """Solved potentials of a flat restricted package.

    ``potentials[q]`` has Cech degree q and form degree d-q-1 and the
    defining equations A^(q) = delta v^(q-1) + D v^(q) hold exactly;
    ``residual`` is the locally constant Cech d-level c-hat minus
    delta v^(d-1), and ``global_form`` its collapse on the subcomplex.
    """

    package: DelignePackage
    potentials: dict
    residual: DoubleCochain
    global_form: Cochain

    def verify(self):
        pkg = self.package
        d = pkg.degree
        for q in range(d):
            v = self.potentials[q]
            if v.cech_degree != q or v.form_degree != d - q - 1:
                raise NotACocycle(f"trivialization equation fails at layer {q}")
        dens = [self.potentials[q].den for q in range(d)]
        n = lcm(_package_denominator(pkg), self.residual.den, *dens)
        nrv = pkg.nerve
        prev = None
        # A^(q) = delta v^(q-1) + D v^(q) for every q, and D residual = 0,
        # on numerators over n
        for q in range(d):
            v = self.potentials[q]._over(n)
            rhs = _d(nrv, d - q - 1, v)
            if prev is not None:
                rhs = _add(rhs, _delta(nrv, q - 1, prev))
            if pkg.layers[q]._over(n) != rhs:
                raise NotACocycle(f"trivialization equation fails at layer {q}")
            prev = v
        if _d(nrv, 0, self.residual._over(n)):
            raise NotACocycle("holonomy residual is not locally constant")
        return True


def _solve_local_d(inter, q, rhs_local, shuffle=None):
    """Solve D v = rhs exactly on an acyclic intersection, v of form degree q.

    An empty right side is solved by 0, with no certificate, Smith call or
    draw from ``shuffle``.  With a collapse certificate the solve is a
    back-substitution over the pairs (q-simplex s, (q+1)-simplex t) in
    reverse collapse order: v(s) = [t:s] (rhs(t) - the other faces' terms
    of t), 0 on every other q-simplex; ints give ints, Fractions Fractions.
    Without one, Smith over Q.  A ``shuffle`` reorders the free faces (or
    adds a seeded kernel vector to the Smith solution): another exact
    solution, with the same trivialization value."""
    if not rhs_local:
        return {}
    pairs = inter.collapse(shuffle)
    if pairs is None:
        return _smith_solve_local_d(inter, q, rhs_local, shuffle)
    v = {}
    paired = set()
    for s, t in reversed(pairs):
        if len(s) == q + 1:
            paired.add(t)
            # v(s) is still unset, so the face sum runs over the other faces
            acc = rhs_local.get(t, 0) - _face_sum(v, t)
            j = next((k for k, x in enumerate(s) if x != t[k]), len(s))
            if acc:
                v[s] = acc if j % 2 == 0 else -acc
    for t in inter.simplices_of_dim(q + 1):
        if t not in paired and _face_sum(v, t) != rhs_local.get(t, 0):
            raise CoverNotGoodOnV("local solve failed on a supposedly acyclic piece")
    return v


def _face_sum(v, t):
    """(D v)(t) = sum of [t:r] v(r) over the faces r of t, v a local cochain."""
    total = 0
    for j in range(len(t)):
        x = v.get(t[:j] + t[j + 1 :])
        if x:
            total += x if j % 2 == 0 else -x
    return total


def _smith_solve_local_d(inter, q, rhs_local, shuffle=None):
    """Solve D v = rhs by Smith over Q on the intersection's kept
    factorization of D (``factored_coboundary``), on numerators over one
    denominator.  A good intersection is acyclic over Z, so an int right
    side has an int solution (anything else is refused); a Fraction one
    gets Fractions.  A ``shuffle`` adds V y, y seeded on the free
    positions, whose columns of V span the kernel of D."""
    simps = inter.simplices_of_dim(q)
    fac = inter.factored_coboundary(q)
    (num,), den = QQ.split(rhs_local)
    b = [num.get(s, 0) for s in inter.simplices_of_dim(q + 1)]
    sol = abelian._back_substitute(fac, b, "Q", den)
    if sol is None:
        raise CoverNotGoodOnV("local solve failed on a supposedly acyclic piece")
    x, n = sol
    if shuffle is not None:
        r = len(fac.diag)
        y = [0] * r + [shuffle.randint(-2, 2) for _ in range(len(simps) - r)]
        x = [xi + n * k for xi, k in zip(x, fac.v_times(y))]
    if any(type(v) is not int for v in rhs_local.values()):
        return QQ.join([dict(zip(simps, x))], n)
    if any(xi % n for xi in x):
        raise CoverNotGoodOnV("local solve over Q is not integral on a supposedly acyclic piece")
    return {s: xi // n for s, xi in zip(simps, x) if xi}


def _trivialize(pkg, shuffle=None):
    """The checked trivialization of a flat package on numerators over N.

    Returns (N, potentials, residual, global form), each a numerator
    level (the global form a {simplex: int} map); see
    ``holonomy_trivialization``.
    """
    d = pkg.degree
    nrv = pkg.nerve
    n = _package_denominator(pkg)
    layers = {q: pkg.layers[q]._over(n) for q in range(d)}
    potentials = {}
    prev = None
    for q in range(d):
        defect = layers[q] if prev is None else _add(layers[q], _delta(nrv, q - 1, prev), -1)
        out = {}
        for t in nrv.simplices_of_dim(q):
            # an empty defect is solved by 0, drawing nothing from shuffle
            rhs = defect.get(t)
            if rhs:
                local = _solve_local_d(nrv.intersection_of[t], d - q - 1, rhs, shuffle)
                if local:
                    out[t] = local
        # D v^(q) = A^(q) - delta v^(q-1) is the trivialization equation at q
        if _d(nrv, d - q - 1, out) != defect:
            raise NotACocycle(f"trivialization equation fails at layer {q}")
        potentials[q] = prev = out
    dprev = _delta(nrv, d - 1, prev)
    # D residual = D lift(c) - D dprev, and D lift(c) = 0: the lift is
    # constant on each intersection
    if _d(nrv, 0, dprev):
        raise NotACocycle("holonomy residual is not locally constant")
    residual = _add(_lift(nrv, pkg.cocycle, n), dprev, -1)
    # collapse the residual to a global d-cochain; every discarded
    # integer level certifies well-definedness mod 1
    assign = _min_piece_assignment(pkg.cover, shuffle)
    current = residual
    for p in range(d, 0, -1):
        u = _h(current, assign)
        if not _divisible(_add(current, _delta(nrv, p - 1, u), -1), n):
            raise NotACocycle("collapse residue is not integral")
        current = _d(nrv, d - p, u)
        if (p - 1) % 2 == 0:
            current = _add({}, current, -1)
    # contraction identity at Cech level 0: current = epsilon(global) + gauge
    # with gauge = h(delta current); gauge integral certifies mod-1 soundness
    gauge = _h(_delta(nrv, 0, current), assign)
    if not _divisible(gauge, n):
        raise NotACocycle("level-0 collapse residue is not integral")
    global_form = _collapse(pkg.cover.base, d, current, assign)
    if _add(current, gauge, -1) != _epsilon(nrv, d, global_form):
        raise NotACocycle("collapse did not reach a global cochain")
    return n, potentials, residual, global_form


def holonomy_trivialization(pkg, shuffle=None):
    """The second route to holonomy: the potentials v^(0)..v^(d-1) of a
    flat (restricted) package, its residual and their global form, whose
    pairing with a cycle is ``holonomy`` mod 1.  Stage q solves and checks
    D v^(q) = A^(q) - delta v^(q-1) on each acyclic intersection, and
    each residue of the collapse through h is checked integral, all on
    numerators over N; the fields hold them in lowest terms."""
    n, potentials, residual, global_form = _trivialize(pkg, shuffle)
    d = pkg.degree
    return HolonomyTrivialization(
        pkg,
        {
            q: DoubleCochain._trusted(pkg.cover, pkg.nerve, q, d - q - 1, x, n)
            for q, x in potentials.items()
        },
        DoubleCochain._trusted(pkg.cover, pkg.nerve, d, 0, residual, n),
        Cochain._trusted(pkg.cover.base, d, QQ, QQ.join([global_form], n)),
    )


def _flag_step(level, assign):
    """-h*(bd Z) of a level Z = {(nerve simplex t, simplex s): int}, bd the
    boundary of the form side and h* the transpose of ``_h``: the face f of
    s without vertex j goes to -(-1)^(j + pos) [T; f], T being t with a(f)
    inserted at position pos, or to 0 if a(f) is in t.  Keys merge."""
    out = {}
    for (t, s), w in level.items():
        j = len(s)  # combinations drops vertex j = len(s) - 1, ..., 0 in turn
        for f in combinations(s, j - 1):
            j -= 1
            i = assign[f]
            if i not in t:
                pos = bisect_left(t, i)
                key = (t[:pos] + (i,) + t[pos:], f)
                out[key] = out.get(key, 0) + (w if (j + pos) & 1 else -w)
    return {key: w for key, w in out.items() if w}


def holonomy(pkg, v, z, shuffle=None):
    """Circle-valued holonomy of the package around a closed subcomplex.

    ``v`` must be a d-dimensional subcomplex whose restricted cover is
    good and ``z`` a degree-d cycle on it; the package is re-validated,
    as only on a valid one is the value free of the choices.  With a the
    piece assignment on the cover of ``v``, Z_0 = sum z(s) [a(s); s] and
    Z_(k+1) = ``_flag_step``(Z_k); the value is (-1)^(d(d-1)/2) times
    <A^(0..d-1), lift(c); Z_0..Z_d> mod 1 (Gawedzki's flag formula), with
    no local solve.  A ``shuffle`` (a ``random.Random``) reorders a only."""
    d = pkg.degree
    if v.dim != d:
        raise NoFundamentalCycle(f"subcomplex has dimension {v.dim}, expected {d}")
    if z.degree != d:
        raise NoFundamentalCycle("cycle degree does not match the package")
    if not z.coefficients.keys() <= v.simplices:
        s = next(s for s in z.coefficients if s not in v.simplices)
        raise NoFundamentalCycle(f"cycle supported outside the subcomplex at {s}")
    if chain_boundary(z).coefficients:
        raise NoFundamentalCycle("chain is not a cycle")
    cover_v, _ = _good_cover_on(pkg, v)
    pkg.validate()
    assign = _min_piece_assignment(cover_v, shuffle)
    n = _package_denominator(pkg)
    level = {((assign[s],), s): w for s, w in z.coefficients.items()}
    total = 0
    for k in range(d):
        num, den = pkg.layers[k].num, pkg.layers[k].den
        if num:
            total += n // den * sum(w * num.get(t, {}).get(s, 0) for (t, s), w in level.items())
        level = _flag_step(level, assign)
    c = pkg.cocycle.values
    for (t, _), w in level.items():
        if t in c:
            x = c[t].value
            total += w * x.numerator * (n // x.denominator)
    return CircleElement(Fraction(-total if d * (d - 1) // 2 & 1 else total, n))
