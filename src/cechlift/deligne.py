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
classifying cocycle is integer-valued; holonomy is well defined mod 1
because every collapse residue is integer-valued (asserted at runtime).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import abelian
from .abelian import CIRCLE, CircleElement, QQ
from .cochains import Cochain, _perm_sign_and_sort, coboundary, verify_good_cover
from .complexes import Cover, Nerve, chain_boundary, nerve
from .errors import (
    CoverNotGood,
    CoverNotGoodOnV,
    DegreeMismatch,
    NoFundamentalCycle,
    NotACocycle,
)


class DoubleCochain:
    """Cech p-cochain of rational simplicial q-cochains on intersections.

    ``values`` maps each canonical nerve p-simplex to a dict from
    simplices of the corresponding intersection subcomplex to Fractions;
    missing entries are zero.  Evaluation on permuted Cech tuples is
    alternating.
    """

    __slots__ = ("cover", "nerve", "cech_degree", "form_degree", "values")

    def __init__(self, cover, nerve_, cech_degree, form_degree, values=None):
        self.cover = cover
        self.nerve = nerve_
        self.cech_degree = int(cech_degree)
        self.form_degree = int(form_degree)
        vals = {}
        if values:
            for t, local in values.items():
                t = tuple(t)
                if len(t) != self.cech_degree + 1 or t not in nerve_.simplices:
                    raise DegreeMismatch(f"{t} is not a nerve {self.cech_degree}-simplex")
                inter = nerve_.intersection_of[t]
                clean = {}
                for s, v in local.items():
                    s = tuple(s)
                    if len(s) != self.form_degree + 1 or not inter.has_simplex(s):
                        raise DegreeMismatch(
                            f"{s} is not a {self.form_degree}-simplex of the intersection {t}"
                        )
                    v = Fraction(v)
                    if v:
                        clean[s] = v
                if clean:
                    vals[t] = clean
        self.values = vals

    @classmethod
    def _trusted(cls, cover, nerve_, cech_degree, form_degree, values):
        """A double cochain whose values are valid by construction.

        Every key must be a nerve simplex of the Cech degree and every
        local value a Fraction on a simplex of the form degree in its
        intersection; only zero entries and empty locals are dropped.
        """
        self = cls.__new__(cls)
        self.cover = cover
        self.nerve = nerve_
        self.cech_degree = cech_degree
        self.form_degree = form_degree
        vals = {}
        for t, local in values.items():
            clean = {s: v for s, v in local.items() if v}
            if clean:
                vals[t] = clean
        self.values = vals
        return self

    def local(self, t):
        return self.values.get(tuple(t), {})

    def cech_value(self, indices, s):
        """Alternating evaluation: Cech tuple in any order, one simplex."""
        canon, sign = _perm_sign_and_sort(indices)
        if sign == 0:
            return Fraction(0)
        return sign * self.values.get(canon, {}).get(tuple(s), Fraction(0))

    def is_zero(self):
        return not self.values

    def _same_shape(self, other):
        if self.cover is not other.cover and self.cover != other.cover:
            raise DegreeMismatch("double cochains on different covers")
        if self.cech_degree != other.cech_degree or self.form_degree != other.form_degree:
            raise DegreeMismatch("double cochains of different bidegree")

    def __add__(self, other):
        self._same_shape(other)
        out = {t: dict(loc) for t, loc in self.values.items()}
        for t, loc in other.values.items():
            dst = out.setdefault(t, {})
            for s, v in loc.items():
                dst[s] = dst.get(s, Fraction(0)) + v
        return DoubleCochain._trusted(self.cover, self.nerve, self.cech_degree, self.form_degree, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return DoubleCochain._trusted(
            self.cover,
            self.nerve,
            self.cech_degree,
            self.form_degree,
            {t: {s: -v for s, v in loc.items()} for t, loc in self.values.items()},
        )

    def __eq__(self, other):
        if not isinstance(other, DoubleCochain):
            return NotImplemented
        return (
            self.cech_degree == other.cech_degree
            and self.form_degree == other.form_degree
            and self.values == other.values
        )

    def is_integral(self):
        return all(
            v.denominator == 1 for loc in self.values.values() for v in loc.values()
        )

    def __repr__(self):
        return (
            f"DoubleCochain(cech={self.cech_degree}, form={self.form_degree}, "
            f"support={len(self.values)})"
        )


def cech_delta(x):
    """Cech coboundary: alternating sum of restrictions to the deeper
    intersection."""
    out = {}
    for t in x.nerve.simplices_of_dim(x.cech_degree + 1):
        inter = x.nerve.intersection_of[t]
        acc = {}
        for j in range(len(t)):
            face = t[:j] + t[j + 1 :]
            loc = x.values.get(face)
            if not loc:
                continue
            sgn = 1 if j % 2 == 0 else -1
            for s, v in loc.items():
                if s in inter.simplices:
                    acc[s] = acc.get(s, Fraction(0)) + sgn * v
        out[t] = acc
    return DoubleCochain._trusted(x.cover, x.nerve, x.cech_degree + 1, x.form_degree, out)


def form_d(x):
    """Local simplicial coboundary applied on every intersection."""
    out = {}
    for t, loc in x.values.items():
        inter = x.nerve.intersection_of[t]
        acc = {}
        for s in inter.simplices_of_dim(x.form_degree + 1):
            total = _face_sum(loc, s)
            if total:
                acc[s] = total
        out[t] = acc
    return DoubleCochain._trusted(x.cover, x.nerve, x.cech_degree, x.form_degree + 1, out)


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
        for s in cover.pieces[i].simplices:
            assign[s] = i
    return assign


def cech_homotopy(x, assign):
    """The partition-of-unity contraction h with delta(h x) + h(delta x) = x.

    (h x)_{i_0..i_{p-1}}(tau) = x_{assign(tau), i_0..i_{p-1}}(tau).
    """
    p = x.cech_degree
    out = {}
    for t in x.nerve.simplices_of_dim(p - 1):
        inter = x.nerve.intersection_of[t]
        acc = {}
        for s in inter.simplices_of_dim(x.form_degree):
            v = x.cech_value((assign[s],) + t, s)
            if v:
                acc[s] = v
        out[t] = acc
    return DoubleCochain._trusted(x.cover, x.nerve, p - 1, x.form_degree, out)


def collapse_to_global(x, assign):
    """The global cochain tau -> x_{assign(tau)}(tau) of a Cech 0-level."""
    values = {}
    for s in x.cover.base.simplices_of_dim(x.form_degree):
        v = x.values.get((assign[s],), {}).get(s)
        if v:
            values[s] = v
    return Cochain._trusted(x.cover.base, x.form_degree, QQ, values)


# ---------------------------------------------------------------------------
# packages
# ---------------------------------------------------------------------------

def lift_cocycle(c, cover, nerve_):
    """The classifying cocycle as locally constant rational 0-forms.

    Each circle value is replaced by its representative in [0, 1),
    spread over the vertices of its intersection subcomplex.
    """
    values = {}
    for t in nerve_.simplices_of_dim(c.degree):
        v = c.values.get(t)
        if v is None:
            continue
        rep = v.value
        inter = nerve_.intersection_of[t]
        values[t] = {s: rep for s in inter.simplices_of_dim(0)}
    return DoubleCochain._trusted(cover, nerve_, c.degree, 0, values)


@dataclass
class DelignePackage:
    """A classifying circle cocycle with compatible local form layers.

    Layer q has Cech degree q and form degree (degree - q); the package
    equations are

        delta A^(d-1) = D lift(c)
        D A^(q) = delta A^(q-1)       for 0 < q <= d-1

    and delta c = 0 in Q/Z.  ``validate`` re-checks everything exactly.
    """

    cover: Cover
    nerve: Nerve
    degree: int
    cocycle: Cochain
    layers: dict

    def validate(self):
        d = self.degree
        if self.cocycle.degree != d or self.cocycle.group != CIRCLE:
            raise NotACocycle("classifying cocycle has the wrong shape")
        if not coboundary(self.cocycle).is_zero():
            raise NotACocycle("classifying cochain is not a cocycle")
        for q in range(d):
            layer = self.layers.get(q)
            if layer is None or layer.cech_degree != q or layer.form_degree != d - q:
                raise DegreeMismatch(f"layer {q} missing or of wrong bidegree")
        top = cech_delta(self.layers[d - 1])
        rhs = form_d(lift_cocycle(self.cocycle, self.cover, self.nerve))
        if top != rhs:
            raise NotACocycle("top descent equation fails")
        for q in range(1, d):
            if form_d(self.layers[q]) != cech_delta(self.layers[q - 1]):
                raise NotACocycle(f"middle descent equation fails at layer {q}")
        return True


def _not_good(what, report):
    """Error text naming how many intersections fail, then the first ones."""
    count = len({s for s, _, _ in report.failures})
    return f"{what} is not good ({count} non-acyclic intersections): {report.describe()}"


def descent_chain(c, cover, nerve_=None):
    """Build the layers of a connective structure under a good cover.

    The cover is verified good first (CoverNotGood reports the bad
    intersections); each layer solves its Cech equation through the
    deterministic partition-of-unity contraction, and the finished
    package is re-validated term by term.
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
    if not coboundary(c).is_zero():
        raise NotACocycle("classifying cochain is not a cocycle")
    assign = _min_piece_assignment(cover)
    layers = {}
    rhs = form_d(lift_cocycle(c, cover, nerve_))
    for q in range(d - 1, -1, -1):
        layer = cech_homotopy(rhs, assign)
        layers[q] = layer
        rhs = form_d(layer)
    pkg = DelignePackage(cover, nerve_, d, c, layers)
    pkg.validate()
    return pkg


def curvature(pkg):
    """The global closed rational (d+1)-cochain D A^(0), glued.

    Gluing is well defined because delta(D A^(0)) = D(D A^(1)) = 0; the
    agreement of every covering index and the closedness are asserted.
    """
    d = pkg.degree
    bottom = form_d(pkg.layers[0])
    glued = {}
    clashes = []
    for i, piece in enumerate(pkg.cover.pieces):
        local = bottom.values.get((i,), {})
        for s in piece.simplices_of_dim(d + 1):
            v = local.get(s, Fraction(0))
            if glued.setdefault(s, v) != v:
                clashes.append(s)
    if clashes:
        raise NotACocycle(f"curvature does not glue at {min(clashes)}")
    out = Cochain._trusted(pkg.cover.base, d + 1, QQ, {s: v for s, v in glued.items() if v})
    if not coboundary(out).is_zero():
        raise NotACocycle("curvature is not closed")
    return out


def characteristic_form(pkg, power):
    """The cup power curvature^power: a closed (power*(d+1))-cochain."""
    from .cochains import cup

    if power < 1:
        raise DegreeMismatch("monomial degree must be >= 1")
    f = curvature(pkg)
    out = f
    for _ in range(power - 1):
        out = cup(out, f)
    return out


def pair(x, z):
    """Evaluate a global rational cochain on a chain: sum of coeff * value."""
    if x.degree != z.degree:
        raise DegreeMismatch("pairing a cochain and chain of different degrees")
    total = Fraction(0)
    for s, coeff in z.coefficients.items():
        v = x.values.get(s)
        if v is not None:
            total += coeff * v
    return total


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
    df = coboundary(f)
    values = {}
    for t in pkg.nerve.simplices_of_dim(0):
        inter = pkg.nerve.intersection_of[t]
        loc = {s: df.values[s] for s in inter.simplices_of_dim(pkg.degree) if s in df.values}
        if loc:
            values[t] = loc
    shift = DoubleCochain(pkg.cover, pkg.nerve, 0, pkg.degree, values)
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
    for t, loc in x.values.items():
        inter = nerve_v.intersection_of.get(t)
        if inter is not None:
            out[t] = {s: v for s, v in loc.items() if s in inter.simplices}
    return DoubleCochain._trusted(cover_v, nerve_v, x.cech_degree, x.form_degree, out)


def restrict_package(pkg, v):
    """The package restricted to a subcomplex, with goodness verified.

    The restricted cover and its nerve are kept by the package's cover
    (``Cover.restricted_to``), so a repeated subcomplex reuses them and
    the collapse certificates of their intersections.  Goodness is
    checked again on every call; only the layers and the cocycle are
    restricted per package.
    """
    if not v.is_subcomplex_of(pkg.cover.base):
        raise NoFundamentalCycle("restriction target is not a subcomplex of the base")
    cover_v, nerve_v = pkg.cover.restricted_to(v)
    report = verify_good_cover(cover_v, nerve_v)
    if not report.ok:
        raise CoverNotGoodOnV(_not_good("restricted cover", report))
    layers = {
        q: _restrict_double(layer, cover_v, nerve_v) for q, layer in pkg.layers.items()
    }
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
        d = self.package.degree
        prev = None
        for q in range(d):
            lhs = self.package.layers[q]
            rhs = form_d(self.potentials[q])
            if prev is not None:
                rhs = rhs + cech_delta(prev)
            if lhs != rhs:
                raise NotACocycle(f"trivialization equation fails at layer {q}")
            prev = self.potentials[q]
        if not form_d(self.residual).is_zero():
            raise NotACocycle("holonomy residual is not locally constant")
        return True


def _solve_local_d(inter, q, rhs_local, shuffle=None):
    """Solve D v = rhs on one acyclic intersection, exactly.

    ``q`` is the form degree of the unknown v.  With a collapse
    certificate the solve is a back-substitution: walking the pairs
    (q-simplex s, (q+1)-simplex t) in reverse collapse order,
    v(s) = [t:s] (rhs(t) - sum of [t:r] v(r) over the other faces r of
    t), and every other q-simplex gets 0.  An intersection without one
    is solved by Smith over Q.  A ``shuffle`` reorders the free faces of
    the collapse (or the Smith columns) and so selects a different exact
    solution from the same affine space; the holonomy value must not
    depend on it.
    """
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
    total = Fraction(0)
    for j in range(len(t)):
        x = v.get(t[:j] + t[j + 1 :])
        if x:
            total += x if j % 2 == 0 else -x
    return total


def _smith_solve_local_d(inter, q, rhs_local, shuffle=None):
    """Solve D v = rhs by Smith over Q, columns shuffled on request."""
    simps = inter.simplices_of_dim(q)
    order = list(range(len(simps)))
    if shuffle is not None:
        shuffle.shuffle(order)
    mat = [[row[k] for k in order] for row in inter.coboundary_matrix(q)]
    b = [rhs_local.get(s, Fraction(0)) for s in inter.simplices_of_dim(q + 1)]
    sol = abelian.solve(mat, b, "Q", ncols=len(simps))
    if sol is None:
        raise CoverNotGoodOnV("local solve failed on a supposedly acyclic piece")
    return {simps[k]: x for k, x in zip(order, sol) if x}


def holonomy_trivialization(pkg, shuffle=None):
    """Solve the flat-package potentials v^(0)..v^(d-1) and the residual.

    Stage q solves D v^(q) = A^(q) - delta v^(q-1) on every acyclic
    intersection; flatness of the restriction (top-degree vanishing of
    the curvature) makes stage 0 solvable and the descent equations make
    every later defect D-closed.
    """
    d = pkg.degree
    potentials = {}
    prev = None
    for q in range(d):
        defect = pkg.layers[q]
        if prev is not None:
            defect = defect - cech_delta(prev)
        out = {}
        for t in pkg.nerve.simplices_of_dim(q):
            inter = pkg.nerve.intersection_of[t]
            local = _solve_local_d(inter, d - q - 1, defect.local(t), shuffle)
            if local:
                out[t] = local
        prev = DoubleCochain._trusted(pkg.cover, pkg.nerve, q, d - q - 1, out)
        potentials[q] = prev
    residual = lift_cocycle(pkg.cocycle, pkg.cover, pkg.nerve) - cech_delta(potentials[d - 1])
    if not form_d(residual).is_zero():
        raise NotACocycle("holonomy residual is not locally constant")
    # collapse the residual to a global d-cochain; every discarded
    # integer level certifies well-definedness mod 1
    assign = _min_piece_assignment(pkg.cover, shuffle)
    current = residual
    for p in range(d, 0, -1):
        u = cech_homotopy(current, assign)
        leftover = current - cech_delta(u)
        if not leftover.is_integral():
            raise NotACocycle("collapse residue is not integral")
        sign = 1 if (p - 1) % 2 == 0 else -1
        current = -form_d(u) if sign == 1 else form_d(u)
    # contraction identity at Cech level 0: current = epsilon(global) + gauge
    # with gauge = h(delta current); gauge integral certifies mod-1 soundness
    gauge = cech_homotopy(cech_delta(current), assign)
    if not gauge.is_integral():
        raise NotACocycle("level-0 collapse residue is not integral")
    global_form = collapse_to_global(current, assign)
    if current - gauge != _epsilon_of_global(global_form, current):
        raise NotACocycle("collapse did not reach a global cochain")
    triv = HolonomyTrivialization(pkg, potentials, residual, global_form)
    triv.verify()
    return triv


def _epsilon_of_global(c, like):
    """The Cech 0-level obtained by restricting a global cochain."""
    values = {}
    for t in like.nerve.simplices_of_dim(0):
        inter = like.nerve.intersection_of[t]
        loc = {}
        for s in inter.simplices_of_dim(like.form_degree):
            v = c.values.get(s)
            if v:
                loc[s] = v
        values[t] = loc
    return DoubleCochain._trusted(like.cover, like.nerve, 0, like.form_degree, values)


def holonomy(pkg, v, z, shuffle=None):
    """Circle-valued holonomy of the package around a closed subcomplex.

    ``v`` must be a d-dimensional subcomplex whose restricted cover is
    good, and ``z`` a degree-d fundamental cycle supported on it.  The
    result is the pairing of the trivialized global d-cochain with z,
    mod 1; it is independent of all solver choices.  The package's cover
    keeps its restriction to ``v`` and the restricted nerve, so a
    repeated ``v`` builds neither again; goodness of the restricted cover
    is re-checked on every call.  Goodness and the local solves use each
    intersection's collapse certificate, and Smith only where there is
    none.  A ``shuffle`` (a ``random.Random``) reorders the free faces of
    fresh certificates, the Smith columns of the rest, and the piece
    assignment of the collapse to a global cochain.
    """
    d = pkg.degree
    if v.dim != d:
        raise NoFundamentalCycle(f"subcomplex has dimension {v.dim}, expected {d}")
    if z.degree != d:
        raise NoFundamentalCycle("cycle degree does not match the package")
    for s in z.coefficients:
        if not v.has_simplex(s):
            raise NoFundamentalCycle(f"cycle supported outside the subcomplex at {s}")
    if chain_boundary(z).coefficients:
        raise NoFundamentalCycle("chain is not a cycle")
    restricted = restrict_package(pkg, v)
    triv = holonomy_trivialization(restricted, shuffle)
    return CircleElement(pair(triv.global_form, z))
