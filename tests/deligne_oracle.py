"""The Deligne double complex one Fraction at a time, kept as the oracle for the library's.

``cech_delta``, ``form_d`` and ``cech_homotopy`` add up rational values
entry by entry, and ``cech_homotopy`` evaluates the alternating extension
by sorting each index tuple with its sign; ``descent_chain``, ``validate``,
``holonomy_trivialization`` and ``verify`` run the package equations and
every check of the collapse on those Fractions.  The library's
``cechlift.deligne`` runs the same operators on integer numerators over
one common denominator; both must give equal layers, potentials,
residuals and global forms.  Results are built through the validating
``DoubleCochain`` constructor, which takes these Fractions.  The local
solve ``_solve_local_d`` and the piece assignment are shared: they do
not depend on the number type.
"""

from __future__ import annotations

from fractions import Fraction

from cechlift.abelian import CIRCLE, QQ
from cechlift.cochains import Cochain, _perm_sign_and_sort, coboundary, verify_good_cover
from cechlift.deligne import (
    DelignePackage,
    DoubleCochain,
    HolonomyTrivialization,
    _min_piece_assignment,
    _not_good,
    _solve_local_d,
)
from cechlift.errors import CoverNotGood, DegreeMismatch, NotACocycle


def _face_sum(v, t):
    total = Fraction(0)
    for j in range(len(t)):
        x = v.get(t[:j] + t[j + 1 :])
        if x:
            total += x if j % 2 == 0 else -x
    return total


def cech_value(values, indices, s):
    """Fraction values on a Cech tuple in any order, at one simplex."""
    canon, sign = _perm_sign_and_sort(indices)
    if sign == 0:
        return Fraction(0)
    return sign * values.get(canon, {}).get(s, Fraction(0))


def is_integral(x):
    return all(v.denominator == 1 for loc in x.values.values() for v in loc.values())


def cech_delta(x):
    values = x.values
    out = {}
    for t in x.nerve.simplices_of_dim(x.cech_degree + 1):
        inter = x.nerve.intersection_of[t]
        acc = {}
        for j in range(len(t)):
            face = t[:j] + t[j + 1 :]
            loc = values.get(face)
            if not loc:
                continue
            sgn = 1 if j % 2 == 0 else -1
            for s, v in loc.items():
                if s in inter.simplices:
                    acc[s] = acc.get(s, Fraction(0)) + sgn * v
        out[t] = acc
    return DoubleCochain(x.cover, x.nerve, x.cech_degree + 1, x.form_degree, out)


def form_d(x):
    out = {}
    for t, loc in x.values.items():
        inter = x.nerve.intersection_of[t]
        acc = {}
        for s in inter.simplices_of_dim(x.form_degree + 1):
            total = _face_sum(loc, s)
            if total:
                acc[s] = total
        out[t] = acc
    return DoubleCochain(x.cover, x.nerve, x.cech_degree, x.form_degree + 1, out)


def cech_homotopy(x, assign):
    p = x.cech_degree
    values = x.values
    out = {}
    for t in x.nerve.simplices_of_dim(p - 1):
        inter = x.nerve.intersection_of[t]
        acc = {}
        for s in inter.simplices_of_dim(x.form_degree):
            v = cech_value(values, (assign[s],) + t, s)
            if v:
                acc[s] = v
        out[t] = acc
    return DoubleCochain(x.cover, x.nerve, p - 1, x.form_degree, out)


def collapse_to_global(x, assign):
    level = x.values
    values = {}
    for s in x.cover.base.simplices_of_dim(x.form_degree):
        v = level.get((assign[s],), {}).get(s)
        if v:
            values[s] = v
    return Cochain._trusted(x.cover.base, x.form_degree, QQ, values)


def lift_cocycle(c, cover, nerve_):
    values = {}
    for t in nerve_.simplices_of_dim(c.degree):
        v = c.values.get(t)
        if v is None:
            continue
        inter = nerve_.intersection_of[t]
        values[t] = {s: v.value for s in inter.simplices_of_dim(0)}
    return DoubleCochain(cover, nerve_, c.degree, 0, values)


def validate(pkg):
    d = pkg.degree
    if pkg.cocycle.degree != d or pkg.cocycle.group != CIRCLE:
        raise NotACocycle("classifying cocycle has the wrong shape")
    if not coboundary(pkg.cocycle).is_zero():
        raise NotACocycle("classifying cochain is not a cocycle")
    for q in range(d):
        layer = pkg.layers.get(q)
        if layer is None or layer.cech_degree != q or layer.form_degree != d - q:
            raise DegreeMismatch(f"layer {q} missing or of wrong bidegree")
    top = cech_delta(pkg.layers[d - 1])
    if top != form_d(lift_cocycle(pkg.cocycle, pkg.cover, pkg.nerve)):
        raise NotACocycle("top descent equation fails")
    for q in range(1, d):
        if form_d(pkg.layers[q]) != cech_delta(pkg.layers[q - 1]):
            raise NotACocycle(f"middle descent equation fails at layer {q}")
    return True


def descent_chain(c, cover, nerve_):
    d = c.degree
    report = verify_good_cover(cover, nerve_)
    if not report.ok:
        raise CoverNotGood(_not_good("cover", report))
    assign = _min_piece_assignment(cover)
    layers = {}
    rhs = form_d(lift_cocycle(c, cover, nerve_))
    for q in range(d - 1, -1, -1):
        layer = cech_homotopy(rhs, assign)
        layers[q] = layer
        rhs = form_d(layer)
    pkg = DelignePackage(cover, nerve_, d, c, layers)
    validate(pkg)
    return pkg


def verify(triv):
    d = triv.package.degree
    prev = None
    for q in range(d):
        rhs = form_d(triv.potentials[q])
        if prev is not None:
            rhs = rhs + cech_delta(prev)
        if triv.package.layers[q] != rhs:
            raise NotACocycle(f"trivialization equation fails at layer {q}")
        prev = triv.potentials[q]
    if not form_d(triv.residual).is_zero():
        raise NotACocycle("holonomy residual is not locally constant")
    return True


def _epsilon_of_global(c, like):
    values = {}
    for t in like.nerve.simplices_of_dim(0):
        inter = like.nerve.intersection_of[t]
        loc = {}
        for s in inter.simplices_of_dim(like.form_degree):
            v = c.values.get(s)
            if v:
                loc[s] = v
        values[t] = loc
    return DoubleCochain(like.cover, like.nerve, 0, like.form_degree, values)


def holonomy_trivialization(pkg, shuffle=None):
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
        prev = DoubleCochain(pkg.cover, pkg.nerve, q, d - q - 1, out)
        potentials[q] = prev
    residual = lift_cocycle(pkg.cocycle, pkg.cover, pkg.nerve) - cech_delta(potentials[d - 1])
    if not form_d(residual).is_zero():
        raise NotACocycle("holonomy residual is not locally constant")
    assign = _min_piece_assignment(pkg.cover, shuffle)
    current = residual
    for p in range(d, 0, -1):
        u = cech_homotopy(current, assign)
        if not is_integral(current - cech_delta(u)):
            raise NotACocycle("collapse residue is not integral")
        current = -form_d(u) if (p - 1) % 2 == 0 else form_d(u)
    gauge = cech_homotopy(cech_delta(current), assign)
    if not is_integral(gauge):
        raise NotACocycle("level-0 collapse residue is not integral")
    global_form = collapse_to_global(current, assign)
    if current - gauge != _epsilon_of_global(global_form, current):
        raise NotACocycle("collapse did not reach a global cochain")
    triv = HolonomyTrivialization(pkg, potentials, residual, global_form)
    verify(triv)
    return triv
