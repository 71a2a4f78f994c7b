"""The Deligne double complex one Fraction at a time, kept as the oracle for the library's.

``cech_delta``, ``form_d`` and ``cech_homotopy`` add up rational values
entry by entry, and ``cech_homotopy`` evaluates the alternating extension
by sorting each index tuple with its sign; ``descent_chain`` and
``validate`` run the package equations on those Fractions.  The library's
``cechlift.deligne`` runs delta and D on integer numerators over one
common denominator, and h only transposed, in ``_flag_step``; both must
give equal layers.  ``validate`` and ``restrict`` read any record with a
package's fields, so the tests can hand them packages that the library's
constructor refuses.

``restrict`` and ``holonomy_trivialization`` are the second route to the
library's ``holonomy``: restrict a valid package to a subcomplex whose
restricted cover is good, solve D v^(q) = A^(q) - delta v^(q-1) on each
acyclic intersection (``solve_local_d``), and collapse the residual
lift(c) - delta v^(d-1) through h to a global d-cochain, checking every
collapse residue integral; its pairing with a cycle is the holonomy mod
1.  Results are built through the validating constructors, which take
these Fractions.  The local solve and the piece assignment are the
oracle's own: the solve back-substitutes over the pairs of
``collapse_oracle.greedy_collapse`` and falls back to ``abelian.solve``,
and the assignment scans the pieces, so nothing of the library's flag
sum is shared with the route that checks it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from cechlift import abelian
from cechlift.abelian import CIRCLE, QQ
from cechlift.cochains import Cochain, _perm_sign_and_sort, coboundary, verify_good_cover
from cechlift.complexes import Cover, SimplicialComplex, nerve
from cechlift.deligne import DelignePackage, DoubleCochain, _not_good
from cechlift.errors import CoverNotGood, DegreeMismatch, NoFundamentalCycle, NotACocycle

import collapse_oracle


def _face_sum(v, t):
    """(D v)(t) = sum of [t:r] v(r) over the faces r of t: an int on ints."""
    total = 0
    for j in range(len(t)):
        x = v.get(t[:j] + t[j + 1 :])
        if x:
            total += x if j % 2 == 0 else -x
    return total


def piece_assignment(cover, simplices, shuffle=None):
    """Each of the simplices goes to the first piece in order that holds
    it: the smallest index, or the first of the order ``shuffle.shuffle``
    makes."""
    order = list(range(len(cover.pieces)))
    if shuffle is not None:
        shuffle.shuffle(order)
    assign = {}
    for s in simplices:
        for i in order:
            if cover.pieces[i].has_simplex(s):
                assign[s] = i
                break
    return assign


def solve_local_d(inter, q, rhs, shuffle=None):
    """Solve D v = rhs exactly on an acyclic complex, v of form degree q.

    A zero right side is solved by 0.  Otherwise the pairs (s, t) of
    ``collapse_oracle.greedy_collapse`` (in the order ``shuffle`` makes)
    are read in reverse: v(s) = [t:s] (rhs(t) - the other faces' terms of
    t) for s of degree q, and v = 0 on every other q-simplex.  Where the
    collapse stops early (the dunce hat), ``abelian.solve`` over Q.  Ints
    give ints: an int right side whose solution over Q is not integral is
    refused, as on RP^2.
    """
    if not rhs:
        return {}
    pairs = collapse_oracle.greedy_collapse(inter, shuffle)
    if pairs is None:
        simps = inter.simplices_of_dim(q)
        b = [rhs.get(t, 0) for t in inter.simplices_of_dim(q + 1)]
        x = abelian.solve(inter.coboundary_matrix(q), b, "Q", len(simps))
        if x is None:
            raise CoverNotGood("local solve failed on a supposedly acyclic piece")
        if all(type(v) is int for v in rhs.values()):
            if any(xi.denominator != 1 for xi in x):
                raise CoverNotGood("local solve over Q is not integral on a supposedly acyclic piece")
            x = [xi.numerator for xi in x]
        return {s: xi for s, xi in zip(simps, x) if xi}
    v = {}
    paired = set()
    for s, t in reversed(pairs):
        if len(s) == q + 1:
            paired.add(t)
            # v(s) is still unset, so the face sum runs over the other faces
            acc = rhs.get(t, 0) - _face_sum(v, t)
            j = next((k for k, x in enumerate(s) if x != t[k]), len(s))
            if acc:
                v[s] = acc if j % 2 == 0 else -acc
    for t in inter.simplices_of_dim(q + 1):
        if t not in paired and _face_sum(v, t) != rhs.get(t, 0):
            raise CoverNotGood("local solve failed on a supposedly acyclic piece")
    return v


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
    assign = piece_assignment(cover, cover.base.simplices)
    layers = {}
    rhs = form_d(lift_cocycle(c, cover, nerve_))
    for q in range(d - 1, -1, -1):
        layer = cech_homotopy(rhs, assign)
        layers[q] = layer
        rhs = form_d(layer)
    pkg = DelignePackage(cover, nerve_, d, c, layers)
    validate(pkg)
    return pkg


def restrict(pkg, v):
    """The valid package ``pkg`` on the cover of the subcomplex ``v`` by its
    pieces cut down to ``v``, with the same piece indices; that cover must
    be good, the trivialization's precondition."""
    validate(pkg)
    if not v.is_subcomplex_of(pkg.cover.base):
        raise NoFundamentalCycle("restriction target is not a subcomplex of the base")
    cover_v = Cover(v, tuple(SimplicialComplex(v.vertex_count, p.simplices & v.simplices) for p in pkg.cover.pieces))
    nerve_v = nerve(cover_v)
    report = verify_good_cover(cover_v, nerve_v)
    if not report.ok:
        raise CoverNotGood(_not_good("restricted cover", report))
    cocycle = Cochain(nerve_v, pkg.degree, CIRCLE, {
        t: x for t, x in pkg.cocycle.values.items() if t in nerve_v.simplices
    })
    layers = {}
    for q, layer in pkg.layers.items():
        values = {}
        for t, loc in layer.values.items():
            inter = nerve_v.intersection_of.get(t)
            if inter is not None:
                values[t] = {s: x for s, x in loc.items() if s in inter.simplices}
        layers[q] = DoubleCochain(cover_v, nerve_v, q, layer.form_degree, values)
    return DelignePackage(cover_v, nerve_v, pkg.degree, cocycle, layers)


@dataclass
class Trivialization:
    """The potentials v^(0..d-1) of a restricted package, the residual
    lift(c) - delta v^(d-1) and its collapse, the global d-form."""

    package: DelignePackage
    potentials: dict
    residual: DoubleCochain
    global_form: Cochain


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
        values = defect.values
        out = {}
        for t in pkg.nerve.simplices_of_dim(q):
            inter = pkg.nerve.intersection_of[t]
            local = solve_local_d(inter, d - q - 1, values.get(t, {}), shuffle)
            if local:
                out[t] = local
        prev = DoubleCochain(pkg.cover, pkg.nerve, q, d - q - 1, out)
        potentials[q] = prev
    residual = lift_cocycle(pkg.cocycle, pkg.cover, pkg.nerve) - cech_delta(potentials[d - 1])
    if not form_d(residual).is_zero():
        raise NotACocycle("holonomy residual is not locally constant")
    assign = piece_assignment(pkg.cover, pkg.cover.base.simplices, shuffle)
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
    triv = Trivialization(pkg, potentials, residual, global_form)
    verify(triv)
    return triv
