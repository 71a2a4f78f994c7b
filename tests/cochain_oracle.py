"""Per-coefficient-type cochain routes, kept as the oracle for the library's.

``coboundary`` here adds up the faces of every (p+1)-simplex one group
element at a time, through ``GroupElement`` and ``CircleElement``
arithmetic (Fractions over Q), and builds its result with the validating
``Cochain`` constructor.  The library's ``cochains.coboundary`` sums
plain coordinates and reduces once; both must give equal cochains.

``is_coboundary``, ``class_coords``, ``generators`` and ``cup`` take one
route per coefficient type: a branch per group class turns values into
plain numbers (``_fg_vectors``) and back (``_elements``), and the cup
product reads a table of seven declared products, each with its own
multiplication.  ``is_coboundary`` factors the coboundary matrix anew
and solves through the public ``abelian.solve`` over Z and Z/m, and over
Q and Q/Z through ``conftest.oracle_fraction_back_substitute``, which
takes every product on Fractions: it shares no denominator handling with
the library.  The library runs one path for every group, through the
group's ``split`` and ``join``; both must give equal witnesses,
refusals, coordinates, generators and products.
"""

from __future__ import annotations

from cechlift import abelian
from cechlift.abelian import (
    CIRCLE,
    QQ,
    CircleElement,
    CircleGroup,
    FgAbelianGroup,
    GroupElement,
    RationalGroup,
)
from cechlift.cochains import Cochain
from cechlift.errors import GroupMismatch, NoProduct, NotACocycle

from conftest import oracle_fraction_back_substitute


def coboundary(x):
    """(delta x)(i_0..i_{p+1}) = sum_j (-1)^j x(i_0..îj..i_{p+1})."""
    out = {}
    for s in x.carrier.simplices_of_dim(x.degree + 1):
        acc = x.group.zero()
        for j in range(len(s)):
            v = x.values.get(s[:j] + s[j + 1 :])
            if v is not None:
                acc = acc + v if j % 2 == 0 else acc - v
        out[s] = acc
    return Cochain(x.carrier, x.degree + 1, x.group, out)


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


def _require_cocycle(x):
    if not coboundary(x).is_zero():
        raise NotACocycle("input cochain is not a cocycle")


def is_coboundary(x):
    """A witness y with delta y = x, or None; NotACocycle when delta x != 0."""
    p = x.degree
    rows = x.carrier.simplices_of_dim(p)
    if p == 0 or not rows:
        _require_cocycle(x)
        if p == 0:
            return Cochain(x.carrier, -1, x.group) if x.is_zero() else None
        return Cochain(x.carrier, p - 1, x.group)
    cols = x.carrier.simplices_of_dim(p - 1)
    matrix = x.carrier.coboundary_matrix(p - 1)
    g = x.group
    get = x.values.get
    if isinstance(g, FgAbelianGroup):
        per_factor = [
            abelian.solve(matrix, vec, m or "Z", len(cols))
            for m, vec in zip(g.moduli, _fg_vectors(x, rows))
        ]
        sol = None if None in per_factor else zip(*per_factor)
    elif isinstance(g, CircleGroup):
        sol = oracle_fraction_back_substitute(
            matrix, len(cols), [v.value if (v := get(s)) is not None else 0 for s in rows], "Q/Z"
        )
    elif isinstance(g, RationalGroup):
        sol = oracle_fraction_back_substitute(matrix, len(cols), [get(s, 0) for s in rows], "Q")
    else:
        raise GroupMismatch("unsupported coefficient group")
    if sol is None:
        _require_cocycle(x)
        return None
    return Cochain._trusted(x.carrier, p - 1, g, _elements(g, dict(zip(cols, sol))))


def class_coords(classes, x):
    """``classes.class_coords(x)`` through per-factor coordinate vectors."""
    simps = classes.carrier.simplices_of_dim(classes.degree)
    return classes._coords(_fg_vectors(x, simps))


def generators(classes):
    """``classes.generators()`` built through ``_elements``."""
    simps = classes.carrier.simplices_of_dim(classes.degree)
    out = []
    for per_factor in classes._generator_vectors():
        values = _elements(classes.coefficients, dict(zip(simps, zip(*per_factor))))
        out.append(Cochain._trusted(classes.carrier, classes.degree, classes.coefficients, values))
    return out


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

        def mul(a, b, target=target):
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
    """Alexander-Whitney cup product, one table entry's product per simplex."""
    target, mul = _cup_target(a.group, b.group)
    p, q = a.degree, b.degree
    out = {}
    for s in a.carrier.simplices_of_dim(p + q):
        va = a.values.get(s[: p + 1])
        vb = b.values.get(s[p:])
        if va is not None and vb is not None:
            out[s] = mul(va, vb)
    return Cochain(a.carrier, p + q, target, out)
