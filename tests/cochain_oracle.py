"""The term-by-term coboundary, kept as the oracle for the library's.

``coboundary`` here adds up the faces of every (p+1)-simplex one group
element at a time, through ``GroupElement`` and ``CircleElement``
arithmetic (Fractions over Q), and builds its result with the validating
``Cochain`` constructor.  The library's ``cochains.coboundary`` sums
plain coordinates and reduces once; both must give equal cochains.
"""

from __future__ import annotations

from cechlift.cochains import Cochain


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
