"""Answer checks that share no code path with the library being timed.

Cochains here are plain dicts from canonical simplices to numbers
(int for Z and Z/m, Fraction for Q and Q/Z).  Coboundaries, cup
products and pairings are recomputed from the alternating-face
formula; cohomology groups come from a table of known integral
cohomology plus the universal coefficient theorem; mod-2 coboundary
membership is decided by Gaussian elimination over GF(2) on bit masks,
never by the library's Smith normal form.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

#: Integral cohomology H^0, H^1, H^2 in invariant-factor form.
KNOWN_Z = {
    "circle": ((0,), (0,), ()),
    "rp2": ((0,), (), (2,)),
    "s2": ((0,), (), (0,)),
    "torus": ((0,), (0, 0), (0,)),
}


class Mismatch(Exception):
    """A job's answer disagrees with the oracle."""


def require(ok, what):
    if not ok:
        raise Mismatch(what)


def _prime_powers(n):
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders):
    """Invariant-factor form of a direct sum of cyclic groups (0 = Z)."""
    free = sum(1 for o in orders if o == 0)
    exps = {}
    for o in orders:
        if o > 1:
            for p, e in _prime_powers(o).items():
                exps.setdefault(p, []).append(e)
    length = max((len(v) for v in exps.values()), default=0)
    factors = []
    for i in range(length):
        d = 1
        for p, es in exps.items():
            es = sorted(es, reverse=True)
            if i < len(es):
                d *= p ** es[i]
        factors.append(d)
    return tuple(sorted(factors)) + (0,) * free


def cohomology_moduli(kind, p, modulus):
    """H^p(K; Z/modulus) from H^*(K; Z) by universal coefficients."""
    hz = KNOWN_Z[kind]
    here = hz[p] if p < len(hz) else ()
    if modulus == 0:
        return here
    above = hz[p + 1] if p + 1 < len(hz) else ()
    orders = [modulus if a == 0 else gcd(a, modulus) for a in here]
    orders += [gcd(a, modulus) for a in above if a > 0]
    return invariant_factors([o for o in orders if o != 1])


def group_str(moduli):
    """The report spelling of a group: '0', 'Z/2', 'Z + Z'."""
    if not moduli:
        return "0"
    return " + ".join(f"Z/{m}" if m else "Z" for m in moduli)


# ---------------------------------------------------------------------------
# plain-dict cochain arithmetic
# ---------------------------------------------------------------------------

def delta(values, next_simplices):
    """Coboundary of a dict cochain onto the given (p+1)-simplices."""
    out = {}
    for s in next_simplices:
        acc = 0
        for j in range(len(s)):
            v = values.get(s[:j] + s[j + 1:])
            if v:
                acc = acc + v if j % 2 == 0 else acc - v
        if acc:
            out[s] = acc
    return out


def reduce(values, modulus):
    """Drop zeros after reduction: modulus 0 = Z or Q, 1 = Q/Z, m = Z/m."""
    if modulus:
        values = {s: v % modulus for s, v in values.items()}
    return {s: v for s, v in values.items() if v}


def combine(terms, modulus):
    """sum of coeff * cochain over (coeff, dict) terms, reduced."""
    out = {}
    for coeff, values in terms:
        for s, v in values.items():
            out[s] = out.get(s, 0) + coeff * v
    return reduce(out, modulus)


def cup(a, p, b, q, simplices):
    """Alexander-Whitney cup of dict cochains onto (p+q)-simplices."""
    out = {}
    for s in simplices:
        va = a.get(s[: p + 1])
        if va:
            vb = b.get(s[p:])
            if vb:
                out[s] = va * vb
    return out


def pairing(values, chain):
    return sum((c * values.get(s, 0) for s, c in chain.items()), Fraction(0))


def fg_values(cochain):
    """Integer coordinates of a library cochain with cyclic coefficients."""
    return {s: v.coords[0] for s, v in cochain.values.items()}


def witness_ok(witness, x_values, next_simplices, modulus, as_number):
    """Whether delta(witness) equals x after reduction."""
    w = {s: as_number(v) for s, v in witness.values.items()}
    return reduce(delta(w, next_simplices), modulus) == reduce(x_values, modulus)


# ---------------------------------------------------------------------------
# GF(2) linear algebra
# ---------------------------------------------------------------------------

def gf2_in_image(columns, target_rows, vector):
    """Whether vector (dict row -> int) lies in the span of columns over GF(2).

    Each column is the list of its nonzero rows; rows are packed into
    bit masks in ``target_rows`` order and reduced by pivot bits.
    """
    index = {r: i for i, r in enumerate(target_rows)}
    basis = {}  # pivot bit -> reduced mask
    for rows in columns:
        mask = 0
        for r in rows:
            mask ^= 1 << index[r]
        while mask:
            top = mask.bit_length() - 1
            if top not in basis:
                basis[top] = mask
                break
            mask ^= basis[top]
    mask = 0
    for r, v in vector.items():
        if v % 2:
            mask ^= 1 << index[r]
    while mask:
        top = mask.bit_length() - 1
        if top not in basis:
            return False
        mask ^= basis[top]
    return True


def is_mod2_coboundary(values, lower_simplices, simplices):
    """Whether a mod-2 p-cochain is delta of some (p-1)-cochain."""
    # column of t: the p-simplices having t as a face
    cofaces = {t: [] for t in lower_simplices}
    for s in simplices:
        for j in range(len(s)):
            face = s[:j] + s[j + 1:]
            if face in cofaces:
                cofaces[face].append(s)
    return gf2_in_image([cofaces[t] for t in lower_simplices], list(simplices), values)
