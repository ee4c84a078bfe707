"""Small exact cone geometry, written apart from `hvol` so that inputs and
closed-form references do not depend on the program under measurement."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def _dot(a, b) -> Fraction:
    return sum((Fraction(x) * y for x, y in zip(a, b)), Fraction(0))


def _normal(vectors) -> list[int]:
    """A vector orthogonal to dim-1 vectors in dimension 2 or 3."""
    if len(vectors) == 1:
        (x, y), = vectors
        return [y, -x]
    (a1, a2, a3), (b1, b2, b3) = vectors
    return [a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1]


def dual_rays(rays) -> list[list[int]]:
    """Primitive rays of the dual of a full-dimensional cone in dimension 2 or 3."""
    dim = len(rays[0])
    if dim not in (2, 3):
        raise ValueError("dual_rays handles dimension 2 and 3 only")
    out: list[list[int]] = []
    for subset in itertools.combinations(rays, dim - 1):
        normal = _normal(subset)
        if not any(normal):
            continue
        g = math.gcd(*normal)
        for sign in (1, -1):
            cand = [sign * c // g for c in normal]
            if all(_dot(cand, r) >= 0 for r in rays) and cand not in out:
                out.append(cand)
    return out


def det(rows) -> Fraction:
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    out = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            out = -out
        out *= m[col][col]
        for r in range(col + 1, n):
            f = m[r][col] / m[col][col]
            m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return out


def simplicial_toric_volume(rays, xi) -> Fraction:
    """n! vol{y in dual cone : <xi, y> <= 1} = |det U| / prod <xi, u> over the
    n dual rays u of a simplicial cone (a simplex with vertices 0 and u/<xi,u>)."""
    dual = dual_rays(rays)
    if len(dual) != len(rays[0]):
        raise ValueError("closed-form toric volume needs a simplicial cone")
    volume = abs(det(dual))
    for u in dual:
        volume /= _dot(u, xi)
    return volume
