"""Basis change of a cocycle, a helper the tests share: twist(c, B) is the
cocycle of the same G-module in the basis B, so the two are cohomologous."""

from orbipar.equivariant import Cocycle


def twist(c: Cocycle, b) -> Cocycle:
    """Basis change: A_g -> B^{-1} * A_g * psi(g)(B)."""
    b_inv = b.inverse()
    mats = tuple(b_inv * c.mats[g] * c.ext.psi(g)(b)
                 for g in range(c.ext.group.order))
    return Cocycle(c.ext, c.rank, mats)
