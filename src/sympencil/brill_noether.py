"""Brill-Noether bookkeeping for linear systems on pencil fibres.

Virtual dimensions of the loci of degree-r, dimension-s linear systems on a
genus-g curve, the codimension predicate used to rule residual systems out
generically, and the Abel-Jacobi fibre-dimension profiles in the high-degree
range.
"""

from __future__ import annotations

from typing import Optional

from .exact import _require_ints
from .record import Record


class BNQuery(Record):
    """A query for systems of degree r and projective dimension s on a
    genus-g curve."""

    __slots__ = ("g", "r", "s")

    g: int
    r: int
    s: int

    def __post_init__(self):
        _require_ints((self.g, self.r, self.s), "g, r and s must be integers")
        if self.g < 2:
            raise ValueError("genus must be at least 2")
        if self.s < 0:
            raise ValueError("system dimension s must be nonnegative")


def rho(q: BNQuery) -> int:
    """Virtual dimension rho = g - (s+1)(g - r + s)."""
    return q.g - (q.s + 1) * (q.g - q.r + q.s)


def eh_predicate(q: BNQuery) -> bool:
    """Whether the locus of curves carrying such a system has codimension
    greater than one in moduli: true iff rho < -1."""
    return rho(q) < -1


class AbelJacobiFibres(Record):
    """Fibre-dimension profile of the degree-r Abel-Jacobi map."""

    __slots__ = ("generic_dim", "jump_dim", "jump_locus_degree", "descriptor")

    generic_dim: int
    jump_dim: Optional[int]
    jump_locus_degree: Optional[int]
    descriptor: str


def abel_jacobi_fibre_dims(g: int, r: int) -> AbelJacobiFibres:
    """Fibre dimensions of Sym^r -> Pic^r for r in the ample range r > g-1.

    Generic fibres are projective spaces of dimension r - g; the dimension
    jumps by exactly one over a locus identified with the symmetric product
    of degree 2g - 2 - r, which is a point at r = 2g - 2 and empty beyond.
    """
    _require_ints((g, r), "g and r must be integers")
    if g < 2:
        raise ValueError("genus must be at least 2")
    if r <= g - 1:
        raise ValueError(
            f"degree r = {r} is not above g - 1 = {g - 1}; "
            "outside the ample regime"
        )
    generic = r - g
    jump_degree = 2 * g - 2 - r
    if jump_degree < 0:
        return AbelJacobiFibres(
            generic_dim=generic,
            jump_dim=None,
            jump_locus_degree=None,
            descriptor="empty",
        )
    if jump_degree == 0:
        descriptor = "point"
    else:
        descriptor = f"Sym^{jump_degree} of the fibre"
    return AbelJacobiFibres(
        generic_dim=generic,
        jump_dim=generic + 1,
        jump_locus_degree=jump_degree,
        descriptor=descriptor,
    )
