"""Pencil numerology: fibre genus, base and critical point counts, fibre
degrees, and the conservative surface-count decision rules.

A degree-k pencil on a lattice is pure bookkeeping here: the fibre class is
k times the primitive integral multiple of omega, the genus comes from
adjunction, base points from the self-intersection, and the critical-fibre
count from the Euler-characteristic identity for a fibration with nodal
members, e(X) + N = 2(2 - 2g) + delta.
"""

from __future__ import annotations

from typing import Optional, Sequence

from .exact import _primitive, _require_ints
from .lattice import FourManifoldLattice, HomologyClass, blow_up, twist
from .record import Record


class PencilData(Record):
    """Numerical shadow of a degree-k pencil on a lattice."""

    __slots__ = ("lattice", "k", "fibre_class", "genus", "base_points",
                 "critical_fibres")

    lattice: FourManifoldLattice
    k: int
    fibre_class: HomologyClass
    genus: int
    base_points: int
    critical_fibres: int


def primitive_symplectic_class(x: FourManifoldLattice) -> tuple[int, ...]:
    """The primitive integral class on the ray of omega."""
    ints = _primitive(x.omega)
    if not any(ints):
        raise ValueError("omega is zero")
    return tuple(ints)


def build_pencil(x: FourManifoldLattice, k: int) -> PencilData:
    """Degree-k pencil data: W = k * (primitive omega), genus by adjunction,
    N = W.W base points, and the critical-fibre count delta."""
    _require_ints((k,), "pencil degree k must be an integer")
    if k < 1:
        raise ValueError("pencil degree k must be positive")
    w0 = primitive_symplectic_class(x)
    w = tuple(k * v for v in w0)
    n = x.square(w)
    if n <= 0:
        raise ValueError("fibre class must have positive square")
    # Adjunction, 2g - 2 = W.W + K.W, read off the W.W just formed. The
    # fibre class goes first here and below: a pairing walks one row per
    # nonzero of its first argument, and W has few where K may be dense.
    rhs = n + x.pairing(w, x.canonical)
    if rhs % 2:
        raise ValueError(
            "a.a + K.a is odd, so the adjunction genus is not an integer; "
            "the canonical vector cannot be characteristic for this class"
        )
    genus = rhs // 2 + 1
    if genus < 0:
        raise ValueError(f"negative fibre genus {genus}")
    delta = x.euler + n - (4 - 4 * genus)
    if delta < 0:
        raise ValueError(f"critical-fibre count delta = {delta} is negative; "
                         "inconsistent input lattice")
    return PencilData(
        lattice=x,
        k=k,
        fibre_class=HomologyClass(x, w),
        genus=genus,
        base_points=n,
        critical_fibres=delta,
    )


def fibre_degree(pencil: PencilData, a: Sequence[int]) -> int:
    """Intersection r of the twisted class with a pencil fibre.

    In the lattice blown up at the N base points the fibre becomes
    i(W) - sum E_j and the class becomes i(a) + sum E_j, so the pairing is
    a.W + N. Evaluated in closed form; `fibre_degree_blowup_route` does the
    same computation on the actual blown-up lattice for cross-checking.
    Raises ``TypeError`` when a coordinate of ``a`` is not an ``int``.
    """
    a = HomologyClass(pencil.lattice, a).coords
    return pencil.lattice.pairing(pencil.fibre_class.coords, a) + pencil.base_points


def fibre_degree_blowup_route(pencil: PencilData, a: Sequence[int]) -> int:
    """`fibre_degree` computed literally on the blown-up lattice.

    Materializes the blow-up at all N base points, so only sensible for
    small pencils; exists as the independent route for tests.
    """
    xp = blow_up(pencil.lattice, pencil.base_points)
    twisted = twist(xp, a)
    fibre = list(pencil.fibre_class.coords) + [-1] * pencil.base_points
    return xp.pairing(fibre, twisted)


def residual_fibre_degree(pencil: PencilData, a: Sequence[int]) -> int:
    """Fibre degree of the untwisted residual class i(K - a); together with
    fibre_degree(a) it fills out 2g - 2. Raises ``TypeError`` when a
    coordinate of ``a`` is not an ``int``."""
    x = pencil.lattice
    a = HomologyClass(x, a).coords
    residual = [k - v for k, v in zip(x.canonical, a)]
    return x.pairing(pencil.fibre_class.coords, residual)


class SurfaceCountVerdict(Record):
    """Outcome of the conservative count decision, with its justification.

    No rule sets ``value``, so it is None (the ``count`` report prints it as
    null).
    """

    __slots__ = ("kind", "reason", "value", "context")

    kind: str  # Zero | PlusMinusOne | Unknown
    reason: str
    value: Optional[int]
    context: dict


def count_decision(x: FourManifoldLattice, a: Sequence[int]) -> SurfaceCountVerdict:
    """Decide the standard surface count of a class from quoted hypotheses.

    Rules are applied in a fixed order and the first match wins; a
    non-Unknown verdict is only ever emitted when its hypothesis holds on
    the supplied numbers, which ride along in the context. Raises
    ``TypeError`` when a coordinate of ``a`` is not an ``int``.
    """
    divisor = HomologyClass(x, a)
    coords = divisor.coords
    d = divisor.virtual_dim()
    a_omega = x.omega_dot(coords)
    k_omega = x.omega_dot(x.canonical)
    a_sq = x.square(coords)
    ka = x.k_dot(coords)
    high_b_plus = x.b_plus > 1 + x.b1
    context = {
        "virtual_dim": d,
        "a_sq": a_sq,
        "k_dot_a": ka,
        "a_omega": str(a_omega),
        "k_omega": str(k_omega),
        "b_plus": x.b_plus,
        "b1": x.b1,
    }

    if d < 0:
        kind = "Zero"
        reason = ("virtual dimension (a.a - K.a)/2 is negative, so the "
                  "moduli space is empty and the count is 0")
    elif high_b_plus and a_sq != ka:
        kind = "Zero"
        reason = ("b+ > 1 + b1 and a.a != K.a: counts on lattices of "
                  "simple type vanish away from the diagonal a.a = K.a")
    elif high_b_plus and (a_omega < 0 or a_omega > k_omega):
        kind = "Zero"
        reason = ("b+ > 1 + b1 and a.omega outside [0, K.omega]: a nonzero "
                  "count forces 0 <= a.omega <= K.omega")
    elif x.b_plus == 1 and x.b1 == 0 and a_omega > 0 and a_sq > ka:
        context["section_torus_dim"] = x.b1 // 2
        kind = "PlusMinusOne"
        reason = ("b+ = 1, b1 = 0, a.omega > 0 and a.a > K.a: the count "
                  "of such a class is +/-1")
    elif high_b_plus and (not any(coords) or coords == x.canonical):
        kind = "PlusMinusOne"
        reason = ("the zero and canonical classes on a lattice with "
                  "b+ > 1 + b1 count +/-1")
    else:
        kind = "Unknown"
        reason = "no decisive hypothesis applies to this class"
    return SurfaceCountVerdict(kind, reason, None, context)
