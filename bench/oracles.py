"""Output oracles that re-derive each verdict from the numbers it carries
and from what the benchmark knows about its own inputs.

Every function raises ``Mismatch`` on a wrong output, so a failed op
carries the reason. None of them calls the library function whose output
it checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Optional

from manifolds import Manifold

BASE_CHECKS = (
    "b_plus_one_classification",
    "inflation_hypotheses",
    "minimality_bound",
    "spin_parity",
)


class Mismatch(AssertionError):
    pass


KNOWN_DEFECT = "known-defect"


@dataclass
class Op:
    """One benchmark operation.

    ``call`` runs it the way a user does; ``replay``, when set, runs the
    same operation in-process for the traced run. ``check`` raises
    ``Mismatch`` on a wrong result and returns ``KNOWN_DEFECT`` when the
    result is a defect recorded in the README rather than a regression.
    """

    group: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    replay: Optional[Callable[[], object]] = None


def expect(cond, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def section_count(binom, h0: int, h2: int, r: int) -> int:
    """binom(-(h2 - r), (h0 - 1) - r); 0 for an empty system or a negative
    lower index."""
    if h0 == 0 or h0 - 1 - r < 0:
        return 0
    return binom(-(h2 - r), h0 - 1 - r)


def duality_holds(binom, h0: int, h2: int, r: int) -> bool:
    return abs(section_count(binom, h0, h2, r)) == abs(section_count(binom, h2, h0, r))


def count_kind(m: Manifold, coords, context: dict) -> str:
    """Re-derive the count decision from its context, after checking the
    context against the benchmark's own pairing."""
    a_sq = m.pair(coords, coords)
    ka = m.k_dot(coords)
    a_omega = m.pair(m.omega, coords)
    k_omega = m.pair(m.omega, m.canonical)
    expect(context["a_sq"] == a_sq, "count: a.a")
    expect(context["k_dot_a"] == ka, "count: K.a")
    expect(context["virtual_dim"] == (a_sq - ka) // 2, "count: virtual_dim")
    expect(Fraction(context["a_omega"]) == a_omega, "count: a.omega")
    expect(Fraction(context["k_omega"]) == k_omega, "count: K.omega")
    expect(context["b_plus"] == m.b_plus and context["b1"] == m.b1, "count: b+, b1")
    high = m.b_plus > 1 + m.b1
    if a_sq - ka < 0:
        return "Zero"
    if high and a_sq != ka:
        return "Zero"
    if high and not 0 <= a_omega <= k_omega:
        return "Zero"
    if m.b_plus == 1 and m.b1 == 0 and a_omega > 0 and a_sq > ka:
        return "PlusMinusOne"
    if high and (not any(coords) or tuple(coords) == m.canonical):
        return "PlusMinusOne"
    return "Unknown"


def check_count(m: Manifold, coords, kind: str, value, context: dict) -> None:
    expect(kind == count_kind(m, coords, context), f"count: kind {kind}")
    expect(value is None, "count: value without a profile")


def check_classify(binom, m: Manifold, classes, reports: list[dict]) -> bool:
    """Check every report of run_all / classify; return whether any failed."""
    names = sorted(
        list(BASE_CHECKS)
        + ["surface_count[" + ",".join(str(c) for c in cls) + "]" for cls in classes]
    )
    expect([r["check_name"] for r in reports] == names, "classify: check names")
    by_class = {
        "surface_count[" + ",".join(str(c) for c in cls) + "]": cls for cls in classes
    }
    k_omega = m.pair(m.omega, m.canonical)
    k_sq = m.pair(m.canonical, m.canonical)
    two_e_3s = 2 * m.euler + 3 * m.signature
    even = all(m.data["Q"][i][i] % 2 == 0 for i in range(m.b2))
    any_fail = False
    for rep in reports:
        name, verdict, nums = rep["check_name"], rep["verdict"], rep["numbers"]
        if name == "minimality_bound":
            if m.minimal and m.b_plus > 1 + m.b1:
                expect(nums["two_e_plus_3sigma"] == two_e_3s, "minimality: 2e+3s")
                want = "pass" if nums["two_e_plus_3sigma"] >= 0 else "fail"
            else:
                want = "not-applicable"
        elif name == "b_plus_one_classification":
            if m.b_plus == 1 and m.b1 == 0 and k_omega < 0:
                expect(nums["b_minus"] == m.b_minus, "classification: b-")
                want = "fail" if nums["b_minus"] > 8 else "pass"
                if want == "pass":
                    homeo = ("s2xs2" if even else "cp2" if m.b_minus == 0
                             else f"cp2#{m.b_minus}cp2bar")
                    expect(nums["homeo_type"] == homeo, "classification: type")
            else:
                want = "not-applicable"
        elif name == "inflation_hypotheses":
            expect(nums["k_squared"] == k_sq, "inflation: K.K")
            expect(Fraction(nums["k_omega"]) == k_omega, "inflation: K.omega")
            if m.minimal and m.b_plus == 1:
                want = "pass" if nums["k_squared"] > 0 and k_omega > 0 else "fail"
            else:
                want = "not-applicable"
        elif name == "spin_parity":
            if even and k_sq == 0 and m.b1 == 0 and m.b_plus % 4 == 3:
                n = (m.b_plus + 1) // 4
                odd = binom(2 * n - 2, n - 1) % 2 == 1
                expect(nums["n"] == n, "spin parity: n")
                expect(nums["parity"] == ("odd" if odd else "even"), "spin parity")
                expect(nums["homotopy_k3_range"] == (m.b_plus == 3), "spin: k3 range")
                want = "pass"
            else:
                want = "not-applicable"
        else:
            kind = count_kind(m, by_class[name], nums)
            expect(nums["decision"] == kind, f"{name}: decision")
            want = "not-applicable" if kind == "Unknown" else "pass"
        expect(verdict == want, f"{name}: verdict {verdict}, expected {want}")
        any_fail = any_fail or verdict == "fail"
    return any_fail


def check_pencil(m: Manifold, k: int, coords, genus, base_points, critical,
                 degree, residual, route=None) -> None:
    """Pencil numerology against the benchmark's own pairing."""
    w0 = _primitive(m.omega)
    w = [k * v for v in w0]
    n = m.pair(w, w)
    expect(base_points == n, "pencil: base points")
    expect(2 * genus - 2 == n + m.k_dot(w), "pencil: adjunction genus")
    expect(critical == m.euler + n - (4 - 4 * genus), "pencil: critical fibres")
    if coords is None:
        return
    expect(degree == m.pair(coords, w) + n, "pencil: fibre degree")
    expect(degree + residual == 2 * genus - 2, "pencil: degree sum")
    if route is not None:
        expect(route == degree, "pencil: blow-up route")


def _primitive(omega) -> list[int]:
    den = lcm(*(q.denominator for q in omega))
    ints = [int(q * den) for q in omega]
    g = 0
    for v in ints:
        g = gcd(g, v)
    return [v // g for v in ints]
