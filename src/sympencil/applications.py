"""Named consequence checks over a single lattice.

Bundles the minimality bound, the b+ = 1 homeomorphism classification,
the hypothesis gate for deforming symplectic forms into the canonical
class, per-class surface-count decisions, and the spin parity signature
into uniform self-certifying reports: every verdict can be re-derived
from the numbers the report carries.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

# count_decision is looked up on its module at each call, so a wrapper set
# there later (such as the benchmark's tracer) is seen from this module too.
from . import pencil
from .catalog import format_rational
from .gromov import gr_parity
from .lattice import FourManifoldLattice, is_even_form
from .record import Record


class CheckReport(Record):
    """One named check: verdict plus the hypotheses and numbers behind it."""

    __slots__ = ("check_name", "verdict", "cited_hypotheses", "numbers")

    check_name: str
    verdict: str  # "pass" | "fail" | "not-applicable"
    cited_hypotheses: tuple[str, ...]
    numbers: dict


def _minimality_report(x: FourManifoldLattice) -> CheckReport:
    name = "minimality_bound"
    cited = ("declared minimal", "b_plus > 1 + b1", "2e + 3sigma >= 0")
    if not (x.minimal and x.b_plus > 1 + x.b1):
        return CheckReport(name, "not-applicable", cited, {
            "minimal": x.minimal,
            "b_plus": x.b_plus,
            "b1": x.b1,
        })
    holds = x.two_e_plus_3sigma >= 0
    return CheckReport(name, "pass" if holds else "fail", cited, {
        "two_e_plus_3sigma": x.two_e_plus_3sigma,
        "b_plus": x.b_plus,
        "b1": x.b1,
    })


def _classification_report(x: FourManifoldLattice) -> CheckReport:
    name = "b_plus_one_classification"
    cited = ("b_plus = 1", "b1 = 0", "K.omega < 0", "b_minus <= 8")
    k_omega = x.omega_dot(x.canonical)
    if not (x.b_plus == 1 and x.b1 == 0 and k_omega < 0):
        return CheckReport(name, "not-applicable", cited, {
            "b_plus": x.b_plus,
            "b1": x.b1,
            "k_omega": format_rational(k_omega),
        })
    even = is_even_form(x)
    numbers = {
        "b_minus": x.b_minus,
        "two_e_plus_3sigma": x.two_e_plus_3sigma,
        "even": even,
        "k_omega": format_rational(k_omega),
    }
    # The degree-zero count forces 2e + 3sigma = 9 - b_minus >= 0, so
    # b_minus > 8 is rejected outright; otherwise the parity of the form
    # decides between the even quadric type and blow-ups of the plane.
    if x.b_minus > 8:
        return CheckReport(name, "fail", cited, numbers)
    if even:
        numbers["homeo_type"] = "s2xs2"
    elif x.b_minus == 0:
        numbers["homeo_type"] = "cp2"
    else:
        numbers["homeo_type"] = f"cp2#{x.b_minus}cp2bar"
    return CheckReport(name, "pass", cited, numbers)


def _inflation_report(x: FourManifoldLattice) -> CheckReport:
    name = "inflation_hypotheses"
    cited = ("declared minimal", "b_plus = 1", "K.K > 0", "K.omega > 0")
    k_omega = x.omega_dot(x.canonical)
    numbers = {
        "k_squared": x.k_squared,
        "k_omega": format_rational(k_omega),
        "b_plus": x.b_plus,
    }
    if not (x.minimal and x.b_plus == 1):
        return CheckReport(name, "not-applicable", cited, numbers)
    ok = x.k_squared > 0 and k_omega > 0
    return CheckReport(name, "pass" if ok else "fail", cited, numbers)


def _spin_parity_report(x: FourManifoldLattice) -> CheckReport:
    name = "spin_parity"
    cited = ("even intersection form", "K.K = 0", "b1 = 0",
             "b_plus = 3 mod 4")
    even = is_even_form(x)
    numbers = {
        "even": even,
        "k_squared": x.k_squared,
        "b_plus": x.b_plus,
        "b1": x.b1,
    }
    if not (even and x.k_squared == 0 and x.b1 == 0 and x.b_plus % 4 == 3):
        return CheckReport(name, "not-applicable", cited, numbers)
    n = (x.b_plus + 1) // 4
    numbers["n"] = n
    numbers["parity"] = "odd" if gr_parity(n) else "even"
    numbers["homotopy_k3_range"] = x.b_plus == 3
    return CheckReport(name, "pass", cited, numbers)


def _count_report(x: FourManifoldLattice, coords: tuple[int, ...]) -> CheckReport:
    verdict = pencil.count_decision(x, coords)
    name = "surface_count[" + ",".join(str(c) for c in coords) + "]"
    numbers = dict(verdict.context)
    numbers["decision"] = verdict.kind
    status = "not-applicable" if verdict.kind == "Unknown" else "pass"
    return CheckReport(name, status, (verdict.reason,), numbers)


def run_all(
    x: FourManifoldLattice,
    classes: Optional[Iterable[Sequence[int]]] = None,
) -> list[CheckReport]:
    """Run every applicable check on the lattice, plus a surface-count
    decision for each supplied class; reports come back sorted by name.
    Raises ``TypeError`` when a class coordinate is not an ``int``."""
    reports = [
        _minimality_report(x),
        _classification_report(x),
        _inflation_report(x),
        _spin_parity_report(x),
    ]
    for cand in classes or ():
        reports.append(_count_report(x, tuple(cand)))
    reports.sort(key=lambda rep: rep.check_name)
    return reports
