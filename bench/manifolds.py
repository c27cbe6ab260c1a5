"""Manifold inputs for the benchmark, built without the library.

Each generator returns a ``Manifold``: the JSON dict the library parses,
plus what the benchmark knows about it by construction (signature, chi_h,
sparse rows of the form). The oracles use that knowledge, so they never
ask the code under test for an answer they then check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

HYPERBOLIC = ((0, 1), (1, 0))
NEG_E8 = tuple(
    tuple(-v for v in row)
    for row in (
        (2, -1, 0, 0, 0, 0, 0, 0),
        (-1, 2, -1, 0, 0, 0, 0, 0),
        (0, -1, 2, -1, 0, 0, 0, 0),
        (0, 0, -1, 2, -1, 0, 0, 0),
        (0, 0, 0, -1, 2, -1, 0, -1),
        (0, 0, 0, 0, -1, 2, -1, 0),
        (0, 0, 0, 0, 0, -1, 2, 0),
        (0, 0, 0, 0, -1, 0, 0, 2),
    )
)

# Signatures of the bundled catalog entries, from their definitions.
CATALOG_SIGNATURES = {
    "cp2": (1, 0),
    "s2xs2": (1, 1),
    "e1": (1, 9),
    "e3": (5, 29),
    "e4": (7, 39),
    "k3": (3, 19),
    "k3_sum3": (9, 57),
}


@dataclass
class Manifold:
    name: str
    data: dict
    b_plus: int
    b_minus: int

    def __post_init__(self):
        form = self.data["Q"]
        self.rows = [
            [(j, v) for j, v in enumerate(row) if v] for row in form
        ]
        self.canonical = tuple(self.data["K"])
        self.omega = tuple(rational(v) for v in self.data["omega"])
        self.b1 = self.data["b1"]
        self.minimal = self.data["minimal"]
        k = self.canonical
        self.k_row = [sum(v * k[j] for j, v in row) for row in self.rows]

    @property
    def b2(self) -> int:
        return len(self.rows)

    @property
    def euler(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def signature(self) -> int:
        return self.b_plus - self.b_minus

    @property
    def chi_h(self) -> Fraction:
        return Fraction(self.euler + self.signature, 4)

    def pair(self, x, y):
        """x.y through the sparse rows; an oracle route separate from
        the library's dense pairing."""
        total = 0
        for i, xi in enumerate(x):
            if xi:
                total += xi * sum(v * y[j] for j, v in self.rows[i])
        return total

    def k_dot(self, a):
        return sum(ki * ai for ki, ai in zip(self.k_row, a) if ai)


def rational(v) -> Fraction:
    if isinstance(v, str):
        p, _, q = v.partition("/")
        return Fraction(int(p), int(q or 1))
    return Fraction(v)


def block_sum(blocks) -> list[list[int]]:
    size = sum(len(b) for b in blocks)
    out = [[0] * size for _ in range(size)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, v in enumerate(row):
                out[offset + i][offset + j] = v
        offset += len(b)
    return out


def elliptic_type(n: int) -> Manifold:
    """diag(+1 x (2n-1), -1 x (10n-1)), K = (3 x n, 1, ...): chi_h = n,
    K.K = 0. The canonical class is dense."""
    pos, neg = 2 * n - 1, 10 * n - 1
    size = pos + neg
    form = [[0] * size for _ in range(size)]
    for i in range(size):
        form[i][i] = 1 if i < pos else -1
    data = {
        "label": f"elliptic_type_{n}",
        "b1": 0,
        "Q": form,
        "K": [3] * n + [1] * (size - n),
        "omega": [1] + [0] * (size - 1),
        "minimal": n >= 2,
    }
    return Manifold(data["label"], data, pos, neg)


def spin_type(n: int) -> Manifold:
    """(4n - 1) hyperbolic planes plus 2n copies of -E8, K = 2 e_0:
    chi_h = 2n, K.K = 0. Form and canonical class are sparse."""
    form = block_sum([HYPERBOLIC] * (4 * n - 1) + [NEG_E8] * (2 * n))
    size = len(form)
    canonical = [0] * size
    canonical[0] = 2
    omega = [0] * size
    omega[0] = omega[1] = 1
    data = {
        "label": f"spin_type_{n}",
        "b1": 0,
        "Q": form,
        "K": canonical,
        "omega": omega,
        "minimal": True,
    }
    return Manifold(data["label"], data, 4 * n - 1, 4 * n - 1 + 16 * n)


def k3_sum3() -> Manifold:
    """Three K3 forms summed, K twice a square -2 vector of the first -E8
    block: valid, declared minimal, and failing the minimality bound."""
    one = [HYPERBOLIC] * 3 + [NEG_E8] * 2
    form = block_sum(one * 3)
    size = len(form)
    canonical = [0] * size
    canonical[6] = 2
    omega = [0] * size
    omega[0] = omega[1] = 1
    data = {
        "label": "k3_sum3",
        "b1": 0,
        "Q": form,
        "K": canonical,
        "omega": omega,
        "minimal": True,
    }
    return Manifold("k3_sum3", data, 9, 57)


def sparse_class(rng, m: Manifold, nonzeros: int, bound: int = 4) -> tuple:
    coords = [0] * m.b2
    for i in rng.sample(range(m.b2), nonzeros):
        coords[i] = rng.choice([v for v in range(-bound, bound + 1) if v])
    return tuple(coords)


def class_of_small_dim(rng, m: Manifold, max_dim: int) -> tuple[tuple, int]:
    """A class with one or two nonzeros and virtual dimension in
    0..max_dim, found by enumerating small coefficients on random slots."""
    form = m.data["Q"]
    small = range(-5, 6)
    while True:
        slots = rng.sample(range(m.b2), min(2, m.b2))
        found = []
        for coeffs in itertools.product(small, repeat=len(slots)):
            num = sum(a * b * form[p][q] for a, p in zip(coeffs, slots)
                      for b, q in zip(coeffs, slots))
            num -= sum(a * m.k_row[p] for a, p in zip(coeffs, slots))
            if any(coeffs) and 0 <= num <= 2 * max_dim:
                found.append((coeffs, num // 2))
        if found:
            coeffs, d = rng.choice(found)
            coords = [0] * m.b2
            for a, p in zip(coeffs, slots):
                coords[p] = a
            return tuple(coords), d
