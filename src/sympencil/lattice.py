"""Integer intersection lattices of closed oriented 4-manifolds.

A lattice here is the middle-cohomology intersection form together with the
odd first Betti number, a characteristic (canonical) vector, a positive
symplectic direction, and a declared minimality flag. Construction validates
the whole almost-complex bookkeeping: symmetry, nondegeneracy, the
characteristic congruence, the Noether-style relation between the square of
the canonical vector and the characteristic numbers, and integrality of the
holomorphic Euler characteristic when the first Betti number is even.

The form and the canonical vector take exact ``int`` entries only, and so
does the signature: its elimination runs on integers, one direct-sum block
at a time. Any other entry raises ``TypeError``.

The module holds only lattices; the named checks over one live in
:mod:`sympencil.applications`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from typing import Iterator, Sequence, Union

from .exact import Rational, _lowest, _require_ints
from .record import Record

IntVector = tuple[int, ...]
IntMatrix = tuple[tuple[int, ...], ...]


class _Support(tuple):
    """Per-row nonzero entries of a matrix already checked square and
    symmetric by :func:`_symmetric_support`."""

    __slots__ = ()


def _symmetric_support(rows: Sequence[Sequence[int]],
                       name: str = "matrix") -> _Support:
    """The nonzero entries ``((j, a_ij), ...)`` of each row, from one pass
    over a matrix that must be square and symmetric.

    A mismatch ``a_ij != a_ji`` has a nonzero side, so comparing each
    recorded entry with its transpose checks symmetry in O(nnz).
    """
    n = len(rows)
    support = []
    for row in rows:
        if len(row) != n:
            raise ValueError(f"{name} must be square")
        support.append(tuple((j, row[j]) for j in compress(range(n), row)))
    for i, entries in enumerate(support):
        for j, v in entries:
            if rows[j][i] != v:
                raise ValueError(f"{name} must be symmetric")
    return _Support(support)


def _direct_sum_blocks(support: Sequence[Sequence[tuple]]) -> Iterator[list[int]]:
    """Index sets of the direct-sum blocks: the connected components of the
    nonzero pattern, given as each row's ``(j, a_ij)`` entries, each in
    increasing order."""
    seen = [False] * len(support)
    for start in range(len(support)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for i in block:
            for j, _ in support[i]:
                if not seen[j]:
                    seen[j] = True
                    block.append(j)
        block.sort()
        yield block


def largest_block(rows: Sequence[Sequence]) -> int:
    """Rows in the largest direct-sum block of the nonzero pattern of
    ``rows``, with no entry or symmetry checked, so that a reader can
    bound the elimination before the constructor runs it.

    Row i's nonzero entries below ``len(rows)`` are its neighbours. On a
    square symmetric matrix the blocks are those that
    :func:`signature_of_symmetric` eliminates; the constructor refuses any
    other matrix before it eliminates.
    """
    n = len(rows)
    pattern = [tuple((j, None) for j in compress(range(n), row)) for row in rows]
    return max(map(len, _direct_sum_blocks(pattern)), default=0)


def signature_of_symmetric(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia ``(n_pos, n_neg, n_zero)`` of a symmetric integer matrix.

    Raises ``TypeError`` when an entry is not an ``int`` (a ``bool``,
    float, string or ``Fraction`` is not truncated), and ``ValueError``
    when the matrix is not square and symmetric. Inertia adds over a
    direct sum, so each block of the nonzero pattern goes through the
    integer elimination of :func:`_dense_signature`. The lattice
    constructor passes the support it has already checked, so the form is
    scanned once.
    """
    if isinstance(rows, _Support):
        support = rows
    else:
        for row in rows:
            _require_ints(row, "matrix entries must be integers")
        support = _symmetric_support(rows)
    pos = neg = zero = 0
    for block in _direct_sum_blocks(support):
        local = {g: i for i, g in enumerate(block)}
        dense = [[0] * len(block) for _ in block]
        for i, g in enumerate(block):
            for j, v in support[g]:
                dense[i][local[j]] = v
        p, m, z = _dense_signature(dense)
        pos += p
        neg += m
        zero += z
    return pos, neg, zero


def _dense_signature(rows: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Inertia of a square symmetric integer matrix by fraction-free
    symmetric elimination (Bareiss 1968).

    The trailing block is kept as ``prev`` times the Schur complement of the
    pivots taken so far, where ``prev`` is the last pivot, so each step
    ``(d*a_ij - a_i0*a_0j) // prev`` divides exactly (Sylvester's identity)
    and the diagonal of the congruent form has the sign of ``d*prev``. A
    zero pivot is repaired by a diagonal swap when one is available, and
    otherwise by the hyperbolic row/column addition; a zero trailing row
    counts as a zero eigenvalue and leaves ``prev`` as it is. The caller
    checks that the matrix is square, symmetric and of ``int`` entries.
    """
    a = [list(row) for row in rows]
    pos = neg = zero = 0
    prev = 1
    while a:
        if not a[0][0]:
            swap = next((j for j in range(1, len(a)) if a[j][j]), 0)
            if swap:
                a[0], a[swap] = a[swap], a[0]
                for row in a:
                    row[0], row[swap] = row[swap], row[0]
            else:
                off = next((j for j, x in enumerate(a[0]) if x), 0)
                if not off:
                    zero += 1
                    a = [row[1:] for row in a[1:]]
                    continue
                # Both diagonals vanish on the trailing block, so adding
                # row and column `off` makes the corner 2*a[0][off] != 0.
                a[0] = [x + y for x, y in zip(a[0], a[off])]
                for row in a:
                    row[0] += row[off]
        d = a[0][0]
        if (d > 0) == (prev > 0):
            pos += 1
        else:
            neg += 1
        top = a[0][1:]
        a = [[(d * x - row[0] * y) // prev for x, y in zip(row[1:], top)]
             for row in a[1:]]
        prev = d
    return pos, neg, zero


class FourManifoldLattice:
    """Intersection form data of a closed almost-complex 4-manifold.

    Parameters
    ----------
    label : str
        Free-form name, echoed into reports.
    b1 : int
        First Betti number, nonnegative.
    form : square symmetric integer matrix
        Intersection pairing on degree-2 cohomology mod torsion.
    canonical : integer vector
        Canonical class K in the basis of ``form``. Must be characteristic
        (K.x = x.x mod 2) and satisfy K.K = 2e + 3*signature.
    omega : rational vector
        Symplectic direction; needs omega.omega > 0. Held in lowest terms,
        each entry an ``int`` when it is integral, so the omega products
        of integral data run on plain ints.
    minimal : bool
        Declared minimality (no embedded (-1)-sphere), taken on trust.

    The holomorphic Euler characteristic chi_h = (e + sigma)/4 is formed
    once, at construction: an ``int``, or a ``Fraction`` when b1 is odd and
    4 does not divide e + sigma.

    Raises ``TypeError`` when ``b1`` or an entry of ``form`` or
    ``canonical`` is not an ``int`` (a ``bool``, float, string or
    ``Fraction`` is not truncated), when an entry of ``omega`` is not
    exact (a float or a string), when ``minimal`` is not a ``bool`` or
    ``label`` not a ``str``, and ``ValueError`` when the data describe no
    valid lattice.
    """

    __slots__ = ("label", "b1", "form", "canonical", "omega", "minimal",
                 "_support", "_b_plus", "_b_minus", "_k_squared", "_chi_h")

    def __init__(
        self,
        label: str,
        b1: int,
        form: Sequence[Sequence[int]],
        canonical: Sequence[int],
        omega: Sequence[Rational],
        minimal: bool,
    ):
        _require_ints((b1,), "b1 must be an integer")
        if type(minimal) is not bool:
            raise TypeError("minimal must be a boolean")
        if not isinstance(label, str):
            raise TypeError("label must be a string")
        if b1 < 0:
            raise ValueError("b1 must be nonnegative")
        # Tuple rows are kept as they are (tuple() of a tuple is the tuple
        # itself), list rows copied once.
        q: IntMatrix = tuple(map(tuple, form))
        n = len(q)
        if n == 0:
            raise ValueError("intersection form must be nonempty")
        support, (b_plus, b_minus, b_zero) = self._checked(q)
        k = tuple(canonical)
        _require_ints(k, "canonical vector entries must be integers")
        # Lowest terms, an int where integral; a float or string raises.
        w = tuple(map(_lowest, omega))
        if len(k) != n or len(w) != n:
            raise ValueError("canonical and omega must match the form's rank")

        self.label = label
        self.b1 = b1
        self.form = q
        self.canonical = k
        self.omega = w
        self.minimal = minimal
        self._support = support

        if b_zero:
            raise ValueError("intersection form is degenerate")
        self._b_plus = b_plus
        self._b_minus = b_minus

        # Characteristic congruence on basis vectors, K.e_i = Q_ii mod 2,
        # and K.K and omega.omega, all over the nonzero entries of Q.
        k_squared = 0
        for i, entries in enumerate(support):
            ke = sum(k[j] * v for j, v in entries)
            if (ke - q[i][i]) % 2:
                raise ValueError(
                    f"canonical vector is not characteristic at basis index {i}"
                )
            k_squared += k[i] * ke
        self._k_squared = k_squared
        if k_squared != self.two_e_plus_3sigma:
            raise ValueError(
                f"K.K = {k_squared} but 2e + 3sigma = "
                f"{self.two_e_plus_3sigma}; inconsistent almost-complex data"
            )
        omega_squared = sum(
            w[i] * sum(w[j] * v for j, v in support[i])
            for i in range(n) if w[i]
        )
        if omega_squared <= 0:
            raise ValueError("omega.omega must be positive")
        chi_h, rem = divmod(self.euler + self.signature, 4)
        if rem and self.b1 % 2 == 0:
            raise ValueError(
                "chi_h = (e + sigma)/4 is not an integer; "
                "inconsistent almost-complex data"
            )
        self._chi_h = Fraction(self.euler + self.signature, 4) if rem else chi_h

    def _checked(self, q: IntMatrix) -> tuple[_Support, tuple[int, int, int]]:
        """The nonzero entries of each row of ``q`` and its inertia
        ``(b+, b-, b0)``: entry types are checked once per row, symmetry
        over the nonzeros, and the inertia comes from elimination. Only a
        blow-up overrides it."""
        for row in q:
            _require_ints(row, "intersection form entries must be integers")
        support = _symmetric_support(q, "intersection form")
        return support, signature_of_symmetric(support)

    # -- basic numerology ---------------------------------------------------

    @property
    def b2(self) -> int:
        return len(self.form)

    @property
    def b_plus(self) -> int:
        return self._b_plus

    @property
    def b_minus(self) -> int:
        return self._b_minus

    @property
    def euler(self) -> int:
        return 2 - 2 * self.b1 + self.b2

    @property
    def signature(self) -> int:
        return self._b_plus - self._b_minus

    @property
    def two_e_plus_3sigma(self) -> int:
        return 2 * self.euler + 3 * self.signature

    @property
    def k_squared(self) -> int:
        """K.K, as computed over the nonzero entries at construction."""
        return self._k_squared

    @property
    def chi_h(self) -> Union[int, Fraction]:
        """Holomorphic Euler characteristic (e + sigma)/4, as formed at
        construction."""
        return self._chi_h

    # -- pairings -----------------------------------------------------------

    def pairing(self, x: Sequence[Rational], y: Sequence[Rational]):
        """Intersection pairing ``x.y``; exact, int when both inputs are."""
        n = self.b2
        if len(x) != n or len(y) != n:
            raise ValueError("vector length does not match the form's rank")
        total = 0
        for i, xi in enumerate(x):
            if not xi:
                continue
            row = self.form[i]
            s = 0
            for j, yj in enumerate(y):
                if yj and row[j]:
                    s += row[j] * yj
            total += xi * s
        return total

    def square(self, x: Sequence[Rational]):
        return self.pairing(x, x)

    def k_dot(self, x: Sequence[Rational]):
        return self.pairing(self.canonical, x)

    def omega_dot(self, x: Sequence[Rational]):
        return self.pairing(self.omega, x)

    def __repr__(self) -> str:
        return (
            f"FourManifoldLattice({self.label!r}, b1={self.b1}, "
            f"b2={self.b2}, b+={self.b_plus}, b-={self.b_minus})"
        )


class HomologyClass(Record):
    """An integer degree-2 class in the basis of a lattice's form.

    Raises ``TypeError`` when a coordinate is not an ``int`` (a ``bool``,
    float, string or ``Fraction`` is not truncated).
    """

    __slots__ = ("lattice", "coords")

    lattice: FourManifoldLattice
    coords: IntVector

    def __post_init__(self):
        coords = tuple(self.coords)
        _require_ints(coords, "class coordinates must be integers")
        if len(coords) != self.lattice.b2:
            raise ValueError("class length does not match the lattice rank")
        object.__setattr__(self, "coords", coords)

    def virtual_dim(self) -> int:
        """(a.a - K.a)/2, the expected dimension of the incidence moduli."""
        x, a = self.lattice, self.coords
        num = x.square(a) - x.k_dot(a)
        if num % 2:
            raise ArithmeticError("characteristic K forces a.a = K.a mod 2")
        return num // 2


class BlownUpLattice(FourManifoldLattice):
    """A lattice extended by ``n`` exceptional (-1)-classes.

    Built by :func:`blow_up`; keeps the base lattice and the size of the
    exceptional block so classes can be twisted. Its checked rows and its
    inertia extend the base's, so the padded dense ``form`` is not scanned
    again; every other constructor check still runs.
    """

    __slots__ = ("base", "n_exceptional")

    def __init__(self, base: FourManifoldLattice, n_exceptional: int):
        _require_ints((n_exceptional,),
                      "the number of blown-up points must be an integer")
        if n_exceptional < 1:
            raise ValueError("need at least one exceptional class")
        # Tuple rows, which the constructor keeps without a copy.
        n = base.b2 + n_exceptional
        form = [row + (0,) * n_exceptional for row in base.form]
        form += [(0,) * t + (-1,) + (0,) * (n - t - 1)
                 for t in range(base.b2, n)]
        canonical = tuple(base.canonical) + (1,) * n_exceptional
        omega = tuple(base.omega) + (0,) * n_exceptional
        # Set first: the constructor reads them through _checked.
        self.base = base
        self.n_exceptional = n_exceptional
        super().__init__(
            label=f"{base.label}#{n_exceptional}",
            b1=base.b1,
            form=form,
            canonical=canonical,
            omega=omega,
            minimal=False,
        )

    def _checked(self, q: IntMatrix) -> tuple[_Support, tuple[int, int, int]]:
        # The form is the base's, checked when the base was built, plus n
        # <-1> summands; rows and signature of a direct sum are additive,
        # so the exceptional block adds one row each and (0, n) exactly.
        base = self.base
        support = _Support(base._support + tuple(
            ((t, -1),) for t in range(base.b2, len(q))))
        return support, (base.b_plus, base.b_minus + self.n_exceptional, 0)


def blow_up(x: FourManifoldLattice, n_points: int) -> BlownUpLattice:
    """Blow up ``n_points`` times: form gains ``n`` <-1> summands, K gains
    every exceptional class.

    Building it costs the dense padding of ``form`` plus O(nonzeros + n):
    the checked rows and the inertia extend the base's."""
    return BlownUpLattice(x, n_points)


def twist(xp: BlownUpLattice, a: Sequence[int]) -> IntVector:
    """The shifted class ``i(a) + E_1 + ... + E_n`` in the blown-up lattice.

    Raises ``TypeError`` when a coordinate of ``a`` is not an ``int``, and
    ``ValueError`` when ``a`` does not live on the base lattice.
    """
    if not isinstance(xp, BlownUpLattice):
        raise TypeError("twist needs a blown-up lattice")
    a = tuple(a)
    _require_ints(a, "class coordinates must be integers")
    if len(a) != xp.base.b2:
        raise ValueError("class does not live on the base lattice")
    return a + (1,) * xp.n_exceptional


def is_even_form(x: FourManifoldLattice) -> bool:
    """Whether every self-intersection is even (diagonal evenness suffices)."""
    return all(x.form[i][i] % 2 == 0 for i in range(x.b2))
