import inspect
import json
import random
import time
from fractions import Fraction
from importlib import resources
from itertools import product
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import descartes_inertia, series_geom_pow
from sympencil.catalog import (
    E8_GRAM,
    HYPERBOLIC,
    STANDARD_BUILDERS,
    block_diag,
    elliptic_like,
    format_rational,
    lattice_from_dict,
    lattice_to_dict,
    manifold_fields,
    negated,
    parse_rational,
    spin_model,
)
from sympencil import lattice as lattice_module
from sympencil.applications import run_all
from sympencil.brill_noether import BNQuery, abel_jacobi_fibre_dims
from sympencil.exact import RationalMatrix
from sympencil.gromov import CohomologyProfile, gr_parity, vanishing_profile
from sympencil.hilb import (
    ADHMTriple,
    RelADHMQuad,
    certify_stratum,
    sample_b1zero_stratum,
    sample_commuting_diagonal,
    sample_singular_stratum,
    sample_smooth_stratum,
)
from sympencil.lattice import (
    BlownUpLattice,
    FourManifoldLattice,
    HomologyClass,
    _dense_signature,
    _symmetric_support,
    blow_up,
    is_even_form,
    largest_block,
    signature_of_symmetric,
    twist,
)
from sympencil.pencil import (
    build_pencil,
    count_decision,
    fibre_degree,
    fibre_degree_blowup_route,
    primitive_symplectic_class,
    residual_fibre_degree,
)


def _catalog():
    return {name: build() for name, build in STANDARD_BUILDERS.items()}


_MANIFOLD_SCHEMA = json.loads(
    (resources.files("sympencil") / "data" / "manifold.schema.json").read_text()
)
_MANIFOLD_VALIDATOR = jsonschema.validators.validator_for(_MANIFOLD_SCHEMA)(
    _MANIFOLD_SCHEMA)
_CP2_FILE = lattice_to_dict(STANDARD_BUILDERS["cp2"]())


class TestSignature:
    def test_diagonal(self):
        assert signature_of_symmetric([[1, 0], [0, -1]]) == (1, 1, 0)

    def test_hyperbolic_block(self):
        # Needs the zero-diagonal repair path.
        assert signature_of_symmetric(HYPERBOLIC) == (1, 1, 0)

    def test_e8_is_definite(self):
        assert signature_of_symmetric(E8_GRAM) == (8, 0, 0)
        assert signature_of_symmetric(negated(E8_GRAM)) == (0, 8, 0)

    def test_zero_corner_repaired_by_a_diagonal_swap(self):
        # A later diagonal entry is nonzero, so it is swapped into the
        # corner; the hyperbolic add would make the corner 2*1 - 2 = 0.
        q = [[0, 1, 0], [1, -2, 1], [0, 1, 1]]
        assert _dense_signature(q) == descartes_inertia(q) == (2, 1, 0)

    def test_zero_diagonal_repaired_by_a_hyperbolic_add(self):
        # No diagonal entry can be swapped in, so row and column 1 are
        # added to row and column 0, making the corner 2.
        q = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        assert _dense_signature(q) == descartes_inertia(q) == (1, 2, 0)

    def test_degenerate_counted(self):
        assert signature_of_symmetric([[0, 0], [0, 0]]) == (0, 0, 2)
        assert signature_of_symmetric([[1, 1], [1, 1]]) == (1, 0, 1)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            signature_of_symmetric([[0, 1], [2, 0]])

    def test_sum_of_hyperbolics(self):
        q = block_diag(HYPERBOLIC, HYPERBOLIC, HYPERBOLIC)
        assert signature_of_symmetric(q) == (3, 3, 0)

    def test_interleaved_blocks(self):
        # H on the non-adjacent e_0, e_2, then <-1>, <1> and a degenerate <0>.
        q = [
            [0, 0, 1, 0, 0],
            [0, -1, 0, 0, 0],
            [1, 0, 0, 0, 0],
            [0, 0, 0, 1, 0],
            [0, 0, 0, 0, 0],
        ]
        assert signature_of_symmetric(q) == (2, 2, 1)

    def test_rejects_ragged(self):
        with pytest.raises(ValueError, match="square"):
            signature_of_symmetric([[1, 0], [0]])

    def test_rejects_asymmetry_against_zero(self):
        # The mismatch sits opposite a zero entry, not between two nonzeros,
        # below the diagonal and then above it.
        with pytest.raises(ValueError, match="symmetric"):
            signature_of_symmetric([[1, 0, 0], [0, 1, 0], [3, 0, 1]])
        with pytest.raises(ValueError, match="symmetric"):
            signature_of_symmetric([[1, 0, 3], [0, 1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("rows", [
        [[0.5]],
        [[1, 0.5], [0.5, 1]],
        [["1"]],
        [[True]],
    ])
    def test_rejects_entries_that_are_not_int(self, rows):
        with pytest.raises(TypeError, match="matrix entries must be integers"):
            signature_of_symmetric(rows)

    def test_dense_160_block_within_budget(self):
        # The integer elimination takes about 0.8 s on a 2-CPU host; the
        # budget catches rational arithmetic, which takes about 11 s.
        q = _random_symmetric(random.Random(160), 160)
        start = time.monotonic()
        b_plus, b_minus, b_zero = signature_of_symmetric(q)
        assert time.monotonic() - start < 3.0
        assert b_plus + b_minus + b_zero == 160


def _random_symmetric(rng, n, zero_diagonal=False):
    """A dense symmetric ``n x n`` matrix with entries in [-3, 3]."""
    q = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + (1 if zero_diagonal else 0), n):
            q[i][j] = q[j][i] = rng.randint(-3, 3)
    return q


@st.composite
def _small_symmetric(draw):
    m = draw(st.integers(1, 4))
    q = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            q[i][j] = q[j][i] = draw(st.integers(-3, 3))
    return q


_SUMMANDS = st.one_of(
    st.sampled_from([((1,),), ((-1,),), HYPERBOLIC, E8_GRAM, negated(E8_GRAM)]),
    _small_symmetric(),
)


@st.composite
def _interleaved_sums(draw):
    """A direct sum of standard and random blocks in a shuffled basis."""
    blocks = draw(st.lists(_SUMMANDS, min_size=1, max_size=4))
    q = block_diag(*blocks)
    n = len(q)
    perm = draw(st.permutations(range(n)))
    return [[q[perm[i]][perm[j]] for j in range(n)] for i in range(n)]


class TestSignatureOracle:
    """The block route against the whole-matrix elimination and against
    Descartes' rule on the characteristic polynomial."""

    def test_descartes_oracle_on_known_forms(self):
        assert descartes_inertia(E8_GRAM) == (8, 0, 0)
        assert descartes_inertia(HYPERBOLIC) == (1, 1, 0)
        assert descartes_inertia([[1, 1], [1, 1]]) == (1, 0, 1)
        assert descartes_inertia([[0, 0], [0, 0]]) == (0, 0, 2)

    @given(_interleaved_sums())
    @settings(max_examples=60, deadline=None)
    def test_three_routes_agree_on_interleaved_sums(self, q):
        block = signature_of_symmetric(q)
        assert block == _dense_signature(q) == descartes_inertia(q)
        assert sum(block) == len(q)

    @given(st.integers(5, 12), st.booleans(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_three_routes_agree_on_dense_blocks(self, n, zero_diagonal, rng):
        q = _random_symmetric(rng, n, zero_diagonal)
        assert signature_of_symmetric(q) == _dense_signature(q) == descartes_inertia(q)

    def test_three_routes_agree_on_catalog(self):
        small = [x for x in _catalog().values() if x.b2 <= 30]
        assert len(small) >= 4
        # A blow-up's signature is not eliminated but added up by its
        # constructor, so the three routes check that sum too.
        for x in small + [blow_up(x, 2) for x in small]:
            expected = (x.b_plus, x.b_minus, 0)
            assert signature_of_symmetric(x.form) == expected, x.label
            assert _dense_signature(x.form) == expected, x.label
            assert descartes_inertia(x.form) == expected, x.label


def _largest_component(q):
    """Size of the largest connected component of q's nonzero pattern, by
    closing each index's neighbour set until it stops growing."""
    n = len(q)
    reach = [{i} | {j for j in range(n) if q[i][j] or q[j][i]} for i in range(n)]
    while True:
        grown = [set().union(*(reach[j] for j in r)) for r in reach]
        if grown == reach:
            return max(map(len, reach), default=0)
        reach = grown


class TestLargestBlock:
    """The size a reader bounds before any elimination runs."""

    def test_catalog(self):
        sizes = {name: largest_block(x.form) for name, x in _catalog().items()}
        assert sizes == {"cp2": 1, "s2xs2": 2, "k3": 8, "k3_sum3": 8,
                         "e1": 1, "e3": 1, "e4": 8}

    def test_reads_no_entry(self):
        # The pattern only: entries are neither type- nor symmetry-checked,
        # and a column past the row count is not a neighbour.
        assert largest_block([["a", 0, 7], [0, "b", 0]]) == 1
        assert largest_block([[1, "x"], ["x", 1]]) == 2
        assert largest_block([]) == 0

    @given(_interleaved_sums())
    @settings(max_examples=60, deadline=None)
    def test_is_the_largest_block_eliminated(self, q):
        assert largest_block(q) == _largest_component(q)
        sizes = []

        def eliminate(rows):
            sizes.append(len(rows))
            return _dense_signature(rows)

        original = lattice_module._dense_signature
        lattice_module._dense_signature = eliminate
        try:
            signature_of_symmetric(q)
        finally:
            lattice_module._dense_signature = original
        assert max(sizes) == largest_block(q)


class TestCatalogEntries:
    def test_names(self):
        assert sorted(STANDARD_BUILDERS) == [
            "cp2", "e1", "e3", "e4", "k3", "k3_sum3", "s2xs2"]

    def test_projective_plane_numbers(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        assert (cp2.euler, cp2.signature, cp2.two_e_plus_3sigma, cp2.chi_h) == (
            3, 1, 9, 1)

    def test_k3_numbers(self):
        k3 = STANDARD_BUILDERS["k3"]()
        assert (k3.euler, k3.signature, k3.two_e_plus_3sigma, k3.chi_h) == (
            24,
            -16,
            0,
            2,
        )
        assert (k3.b_plus, k3.b_minus) == (3, 19)
        assert is_even_form(k3)

    def test_triple_sum_numbers(self):
        x = STANDARD_BUILDERS["k3_sum3"]()
        assert x.two_e_plus_3sigma == -8
        assert x.k_squared == -8
        assert x.chi_h == 5
        assert x.minimal

    def test_rational_elliptic_numbers(self):
        e1 = STANDARD_BUILDERS["e1"]()
        assert (e1.b_plus, e1.b_minus) == (1, 9)
        assert e1.k_squared == 0
        assert not e1.minimal

    @pytest.mark.parametrize("name, generator, n", [
        ("e3", elliptic_like, 3), ("e4", spin_model, 2)])
    def test_relabelled_generators(self, name, generator, n):
        x, y = STANDARD_BUILDERS[name](), generator(n)
        assert x.label == name != y.label
        assert (x.b1, x.form, x.canonical, x.omega, x.minimal) == (
            y.b1, y.form, y.canonical, y.omega, y.minimal)
        assert (x.b_plus, x.b_minus) == (y.b_plus, y.b_minus)

    @pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
    def test_round_trip(self, name):
        # Parsing recomputes the signature by the same elimination that
        # built every catalog entry.
        x = STANDARD_BUILDERS[name]()
        y = lattice_from_dict(json.loads(json.dumps(lattice_to_dict(x))))
        assert y.label == x.label == name
        assert y.form == x.form
        assert y.canonical == x.canonical
        assert y.omega == x.omega
        assert y.b1 == x.b1
        assert y.minimal == x.minimal
        assert (y.b_plus, y.b_minus) == (x.b_plus, x.b_minus)

    def test_k_squared_matches_dense_pairing(self):
        lattices = list(_catalog().values())
        lattices += [blow_up(x, 2) for x in lattices]
        for x in lattices:
            assert x.k_squared == x.pairing(x.canonical, x.canonical), x.label

    def test_characteristic_vector_random_classes(self):
        # K.x + x.x must be even for arbitrary integer classes.
        rng = random.Random(20260822)
        for x in _catalog().values():
            for _ in range(2 * x.b2):
                v = [rng.randint(-9, 9) for _ in range(x.b2)]
                assert (x.k_dot(v) + x.square(v)) % 2 == 0


class TestGeneratorFamilies:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_elliptic_like(self, n):
        x = elliptic_like(n)
        assert x.chi_h == n
        assert x.k_squared == 0
        assert x.b_plus == 2 * n - 1
        assert x.omega_dot(x.canonical) == 3

    @pytest.mark.parametrize("n", range(1, 5))
    def test_spin_model(self, n):
        x = spin_model(n)
        assert x.chi_h == 2 * n
        assert x.k_squared == 0
        assert x.b_plus == 4 * n - 1
        assert is_even_form(x)
        # K is twice an integral vector, so K/2 is itself a lattice class.
        assert all(c % 2 == 0 for c in x.canonical)

    @pytest.mark.parametrize("family", [elliptic_like, spin_model])
    @pytest.mark.parametrize("n", [0, -1])
    def test_n_below_one_rejected(self, family, n):
        with pytest.raises(ValueError, match="n must be at least 1"):
            family(n)


class TestValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            FourManifoldLattice("bad", 0, [[0, 1], [2, 0]], [0, 0], [1, 1], True)

    def test_non_characteristic_rejected(self):
        with pytest.raises(ValueError, match="characteristic"):
            FourManifoldLattice("bad", 0, [[1]], [-2], [1], True)

    def test_wrong_k_square_rejected(self):
        with pytest.raises(ValueError, match="2e \\+ 3sigma"):
            FourManifoldLattice("bad", 0, [[1]], [-1], [1], True)

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError, match="degenerate"):
            FourManifoldLattice("bad", 0, [[1, 1], [1, 1]], [1, 1], [1, 0], True)

    def test_nonpositive_omega_rejected(self):
        with pytest.raises(ValueError, match="omega"):
            FourManifoldLattice("bad", 0, [[1]], [-3], [0], True)

    def test_half_integral_chi_h_rejected_for_even_b1(self):
        # diag(1,5) with K=(3,1): characteristic, K.K = 14 = 2e+3sigma,
        # but (e + sigma)/4 = 3/2.
        with pytest.raises(ValueError, match="chi_h"):
            FourManifoldLattice("bad", 0, [[1, 0], [0, 5]], [3, 1], [1, 0], True)

    def test_half_integral_chi_h_allowed_for_odd_b1(self):
        x = FourManifoldLattice("ok", 1, [[5]], [1], [1], True)
        assert x.chi_h == Fraction(1, 2)

    def test_negative_b1_rejected(self):
        with pytest.raises(ValueError, match="b1"):
            FourManifoldLattice("bad", -1, [[1]], [-3], [1], True)

    def test_empty_form_rejected(self):
        with pytest.raises(ValueError, match="intersection form must be nonempty"):
            FourManifoldLattice("bad", 0, [], [], [], True)

    @pytest.mark.parametrize("k, omega", [
        ([-2], [1, 1]),
        ([-2, -2, 0], [1, 1]),
        ([-2, -2], [1]),
        ([-2, -2], [1, 1, 0]),
    ], ids=["short_k", "long_k", "short_omega", "long_omega"])
    def test_k_and_omega_of_the_form_rank(self, k, omega):
        # S2 x S2 with K = (-2, -2) and omega = (1, 1) is valid; a K or an
        # omega of another length, even one padded with a zero, is not.
        with pytest.raises(ValueError, match="must match the form's rank"):
            FourManifoldLattice("bad", 0, [[0, 1], [1, 0]], k, omega, True)

    def test_pairing_checks_the_vector_lengths(self):
        cp2 = FourManifoldLattice("cp2", 0, [[1]], [-3], [1], True)
        for x, y in (((1, 0), (1,)), ((1,), (1, 0)), ((), (1,))):
            with pytest.raises(ValueError, match="does not match the form's rank"):
                cp2.pairing(x, y)

    @pytest.mark.parametrize("entry", [1.9, True, "1", Fraction(1, 2), Fraction(1)])
    def test_non_integer_entries_not_truncated(self, entry):
        with pytest.raises(TypeError, match="intersection form entries"):
            FourManifoldLattice("bad", 0, [[entry]], [-3], [1], True)
        with pytest.raises(TypeError, match="canonical vector entries"):
            FourManifoldLattice("bad", 0, [[1]], [entry], [1], True)
        with pytest.raises(TypeError, match="intersection form entries"):
            FourManifoldLattice("bad", 0, [[-1, 0], [0, entry]], [1, 1], [1, 0], True)
        with pytest.raises(TypeError, match="b1"):
            FourManifoldLattice("bad", entry, [[1]], [-3], [1], True)
        cp2 = FourManifoldLattice("cp2", 0, [[1]], [-3], [1], True)
        with pytest.raises(TypeError, match="class coordinates"):
            HomologyClass(cp2, [entry])

    @pytest.mark.parametrize("minimal", ["false", 0, 1, None])
    def test_minimal_not_coerced(self, minimal):
        with pytest.raises(TypeError, match="minimal"):
            FourManifoldLattice("bad", 0, [[1]], [-3], [1], minimal)

    @pytest.mark.parametrize("label", [None, 3, b"cp2"])
    def test_label_not_coerced(self, label):
        with pytest.raises(TypeError, match="label"):
            FourManifoldLattice(label, 0, [[1]], [-3], [1], True)

    def test_constructor_takes_the_six_fields(self):
        # No hidden parameter can hand the constructor an unchecked inertia.
        assert list(inspect.signature(FourManifoldLattice.__init__).parameters) == [
            "self", "label", "b1", "form", "canonical", "omega", "minimal"]

    def test_tuple_rows_kept(self):
        rows = ((0, 1), (1, 0))
        x = FourManifoldLattice("s2xs2", 0, rows, (-2, -2), (1, 1), True)
        assert x.form[0] is rows[0] and x.form[1] is rows[1]
        y = FourManifoldLattice("s2xs2", 0, [[0, 1], [1, 0]], [-2, -2], [1, 1], True)
        assert y.form == rows and type(y.form[0]) is tuple


def _small_diagonal_lattices():
    """Each ``(b1, form, K)`` with b1 <= 3, a diagonal form of one or two
    entries in {+-1, +-3, +-5} with a positive one, and K in {1, 3, 5} at
    each index, with omega the first positive basis vector, and the lattice
    it builds or the ``ValueError`` that refuses it."""
    for n in (1, 2):
        for diag in product((1, -1, 3, -3, 5, -5), repeat=n):
            if max(diag) < 0:
                continue
            form = [[d if i == j else 0 for j in range(n)]
                    for i, d in enumerate(diag)]
            omega = [int(i == diag.index(max(diag))) for i in range(n)]
            for b1, k in product(range(4), product((1, 3, 5), repeat=n)):
                try:
                    yield b1, form, k, FourManifoldLattice(
                        "t", b1, form, k, omega, False)
                except ValueError as exc:
                    yield b1, form, k, exc


_CORPUS_FILES = json.loads(
    (Path(__file__).resolve().parent / "cli_corpus.json").read_text("utf-8"))["files"]


class TestExactTypes:
    """Integral data computes on plain ints: omega is held in lowest terms,
    an ``int`` where integral, and chi_h is formed once. A ``Fraction``
    where an int belongs prints the same bytes, so only these type checks
    see it."""

    @pytest.mark.parametrize("name", ["cp2", "k3", "e3", "k3_sum3", "e1#2"])
    def test_integral_omega_products_are_ints(self, name):
        x = (blow_up(STANDARD_BUILDERS["e1"](), 2) if name == "e1#2"
             else STANDARD_BUILDERS[name]())
        assert x.label == name
        assert {type(w) for w in x.omega} == {int}
        assert type(x.chi_h) is int
        ones = (1,) * x.b2
        assert x.omega_dot(ones) != 0
        assert type(x.omega_dot(ones)) is int
        assert type(x.omega_dot(x.canonical)) is int

    def test_rational_omega_stays_fraction(self):
        x = lattice_from_dict(json.loads(_CORPUS_FILES["rational_omega.json"]))
        assert x.omega == (Fraction(1, 3), 1)
        assert [type(w) for w in x.omega] == [Fraction, int]
        a_omega, k_omega = x.omega_dot((0, 1)), x.omega_dot(x.canonical)
        assert (type(a_omega), type(k_omega)) == (Fraction, Fraction)
        context = count_decision(x, (0, 1)).context
        assert (context["a_omega"], context["k_omega"]) == ("1/3", "-8/3")
        inflation = next(r for r in run_all(x)
                         if r.check_name == "inflation_hypotheses")
        assert inflation.numbers["k_omega"] == "-8/3"

    def test_chi_h_is_a_fraction_exactly_when_b1_odd_and_unreduced(self):
        kinds = set()
        for b1, form, k, x in _small_diagonal_lattices():
            # e = 2 - 2b1 + b2, and a diagonal form's signature is the
            # sum of the signs of its entries.
            e_sigma = 2 - 2 * b1 + len(form) + sum(
                1 if row[i] > 0 else -1 for i, row in enumerate(form))
            half = bool(e_sigma % 4)
            if isinstance(x, ValueError):
                if "chi_h" in str(x):
                    assert half and b1 % 2 == 0, (b1, form, k)
                    kinds.add("refused")
                continue
            assert x.euler + x.signature == e_sigma
            assert x.chi_h == Fraction(e_sigma, 4)
            assert type(x.chi_h) is (Fraction if half else int), (b1, form, k)
            assert not half or b1 % 2
            kinds.add((type(x.chi_h).__name__, b1 % 2))
        assert kinds == {"refused", ("int", 0), ("int", 1), ("Fraction", 1)}

    def test_omega_in_lowest_terms_through_a_blow_up(self):
        x = FourManifoldLattice("q", 0, [[0, 1], [1, 0]], [-2, -2],
                                [Fraction(1, 3), Fraction(2)], True)
        xp = blow_up(x, 2)
        assert xp.omega == (Fraction(1, 3), 2, 0, 0)
        assert [type(w) for w in xp.omega] == [Fraction, int, int, int]


def adjunction_genus(x, a):
    """The genus g of 2g - 2 = a.a + K.a for any class a, where
    ``build_pencil`` reads it only for a pencil's fibre."""
    rhs = x.square(a) + x.k_dot(a)
    assert rhs % 2 == 0, "K is characteristic"
    return rhs // 2 + 1


class TestAdjunction:
    def test_plane_cubic(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        assert build_pencil(cp2, 3).genus == 1

    def test_plane_line_and_conic(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        assert build_pencil(cp2, 1).genus == 0
        assert build_pencil(cp2, 2).genus == 0

    def test_k3_square_zero_class(self):
        k3 = STANDARD_BUILDERS["k3"]()
        v = [0] * k3.b2
        v[0] = 1  # isotropic basis vector of the first hyperbolic block
        assert k3.square(v) == 0
        assert adjunction_genus(k3, v) == 1

    def test_exceptional_sphere(self):
        xp = blow_up(STANDARD_BUILDERS["cp2"](), 1)
        e = (0, 1)  # the exceptional class follows the base lattice's b2 = 1
        assert xp.square(e) == -1
        assert xp.k_dot(e) == -1
        assert adjunction_genus(xp, e) == 0


class TestBlowUp:
    def test_basic_shape(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        xp = blow_up(cp2, 9)
        assert isinstance(xp, BlownUpLattice)
        assert xp.b2 == 10
        assert xp.canonical == (-3,) + (1,) * 9
        assert not xp.minimal
        assert xp.two_e_plus_3sigma == 0

    def test_signature_fast_path_matches_diagonalization(self):
        # The second blow-up adds onto a base that is itself blown up. The
        # dense form is re-derived here, as the independent route.
        for x in _catalog().values():
            for xp in (blow_up(x, 4), blow_up(blow_up(x, 2), 3)):
                assert signature_of_symmetric(xp.form) == (
                    xp.b_plus, xp.b_minus, 0), xp.label
                assert xp._support == _symmetric_support(xp.form), xp.label

    def test_does_not_recheck_the_padded_form(self, monkeypatch):
        # The base's rows were checked when it was built; a blow-up extends
        # them and scans none of its padded dense rows again.
        x = elliptic_like(4)
        calls = []

        def require_ints(values, message):
            if message.startswith("intersection form"):
                calls.append("_require_ints")
            return real_require_ints(values, message)

        def symmetric_support(rows, name="matrix"):
            calls.append("_symmetric_support")
            return real_symmetric_support(rows, name)

        real_require_ints = lattice_module._require_ints
        real_symmetric_support = lattice_module._symmetric_support
        monkeypatch.setattr(lattice_module, "_require_ints", require_ints)
        monkeypatch.setattr(lattice_module, "_symmetric_support",
                            symmetric_support)
        xp = blow_up(blow_up(x, 2), 3)
        assert calls == []
        assert (xp.b_plus, xp.b_minus) == (x.b_plus, x.b_minus + 5)

    def test_twist_identity_plane(self):
        cp2 = STANDARD_BUILDERS["cp2"]()
        xp = blow_up(cp2, 9)
        a = [1]
        ta = twist(xp, a)
        lhs = cp2.square(a) - cp2.k_dot(a)
        rhs = xp.square(ta) - xp.k_dot(ta)
        assert lhs == rhs == 4

    def test_twist_identity_zero_class(self):
        k3 = STANDARD_BUILDERS["k3"]()
        xp = blow_up(k3, 5)
        zero = [0] * k3.b2
        tz = twist(xp, zero)
        assert xp.square(tz) - xp.k_dot(tz) == 0

    def test_twisted_genus_drops_by_n(self):
        # 2g'-2 = 2g-2 - 2N for the twisted class, since the identity
        # preserves a.a - K.a while each exceptional class eats two.
        cp2 = STANDARD_BUILDERS["cp2"]()
        for n in (1, 2, 3):
            xp = blow_up(cp2, n)
            assert adjunction_genus(xp, twist(xp, [3])) == adjunction_genus(cp2, [3]) - n

    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            blow_up(STANDARD_BUILDERS["cp2"](), 0)

    @pytest.mark.parametrize("entry", [1.9, True, "1", Fraction(1)])
    def test_twist_does_not_truncate(self, entry):
        xp = blow_up(STANDARD_BUILDERS["cp2"](), 2)
        with pytest.raises(TypeError, match="class coordinates"):
            twist(xp, [entry])

    def test_twist_needs_a_base_class(self):
        xp = blow_up(STANDARD_BUILDERS["cp2"](), 2)
        with pytest.raises(ValueError, match="base lattice"):
            twist(xp, [1, 2])

    def test_twist_needs_blowup(self):
        with pytest.raises(TypeError):
            twist(STANDARD_BUILDERS["cp2"](), [1])


class TestClassification:
    # The b+ = 1 classification is a named check of `applications`.
    @staticmethod
    def report(x):
        reports = {rep.check_name: rep for rep in run_all(x)}
        return reports["b_plus_one_classification"]

    def test_plane(self):
        rep = self.report(STANDARD_BUILDERS["cp2"]())
        assert rep.verdict == "pass"
        assert rep.numbers["homeo_type"] == "cp2"

    def test_quadric(self):
        rep = self.report(STANDARD_BUILDERS["s2xs2"]())
        assert rep.verdict == "pass"
        assert rep.numbers["homeo_type"] == "s2xs2"
        assert rep.numbers["even"] is True

    def test_nine_blowups_rejected(self):
        rep = self.report(STANDARD_BUILDERS["e1"]())
        assert rep.verdict == "fail"
        assert rep.numbers["b_minus"] == 9
        assert rep.numbers["two_e_plus_3sigma"] == 0


class TestMinimality:
    # The minimality bound 2e + 3sigma >= 0 is a named check of `applications`.
    @staticmethod
    def report(x):
        return {rep.check_name: rep for rep in run_all(x)}["minimality_bound"]

    def test_k3_holds(self):
        assert self.report(STANDARD_BUILDERS["k3"]()).verdict == "pass"

    def test_triple_sum_fails(self):
        assert self.report(STANDARD_BUILDERS["k3_sum3"]()).verdict == "fail"

    def test_needs_minimal_flag(self):
        rep = self.report(STANDARD_BUILDERS["e1"]())
        assert rep.verdict == "not-applicable"
        assert rep.numbers["minimal"] is False


class TestManifoldFiles:
    def test_parse_rational(self):
        assert parse_rational(3) == 3
        assert parse_rational("3/4") == Fraction(3, 4)
        assert parse_rational("-2/5") == Fraction(-2, 5)
        assert parse_rational("7") == 7

    def test_format_rational(self):
        big = 10**30
        assert format_rational(big) is big
        assert format_rational(Fraction(6, 2)) == 3
        assert type(format_rational(Fraction(6, 2))) is int
        assert format_rational(True) == 1
        assert format_rational(Fraction(-8, 3)) == "-8/3"

    @pytest.mark.parametrize("value", [0.1, 1.0, "1/3"])
    def test_format_rational_refuses_inexact(self, value):
        # 0.1 used to print as 3602879701896397/36028797018963968.
        with pytest.raises(TypeError, match="exact entries"):
            format_rational(value)

    def test_parse_rational_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_rational("1.5")
        with pytest.raises(ValueError):
            parse_rational(True)

    # Each of the first five passes int(); "\u0663/\u0664" is 3/4 in
    # Arabic-Indic digits. The 5000-digit entries match the pattern but
    # exceed int()'s default 4300-digit limit; the message shows them cut.
    @pytest.mark.parametrize("text", [
        "1_000", "+3", " 1/2 ", "1/-2", "\u0663/\u0664", "abc",
        pytest.param("1" * 5000, id="long_numerator"),
        pytest.param("1/" + "1" * 5000, id="long_denominator"),
    ])
    def test_parse_rational_takes_only_the_schema_pattern(self, text):
        with pytest.raises(ValueError, match="not a rational entry") as info:
            parse_rational(text)
        assert len(str(info.value)) < 80

    def test_parse_rational_rejects_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    def test_missing_fields(self):
        with pytest.raises(ValueError, match="missing"):
            lattice_from_dict({"label": "x"})

    def test_unknown_fields(self):
        bad = dict(_CP2_FILE, note="x", Z=1)
        with pytest.raises(ValueError) as info:
            lattice_from_dict(bad)
        assert str(info.value) == "manifold file has unknown fields: ['Z', 'note']"

    @pytest.mark.parametrize("name", sorted(STANDARD_BUILDERS))
    def test_catalog_files_meet_the_schema(self, name):
        _MANIFOLD_VALIDATOR.validate(lattice_to_dict(STANDARD_BUILDERS[name]()))

    @pytest.mark.parametrize("doc, accepted", [
        (_CP2_FILE, True),
        (dict(_CP2_FILE, note="x"), False),
        ({k: v for k, v in _CP2_FILE.items() if k != "K"}, False),
        (dict(_CP2_FILE, omega=["1/2"]), True),
        (dict(_CP2_FILE, omega=["+1"]), False),
        (dict(_CP2_FILE, omega=["1 /2"]), False),
        (dict(_CP2_FILE, omega=["\u0663"]), False),
        (dict(_CP2_FILE, omega=["1\n"]), False),
    ], ids=["cp2", "extra_field", "missing_field", "omega_half", "omega_plus",
            "omega_space", "omega_arabic_indic", "omega_trailing_newline"])
    def test_schema_and_parser_agree(self, doc, accepted):
        """``manifold.schema.json`` and ``catalog.manifold_fields`` accept
        and reject the same files."""
        try:
            manifold_fields(doc)
            parsed = True
        except ValueError:
            parsed = False
        assert (_MANIFOLD_VALIDATOR.is_valid(doc), parsed) == (accepted, accepted)

    def test_non_integer_entries_rejected(self):
        good = lattice_to_dict(STANDARD_BUILDERS["cp2"]())
        bad = dict(good)
        bad["K"] = [True]
        with pytest.raises(ValueError):
            lattice_from_dict(bad)

    @pytest.mark.parametrize("entry", [1.9, True, "1", None, [1]])
    def test_non_integer_form_entries_rejected(self, entry):
        bad = dict(lattice_to_dict(STANDARD_BUILDERS["cp2"]()), Q=[[entry]])
        with pytest.raises(ValueError, match="intersection form entries"):
            lattice_from_dict(bad)


def _e3_canonical_profile(h0, h2):
    e3 = STANDARD_BUILDERS["e3"]()
    return vanishing_profile(e3, e3.canonical, h0, h2)


def _e3_structure_profile(h0):
    e3 = STANDARD_BUILDERS["e3"]()
    return CohomologyProfile(h0, 0, 2, HomologyClass(e3, (0,) * e3.b2))


_ONE = RationalMatrix([[1]])


@pytest.mark.parametrize("value", [True, 2.0, 5.5])
@pytest.mark.parametrize("call", [
    lambda v: BNQuery(v, 2, 1),
    lambda v: BNQuery(5, v, 1),
    lambda v: BNQuery(5, 2, v),
    lambda v: blow_up(STANDARD_BUILDERS["cp2"](), v),
    lambda v: certify_stratum("smooth", v, 1),
    lambda v: certify_stratum("smooth", 1, v),
    lambda v: certify_stratum("smooth", 1, 1, seed=v),
    lambda v: certify_stratum("smooth", 1, 1, workers=v),
    lambda v: _e3_canonical_profile(v, 1),
    lambda v: _e3_canonical_profile(2, v),
    lambda v: _e3_structure_profile(v),
    lambda v: build_pencil(STANDARD_BUILDERS["cp2"](), v),
    lambda v: elliptic_like(v),
    lambda v: spin_model(v),
    lambda v: sample_smooth_stratum(v, 2, 1),
    lambda v: sample_smooth_stratum(2, 2, v),
    lambda v: sample_singular_stratum(v, 1, 0, 1),
    lambda v: sample_singular_stratum(2, v, 0, 1),
    lambda v: sample_singular_stratum(2, 1, v, 1),
    lambda v: sample_singular_stratum(2, 1, 0, v),
    lambda v: sample_b1zero_stratum(v, 1),
    lambda v: sample_b1zero_stratum(2, v),
    lambda v: sample_commuting_diagonal(v, 1),
    lambda v: sample_commuting_diagonal(2, v),
    lambda v: ADHMTriple(_ONE, _ONE, (1,), v),
    lambda v: RelADHMQuad(_ONE, _ONE, 1, (1,), v),
    lambda v: series_geom_pow(v, 3),
    lambda v: series_geom_pow(3, v),
    lambda v: abel_jacobi_fibre_dims(v, 9),
    lambda v: abel_jacobi_fibre_dims(3, v),
    lambda v: gr_parity(v),
], ids=["bn_g", "bn_r", "bn_s", "blow_up", "certify_r", "certify_samples",
        "certify_seed", "certify_workers", "vanishing_h0", "vanishing_h2",
        "profile_h0", "build_pencil", "elliptic_like", "spin_model",
        "smooth_r", "smooth_seed", "singular_r", "singular_n", "singular_m",
        "singular_seed", "b1zero_r", "b1zero_seed", "diagonal_r",
        "diagonal_seed", "triple_r", "quad_r", "series_exponent", "series_cap",
        "aj_g", "aj_r", "gr_parity_n"])
def test_integer_parameters_are_exact_ints(call, value):
    # A bool or a float is neither coerced nor carried into a result: True
    # would label a lattice "elliptic_like_True" or give a sample r=True,
    # and 2.0 would leak a float error from range().
    with pytest.raises(TypeError, match="integer"):
        call(value)



# -- a change of basis changes no verdict ---------------------------------------


def _mixed_forms():
    """Even lattices that mix a hyperbolic plane with a -E8 block, with
    K = 0 and with K twice an isotropic vector, and b1 = 0 and 1."""
    neg_e8 = negated(E8_GRAM)
    h_e8 = block_diag(HYPERBOLIC, neg_e8)
    return {
        "h+e8": FourManifoldLattice("h+e8", 0, h_e8, [0] * 10,
                                    [1, 1] + [0] * 8, False),
        "h+e8,K=2e0": FourManifoldLattice("h+e8,K=2e0", 0, h_e8, [2] + [0] * 9,
                                          [1, 1] + [0] * 8, True),
        "e8+2h": FourManifoldLattice(
            "e8+2h", 1, block_diag(neg_e8, HYPERBOLIC, HYPERBOLIC), [0] * 12,
            [0] * 8 + [1, 1, 1, 1], True),
    }


def _basis_change_case(name):
    """A catalog lattice, one of two blow-ups or a mixed form, built when
    a test asks, so that a broken constructor fails that test."""
    if name in STANDARD_BUILDERS:
        return STANDARD_BUILDERS[name]()
    if name in ("cp2#2", "k3#1"):
        base, n = name.split("#")
        return blow_up(STANDARD_BUILDERS[base](), int(n))
    return _mixed_forms()[name]


_BASIS_CHANGE_CASES = sorted([*STANDARD_BUILDERS, "cp2#2", "k3#1", "h+e8",
                              "h+e8,K=2e0", "e8+2h"])


def _query_classes(x, rng, count=20):
    """The zero class, K, and sparse classes with entries in [-3, 3], some
    of them shifted by K."""
    n = x.b2
    classes = [(0,) * n, x.canonical]
    while len(classes) < count:
        a = [0] * n
        for _ in range(rng.randint(1, 3)):
            a[rng.randrange(n)] = rng.randint(-3, 3)
        if rng.random() < 0.3:
            a = [u + k for u, k in zip(a, x.canonical)]
        classes.append(tuple(a))
    return classes


def _change_basis(x, vectors, rng):
    """The lattice ``x`` in the basis ``P e_1, ..., P e_n`` and ``vectors``
    in its coordinates, for a unimodular ``P``: the product of 3 b2
    elementary matrices, each adding +-1 times basis vector i to basis
    vector j, or for i = j changing the sign of basis vector i. The form
    becomes ``P^T Q P``, and K, omega and each vector ``a`` become
    ``P^-1 a``, so every pairing is unchanged."""
    n = x.b2
    q = [list(row) for row in x.form]
    moved = [list(v) for v in (x.canonical, x.omega, *vectors)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            for row in q:
                row[i] = -row[i]
            q[i] = [-a for a in q[i]]
            for v in moved:
                v[i] = -v[i]
        else:
            c = rng.choice((-1, 1))
            for row in q:
                row[j] += c * row[i]
            q[j] = [a + c * b for a, b in zip(q[j], q[i])]
            for v in moved:
                v[i] -= c * v[j]
    k, omega, *vectors = map(tuple, moved)
    return FourManifoldLattice(x.label, x.b1, q, k, omega, x.minimal), vectors


def _pencil_numbers(p, classes):
    """A pencil's genus, base points, critical fibres and, for each class,
    its fibre degree by both routes and its residual fibre degree."""
    return (p.genus, p.base_points, p.critical_fibres,
            [(fibre_degree(p, a), fibre_degree_blowup_route(p, a),
              residual_fibre_degree(p, a)) for a in classes])


def _run_all_multiset(x, classes):
    """``run_all``'s reports with the class coordinates dropped from the
    check names, sorted, since the order follows those names."""
    return sorted(repr((r.check_name.split("[")[0], r.verdict,
                        r.cited_hypotheses, sorted(r.numbers.items())))
                  for r in run_all(x, classes))


class TestBasisChange:
    """A metamorphic suite: a unimodular change of basis turns each
    block-sparse lattice into a dense one with the same invariants, so
    every invariant, decision and printed number must stay the same
    (Sylvester's law of inertia; an indefinite unimodular form is fixed up
    to isomorphism by rank, signature and type)."""

    @pytest.mark.parametrize("seed, name", enumerate(_BASIS_CHANGE_CASES))
    def test_no_verdict_changes(self, seed, name):
        x = _basis_change_case(name)
        rng = random.Random(seed)
        classes = _query_classes(x, rng)
        w = primitive_symplectic_class(x)
        y, (w_y, *classes_y) = _change_basis(x, [w, *classes], rng)
        assert largest_block(y.form) == y.b2  # one block, whatever x's blocks

        def invariants(z):
            return (z.b_plus, z.b_minus, z.chi_h, z.k_squared, is_even_form(z))

        assert invariants(y) == invariants(x)
        for a, a_y in zip(classes, classes_y):
            want, got = count_decision(x, a), count_decision(y, a_y)
            assert (got.kind, got.reason, got.context) == (
                want.kind, want.reason, want.context), a
        assert _run_all_multiset(y, classes_y) == _run_all_multiset(x, classes)
        for k in (1, 2):
            p, p_y = build_pencil(x, k), build_pencil(y, k)
            assert (_pencil_numbers(p_y, classes_y[:5])
                    == _pencil_numbers(p, classes[:5]))
            assert p_y.fibre_class.coords == tuple(k * v for v in w_y)

    def test_queries_reach_every_count_rule(self):
        # The six rules of count_decision, each first to match somewhere.
        reasons = set()
        for seed, name in enumerate(_BASIS_CHANGE_CASES):
            x = _basis_change_case(name)
            for a in _query_classes(x, random.Random(seed)):
                reasons.add(count_decision(x, a).reason)
        assert len(reasons) == 6
