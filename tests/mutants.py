"""Mutation check: every mutant listed here must make the tests it names
fail. The mutants weaken the rank verifier (``exact._certify`` and its
GF(p) rank), the integer producer it checks (``exact._primitive`` and
``exact._insert``), the rank that ``hilb.is_stable`` claims, the matrix
models that ``hilb._model`` builds and the product
``RationalMatrix.matmul`` that checks them, the normal form
``exact._lowest`` that keeps a lattice's integral omega entries as
``int``, the signature elimination (its diagonal swap, its hyperbolic add
and the sign of each pivot), the lattice's input checks, the adjunction
genus of ``pencil.build_pencil`` and the fibre-class-first order of its
adjunction and residual-degree pairings, the
boundaries of ``pencil.count_decision``, the boundaries of the minimality
bound and the b+ = 1 classification in ``applications`` and the K.omega
that ``run_all`` hands its checks, a profile's certified virtual dimension and
``duality_check``'s check of ``r`` against it, the manifold parser's
rejection of unknown fields, the CLI's class-count, b2 and block bounds,
the parser's checks of a ``MANIFOLD`` path, of ``--opt=value`` and of a
missing required option, and the exit code of ``cli.run``.

Run from anywhere, with pytest and hypothesis installed:

    python3 tests/mutants.py

Each mutant replaces one exact snippet of a source file, which must occur
there exactly once, in a fresh temporary copy of ``src``, ``tests`` and
``pyproject.toml``, and runs pytest on the named test files of that copy.
A mutant is killed when pytest reports failing tests (exit status 1); a
collection error, a passing run, or a snippet that is missing or occurs
more than once is a failure of this check. The unmutated copy runs first
and must pass, so that a kill means the mutant was caught. The exit status
is 0 when every mutant is killed and 1 otherwise.

A change that rewrites a checked line must update its mutant here. The
module's name does not match pytest's ``test_*.py`` pattern, so the test
suite does not collect it. It uses only the standard library.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
EXACT = "src/sympencil/exact.py"
HILB = "src/sympencil/hilb.py"
LATTICE = "src/sympencil/lattice.py"
PENCIL = "src/sympencil/pencil.py"
GROMOV = "src/sympencil/gromov.py"
CATALOG = "src/sympencil/catalog.py"
APPLICATIONS = "src/sympencil/applications.py"
CLI = "src/sympencil/cli.py"
TEST_EXACT = "tests/test_exact.py"
TEST_HILB = "tests/test_hilb.py"
TEST_LATTICE = "tests/test_lattice.py"
TEST_PENCIL = "tests/test_pencil.py"
TEST_GROMOV = "tests/test_gromov.py"
TEST_APPLICATIONS = "tests/test_applications.py"
TEST_CLI = "tests/test_cli.py"
TEST_CLI_PROCESS = "tests/test_cli_process.py"
# An unmutated run of the targeted files takes seconds; a mutant that
# makes the suite hang counts as not killed.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    file: str
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    why: str


MUTANTS = (
    Mutant(
        "nullity count accepts too few vectors", EXACT,
        "    if k != ncols - rank:\n",
        "    if k > ncols - rank:\n",
        (TEST_EXACT,),
        "With one vector too few, the rest are independent and annihilated "
        "and the rows reach the rank, so only the count refutes the claim.",
    ),
    Mutant(
        "length check dropped", EXACT,
        "    if any(len(v) != ncols for v in basis) or all(\n",
        "    if all(\n",
        (TEST_EXACT,),
        "A vector with a trailing zero too many has the same nonzeros as a "
        "true one; only its length shows that the claim is malformed.",
    ),
    Mutant(
        "independence rank bypassed", EXACT,
        "            _rank_mod_prime(vectors, p) != k for p in _CHECK_PRIMES):\n",
        "            False for p in _CHECK_PRIMES):\n",
        (TEST_EXACT,),
        "Duplicated or summed kernel vectors are annihilated, so without "
        "the rank they pass as a basis and overstate the kernel.",
    ),
    Mutant(
        "independence rank loosened by one", EXACT,
        "            _rank_mod_prime(vectors, p) != k for p in _CHECK_PRIMES):\n",
        "            _rank_mod_prime(vectors, p) < k - 1 for p in _CHECK_PRIMES):\n",
        (TEST_EXACT,),
        "Three vectors of rank two (one the sum of the others) must be "
        "refused; a rank one short of k is a dependent set.",
    ),
    Mutant(
        "independence rank without the second prime", EXACT,
        "            _rank_mod_prime(vectors, p) != k for p in _CHECK_PRIMES):\n",
        "            _rank_mod_prime(vectors, p) != k for p in _CHECK_PRIMES[:1]):\n",
        (TEST_EXACT,),
        "A basis that is independent over the rationals but dependent mod "
        "2**61 - 1 (a vector divisible by it) is a true claim; refusing it "
        "is a false alarm.",
    ),
    Mutant(
        "column index drops the last vector", EXACT,
        "    for i, v in enumerate(vectors):\n",
        "    for i, v in enumerate(vectors[:-1]):\n",
        (TEST_EXACT,),
        "The last vector is never multiplied by the rows, so a last vector "
        "outside the kernel passes.",
    ),
    Mutant(
        "annihilation check bypassed", EXACT,
        "        if any(acc.values()):\n",
        "        if False:\n",
        (TEST_EXACT,),
        "No vector is checked against the rows, so any independent set "
        "passes as a kernel basis.",
    ),
    Mutant(
        "annihilation skips each row's last nonzero", EXACT,
        "        for c, a in row:\n            for i, x in index.get(c, ()):\n",
        "        for c, a in row[:-1]:\n            for i, x in index.get(c, ()):\n",
        (TEST_EXACT,),
        "A vector that only a row's last nonzero catches passes; a row "
        "with one nonzero is not read at all.",
    ),
    Mutant(
        "annihilation checked on the first row only", EXACT,
        "    for row in rows:\n        acc: dict[int, int] = {}\n",
        "    for row in rows[:1]:\n        acc: dict[int, int] = {}\n",
        (TEST_EXACT,),
        "A vector that only a later row maps to a nonzero passes.",
    ),
    Mutant(
        "row rank check bypassed", EXACT,
        "        if _rank_mod_prime(rows, p) == rank:\n",
        "        if True:\n",
        (TEST_EXACT,),
        "An overclaimed rank with its kernel basis cut to match passes: "
        "the vectors left are independent and annihilated.",
    ),
    Mutant(
        "GF(p) rank skips each row's last nonzero", EXACT,
        "        work = {c: r for c, a in row if (r := a % p)}\n",
        "        work = {c: r for c, a in row[:-1] if (r := a % p)}\n",
        (TEST_EXACT,),
        "The rank of the rows, and of the vectors, is then taken of other "
        "rows; the dense oracle disagrees.",
    ),
    Mutant(
        "GF(p) rank counts the rows nonzero mod p", EXACT,
        "    return len(pivots)\n",
        "    return sum(any(a % p for _, a in row) for row in rows)\n",
        (TEST_EXACT,),
        "Duplicated or dependent rows and vectors count as independent, "
        "so an overclaimed rank or a dependent basis passes.",
    ),
    Mutant(
        "GF(p) rank stores each row unreduced", EXACT,
        "            pivot = pivots.get(lead)\n",
        "            pivot = None\n",
        (TEST_EXACT,),
        "The rank becomes the number of distinct leading columns, which "
        "undercounts: two independent rows with one leading column count "
        "once, so true claims are refused.",
    ),
    Mutant(
        "row rank without the second prime", EXACT,
        "    for p in _CHECK_PRIMES:\n        if _rank_mod_prime(rows, p) == rank:\n",
        "    for p in _CHECK_PRIMES[:1]:\n        if _rank_mod_prime(rows, p) == rank:\n",
        (TEST_EXACT,),
        "Rows whose rank falls short mod 2**61 - 1 alone (a row divisible "
        "by it) are a true claim; refusing it is a false alarm.",
    ),
    Mutant(
        "clearing rule drops the denominators", EXACT,
        "    ints = [x.numerator * (denlcm // x.denominator) for x in values]\n",
        "    ints = [x.numerator for x in values]\n",
        (TEST_EXACT,),
        "A row with unequal denominators leaves its ray: (1/2, 1/3) becomes "
        "(1, 1), not (3, 2), so the echelon spans other rows and its kernel "
        "fails the re-substitution check.",
    ),
    Mutant(
        "reducer adds the pivot row instead of subtracting it", EXACT,
        "            row = [p * a - f * b for a, b in zip(row, e)]\n",
        "            row = [p * a + f * b for a, b in zip(row, e)]\n",
        (TEST_EXACT,),
        "The pivot column is not cleared (p f + f p is not zero), so a "
        "dependent row survives as a new one and the rank is overclaimed; "
        "the verifier's checks, read from the input, refuse it.",
    ),
    Mutant(
        "is_stable claims the echelon's length as its rank", HILB,
        "    exact._certify(RationalMatrix(accepted + spent), len(accepted),\n",
        "    exact._certify(RationalMatrix(accepted + spent), len(echelon),\n",
        (TEST_HILB,),
        "On a sound reducer every accepted vector joins the echelon, so the "
        "two counts agree; only the fault-injection tests, whose reducer "
        "reports a row accepted without inserting it, tell them apart: the "
        "verdict counts accepted vectors, so the certificate must too.",
    ),
    Mutant(
        "matrix models built transposed", HILB,
        "nonzeros.get((i, j), _ZERO)",
        "nonzeros.get((j, i), _ZERO)",
        (TEST_HILB,),
        "Every model is then the transpose of the one stated: the diagonal "
        "ones do not change, but the singular stratum's chains run the "
        "other way and v = e0 is no longer cyclic, so "
        "TestSamplers::test_singular_products_vanish sees the sampler raise.",
    ),
    Mutant(
        "matmul applies self to the rows of other", EXACT,
        "map(self.apply, zip(*other.rows))",
        "map(self.apply, other.rows)",
        (TEST_EXACT,),
        "The product is then self times the transpose of other: "
        "TestMatmul::test_rectangular_product sees a 2x3 by 3x2 product "
        "refused, and in test_hilb two non-commuting models pass the "
        "commutation check and both differential builders leave their "
        "defining maps.",
    ),
    Mutant(
        "integral omega kept as Fraction", EXACT,
        "    if type(x) is int:\n        return x\n    q = _fraction(x)\n"
        "    return q.numerator if q.denominator == 1 else q\n",
        "    return _fraction(x)\n",
        (TEST_LATTICE,),
        "The normal form reduced to the entry rule: integral omega entries "
        "stay Fractions, so every omega product pays for Fraction "
        "arithmetic while the pairings print the same bytes (str(3) == "
        "str(Fraction(3))); the type checks of the catalog lattices' omega "
        "and omega products see it, and format_rational's test sees 3 "
        "printed as \"3/1\".",
    ),
    Mutant(
        "signature drops the diagonal swap", LATTICE,
        "            if swap:\n",
        "            if False:\n",
        (TEST_LATTICE,),
        "A zero corner is then always repaired by the hyperbolic add, whose "
        "corner 2 a_0j + a_jj can be zero too; "
        "TestSignature::test_zero_corner_repaired_by_a_diagonal_swap sees "
        "the elimination divide by that zero pivot.",
    ),
    Mutant(
        "signature drops the hyperbolic add", LATTICE,
        "                a[0] = [x + y for x, y in zip(a[0], a[off])]\n"
        "                for row in a:\n                    row[0] += row[off]\n",
        "",
        (TEST_LATTICE,),
        "A block with a zero diagonal then pivots on zero and the next "
        "step divides by it; "
        "TestSignature::test_zero_diagonal_repaired_by_a_hyperbolic_add sees "
        "it. (Adding to the row but not the column is an equivalent mutant: "
        "the next pivot eliminates the added index, and the trailing block "
        "is then the same.)",
    ),
    Mutant(
        "signature sign read from d alone", LATTICE,
        "        if (d > 0) == (prev > 0):\n",
        "        if d > 0:\n",
        (TEST_LATTICE,),
        "A pivot's sign is that of d * prev: after a negative pivot a "
        "negative d is a positive eigenvalue, so -E8 reads as four of each "
        "and TestSignature::test_e8_is_definite sees it.",
    ),
    Mutant(
        "omega.omega = 0 accepted", LATTICE,
        "        if omega_squared <= 0:\n",
        "        if omega_squared < 0:\n",
        (TEST_LATTICE,),
        "A symplectic form has positive volume; omega = 0 on CP2 has "
        "omega.omega = 0 and must be refused.",
    ),
    Mutant(
        "chi_h integrality check skipped", LATTICE,
        "        if rem and self.b1 % 2 == 0:\n",
        "        if False:\n",
        (TEST_LATTICE,),
        "A form with b1 even and e + sigma not divisible by 4 can still pass "
        "the characteristic congruence and K.K = 2e + 3sigma; only this "
        "check refuses its half-integral chi_h.",
    ),
    Mutant(
        "symmetry checked above the diagonal only", LATTICE,
        "            if rows[j][i] != v:\n",
        "            if j > i and rows[j][i] != v:\n",
        (TEST_LATTICE,),
        "A nonzero below the diagonal opposite a zero is never compared, so "
        "an asymmetric form is read as its lower rows.",
    ),
    Mutant(
        "symmetry checked below the diagonal only", LATTICE,
        "            if rows[j][i] != v:\n",
        "            if j < i and rows[j][i] != v:\n",
        (TEST_LATTICE,),
        "The mirror case: a nonzero above the diagonal opposite a zero is "
        "never compared.",
    ),
    Mutant(
        "adjunction genus off by one", PENCIL,
        "    genus = rhs // 2 + 1\n",
        "    genus = rhs // 2\n",
        (TEST_PENCIL,),
        "2g - 2 = W.W + K.W: a pencil of plane cubics has genus 1, and the "
        "mutant reads 0, so the critical-fibre count moves with it.",
    ),
    Mutant(
        "adjunction pairs K first", PENCIL,
        "    rhs = n + x.pairing(w, x.canonical)\n",
        "    rhs = n + x.k_dot(w)\n",
        (TEST_PENCIL,),
        "Same genus, but the pairing walks a row per nonzero of K, every "
        "row on the elliptic types, instead of the few rows of W.",
    ),
    Mutant(
        "residual pairs K - a first", PENCIL,
        "    return x.pairing(pencil.fibre_class.coords, residual)\n",
        "    return x.pairing(residual, pencil.fibre_class.coords)\n",
        (TEST_PENCIL,),
        "Same degree, but the pairing walks a row per nonzero of K - a, "
        "which is dense wherever K is, instead of the few rows of W.",
    ),
    Mutant(
        "b+ > 1 + b1 loosened to >=", PENCIL,
        "    high_b_plus = x.b_plus > 1 + x.b1\n",
        "    high_b_plus = x.b_plus >= 1 + x.b1\n",
        (TEST_PENCIL,),
        "On b+ = 1, b1 = 0 (CP2, the blow-ups) the simple-type vanishing "
        "rule then fires, and a class the wall-crossing rule counts +/-1 is "
        "declared Zero.",
    ),
    Mutant(
        "a.omega > K.omega tightened to >=", PENCIL,
        "a_omega > k_omega",
        "a_omega >= k_omega",
        (TEST_PENCIL,),
        "The canonical class has a.omega = K.omega and counts +/-1 on a "
        "lattice with b+ > 1 + b1; the mutant declares it Zero.",
    ),
    Mutant(
        "minimality bound tightened to > 0", APPLICATIONS,
        "    holds = x.two_e_plus_3sigma >= 0\n",
        "    holds = x.two_e_plus_3sigma > 0\n",
        (TEST_APPLICATIONS,),
        "K3 is minimal with b+ = 3 and 2e + 3sigma = 0, on the boundary; "
        "the bound holds there, and the mutant fails it.",
    ),
    Mutant(
        "b+ = 1 rejection loosened to b_minus > 9", APPLICATIONS,
        "    if x.b_minus > 8:\n",
        "    if x.b_minus > 9:\n",
        (TEST_APPLICATIONS,),
        "E(1), the plane blown up nine times, has b_minus = 9 and so "
        "2e + 3sigma = 0 with K.omega < 0; the degree-zero count rejects it, "
        "and the mutant classifies it as cp2#9cp2bar.",
    ),
    Mutant(
        "run_all hands K.K where K.omega belongs", APPLICATIONS,
        "    k_omega = x.omega_dot(x.canonical)\n",
        "    k_omega = x.pairing(x.canonical, x.canonical)\n",
        (TEST_APPLICATIONS,),
        "K.omega is formed once for the classification and inflation "
        "checks; on CP2 K.K = 9 but K.omega = -3, so the plane is no longer "
        "classified and its inflation report prints 9.",
    ),
    Mutant(
        "certified virtual dimension off by one", GROMOV,
        "        return self.chi - self.divisor.lattice.chi_h\n",
        "        return self.chi - self.divisor.lattice.chi_h + 1\n",
        (TEST_GROMOV,),
        "The count then reads the wrong r: the canonical profile counts at "
        "r = 1, duality_check refuses the true r, and the pairing oracle "
        "sees it.",
    ),
    Mutant(
        "r checked against nothing", GROMOV,
        "    if r != vd:\n",
        "    if False:\n",
        (TEST_GROMOV,),
        "A caller's r that is not the class's virtual dimension passes the "
        "duality check unnoticed instead of raising: both counts read the "
        "certified dimension, so the magnitudes agree at any r.",
    ),
    Mutant(
        "unknown manifold fields accepted", CATALOG,
        "    if unknown:\n",
        "    if False:\n",
        (TEST_LATTICE, TEST_CLI),
        "The manifold schema allows no fields beyond its six; a file with a "
        "stray \"note\" would pass the parser while the schema rejects it.",
    ),
    Mutant(
        "b2 bound off by one", CLI,
        "if len(form) > MAX_B2:",
        "if len(form) >= MAX_B2:",
        (TEST_CLI,),
        "A manifold of exactly MAX_B2 rows is within the stated limit; the "
        "mutant rejects it, which the at-limit cases of "
        "test_manifold_size_limits see.",
    ),
    Mutant(
        "block bound off by one", CLI,
        "    if block > MAX_BLOCK:\n",
        "    if block >= MAX_BLOCK:\n",
        (TEST_CLI,),
        "A block of exactly MAX_BLOCK rows is within the stated limit; the "
        "mutant rejects it, which the at-limit cases of "
        "test_manifold_size_limits see.",
    ),
    Mutant(
        "class-count bound off by one", CLI,
        "len(data) > MAX_CLASSES",
        "len(data) >= MAX_CLASSES",
        (TEST_CLI,),
        "A classes file of exactly MAX_CLASSES classes is within the stated "
        "limit; the mutant rejects it, which the at-limit case of "
        "test_class_count_limit sees.",
    ),
    Mutant(
        "MANIFOLD existence check dropped", CLI,
        '_MANIFOLD = _Option("MANIFOLD", _existing_file, ..., "")',
        '_MANIFOLD = _Option("MANIFOLD", str, ..., "")',
        (TEST_CLI,),
        "A missing MANIFOLD file is then reported by the reader, not as "
        "click's \"Invalid value for 'MANIFOLD': File ... does not exist.\"",
    ),
    Mutant(
        "--opt=value left unsplit", CLI,
        '        flag, eq, value = token.partition("=")\n',
        '        flag, eq, value = token, "", ""\n',
        (TEST_CLI,),
        "\"--g=5\" is then an unknown option instead of --g with the value 5.",
    ),
    Mutant(
        "missing required option given a default", CLI,
        "        if flag not in values and option.default is ...:\n",
        "        if False:\n",
        (TEST_CLI,),
        "A command run without --class then gets the placeholder default and "
        "fails with a traceback instead of \"Missing option '--class'.\"",
    ),
    Mutant(
        "run exits 0 whatever main's code", CLI,
        "        os._exit(exc.code)\n",
        "        os._exit(0)\n",
        (TEST_CLI_PROCESS,),
        "Exit codes 1 and 2 are the CLI's contract; a process that reports "
        "a usage error with exit 0 breaks every caller that checks it.",
    ),
)


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _pytest(tree: Path, tests: tuple[str, ...]) -> int | None:
    """pytest's exit status on the test files of the tree, or None on a
    timeout."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    try:
        return subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
             *tests],
            cwd=tree, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S,
        ).returncode
    except subprocess.TimeoutExpired:
        return None


def _run(mutant: Mutant | None) -> str | None:
    """None when the mutant is killed (or, for None, the unmutated tree
    passes); otherwise what went wrong."""
    with tempfile.TemporaryDirectory(prefix="sympencil-mutant-") as tmp:
        tree = Path(tmp)
        _copy_tree(tree)
        if mutant is None:
            tests = tuple(sorted({t for m in MUTANTS for t in m.tests}))
            status = _pytest(tree, tests)
            return None if status == 0 else f"unmutated tests exit {status}"
        path = tree / mutant.file
        text = path.read_text(encoding="utf-8")
        count = text.count(mutant.snippet)
        if count != 1:
            return f"snippet occurs {count} times in {mutant.file}"
        path.write_text(text.replace(mutant.snippet, mutant.replacement),
                        encoding="utf-8")
        status = _pytest(tree, mutant.tests)
        return None if status == 1 else f"not killed (pytest exit {status})"


def main() -> int:
    failures = 0
    for mutant in (None, *MUTANTS):
        name = "unmutated" if mutant is None else mutant.name
        start = time.perf_counter()
        problem = _run(mutant)
        took = time.perf_counter() - start
        verdict = problem or ("passes" if mutant is None else "killed")
        print(f"{name}: {verdict} ({took:.1f} s)", flush=True)
        failures += problem is not None
        if mutant is None and problem:
            break
    print(f"{len(MUTANTS)} mutants, {failures} problems")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
