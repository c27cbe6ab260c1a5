"""lattice-query: one query per op on lattices built during set-up.

Set-up parses a fixed set of manifold dicts with ``lattice_from_dict``:
diagonal elliptic-type forms (dense canonical class), spin-type block
sums of hyperbolic planes and -E8 (sparse everything), and the K3 triple
sum; b2 runs from 46 to 478. Building them is set-up cost, so a faster
build shows in setup_s and a slower one cannot hide.

Every round runs the same queries on every lattice: two count decisions
(one sparse class, one dense), run_all with three classes, a duality
check at virtual dimension r >= 0, and a pencil with both fibre-degree
routes. The seed picks the classes, profiles, pencil degrees and order.
"""

from __future__ import annotations

import random

from sympencil import applications, catalog, exact, gromov, lattice, pencil

import manifolds
import speed
from oracles import Op, check_classify, check_count, check_pencil, duality_holds, expect

MANIFOLDS = (
    lambda: manifolds.elliptic_type(4),
    lambda: manifolds.elliptic_type(16),
    lambda: manifolds.elliptic_type(40),
    lambda: manifolds.spin_type(2),
    lambda: manifolds.spin_type(8),
    lambda: manifolds.spin_type(16),
    manifolds.k3_sum3,
)

SETUP_REPEATS = 3
TRACE_ROUNDS = 10
SPEED = speed.KERNEL
PEAK_RSS_OF_CHILDREN = False


def setup(seed, workdir):
    built = []
    for make in MANIFOLDS:
        m = make()
        built.append((m, catalog.lattice_from_dict(m.data)))
    return built


def warm_up(state) -> list[Op]:
    return make_round(state, random.Random(0))


def dense_class(rng, m) -> tuple:
    if all(m.canonical):
        return m.canonical
    return tuple(rng.choice((-2, -1, 1, 2)) for _ in range(m.b2))


def count_op(m, x, coords, group) -> Op:
    def call():
        v = pencil.count_decision(x, coords)
        return v.kind, v.reason, v.value, v.context

    def check(out):
        kind, _, value, context = out
        check_count(m, coords, kind, value, context)

    return Op(group, call, check)


def run_all_op(m, x, classes) -> Op:
    def call():
        return [
            {"check_name": r.check_name, "verdict": r.verdict, "numbers": r.numbers}
            for r in applications.run_all(x, classes)
        ]

    return Op(f"{m.name}/run_all", call,
              lambda reports: check_classify(exact.binom, m, classes, reports))


def duality_op(m, x, coords, r, h0) -> Op:
    chi = int(m.chi_h) + r
    h2 = chi - h0

    def call():
        profile = gromov.CohomologyProfile(h0, 0, h2, lattice.HomologyClass(x, coords))
        return gromov.duality_check(profile, r)

    def check(ok):
        expect(ok == duality_holds(exact.binom, h0, h2, r), "duality: verdict")
        expect(ok is True, "duality: |count| differs from the dual's")

    return Op(f"{m.name}/duality", call, check)


def pencil_op(m, x, k, coords) -> Op:
    def call():
        p = pencil.build_pencil(x, k)
        return (p.genus, p.base_points, p.critical_fibres,
                pencil.fibre_degree(p, coords),
                pencil.residual_fibre_degree(p, coords),
                pencil.fibre_degree_blowup_route(p, coords))

    return Op(f"{m.name}/pencil", call,
              lambda out: check_pencil(m, k, coords, *out))


def make_round(state, rng) -> list[Op]:
    ops = []
    for m, x in state:
        nz = lambda: rng.randint(1, 4)  # noqa: E731
        # Duality holds in the regime h1 = 0, chi_h >= r + 2.
        coords, r = manifolds.class_of_small_dim(rng, m, min(3, int(m.chi_h) - 2))
        ops += [
            count_op(m, x, manifolds.sparse_class(rng, m, nz()), f"{m.name}/count"),
            count_op(m, x, dense_class(rng, m), f"{m.name}/count_dense"),
            run_all_op(m, x, [manifolds.sparse_class(rng, m, nz()),
                              manifolds.sparse_class(rng, m, nz()),
                              dense_class(rng, m)]),
            duality_op(m, x, coords, r, rng.randint(0, int(m.chi_h) + r)),
            pencil_op(m, x, rng.randint(1, 3), manifolds.sparse_class(rng, m, nz())),
        ]
    rng.shuffle(ops)
    return ops


def trace_metrics(ops, results, lat) -> dict:
    return {"cli.inprocess_ms": 0.0, "cli.stdout_bytes": 0.0}
