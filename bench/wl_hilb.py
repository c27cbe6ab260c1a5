"""hilb-certify: certify one sampled matrix-model point per op.

Relative-model ops draw a point on one stratum with the public sampler and
check that the differential's kernel has dimension r^2 + 1. Absolute-model
ops draw a commuting diagonal pair and check that the commutator map has
corank r. Both constants are the paper's theorems, not library output.

Every round holds the same mix; the seed picks the sample seeds, the
smooth-stratum lambda, the singular split n and the op order. The per-r
weights put the median inside the r = 5 group and p90 inside the r = 8
group, so neither quantile sits on a cliff between two matrix sizes.
"""

from __future__ import annotations

from sympencil import hilb

import speed
from oracles import Op, expect

NONZERO = tuple(v for v in range(-9, 10) if v)
STRATA = ("smooth", "singular", "b1zero")
# Relative-model ops per stratum per round, by matrix size r.
REL_MIX = {3: 1, 4: 1, 5: 4, 6: 1, 7: 1, 8: 2}
# Absolute-model ops per round, by r: a quarter of all ops. With these
# weights 14 ops sort below the twelve r = 5 relative ops and 14 above, and
# the six r = 8 ops are the slowest, around p90.
ABS_MIX = {3: 2, 4: 3, 5: 3, 6: 1, 7: 1}

SETUP_REPEATS = 3
TRACE_ROUNDS = 2
SPEED = speed.KERNEL
PEAK_RSS_OF_CHILDREN = False


def setup(seed, workdir):
    return None


def warm_up(state) -> list[Op]:
    """One op per matrix size, cycling through the strata."""
    return [relative_op(STRATA[i % 3], r, seed=i, lam=NONZERO[i], n=i % r)
            for i, r in enumerate(REL_MIX)]


def relative_op(stratum: str, r: int, seed: int, lam: int, n: int) -> Op:
    if stratum == "smooth":
        def sample():
            return hilb.sample_smooth_stratum(r, lam, seed)
    elif stratum == "singular":
        def sample():
            return hilb.sample_singular_stratum(r, n, r - 1 - n, seed)
    else:
        def sample():
            return hilb.sample_b1zero_stratum(r, seed)

    def check(dim):
        expect(dim == r * r + 1, f"{stratum} r={r} seed={seed}: kernel {dim}")

    return Op(f"rel{r}", lambda: hilb.kernel_dimension(sample()), check)


def absolute_op(r: int, seed: int) -> Op:
    def call():
        return hilb.verify_absolute_cokernel(hilb.sample_commuting_diagonal(r, seed))

    def check(ok):
        expect(ok is True, f"absolute r={r} seed={seed}: corank is not r")

    return Op(f"abs{r}", call, check)


def make_round(state, rng) -> list[Op]:
    ops = []
    for stratum in STRATA:
        for r, count in REL_MIX.items():
            for _ in range(count):
                ops.append(relative_op(
                    stratum, r, seed=rng.randrange(1 << 30),
                    lam=rng.choice(NONZERO), n=rng.randrange(r),
                ))
    for r, count in ABS_MIX.items():
        for _ in range(count):
            ops.append(absolute_op(r, rng.randrange(1 << 30)))
    rng.shuffle(ops)
    return ops


def trace_metrics(ops, results, lat) -> dict:
    return {"cli.inprocess_ms": 0.0, "cli.stdout_bytes": 0.0}
