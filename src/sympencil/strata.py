"""Names of the strata that :mod:`sympencil.hilb` samples, and the size
limits of one certification run.

They live apart from that module so that the CLI can offer the names as
choices, and state the limits in its help, without importing it.
"""

STRATA = ("smooth", "singular", "b1zero")

# Largest matrix size r on every stratum: the smooth sampler draws r
# distinct nonzero diagonal entries from [-9, 9], so it cannot go past 18.
MAX_R = 18

# Most samples in one run; the acceptance suite certifies 50 per stratum.
MAX_SAMPLES = 1000
