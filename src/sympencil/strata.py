"""Names of the strata that :mod:`sympencil.hilb` samples, the size
limits of one certification run, and the size limits of an input file.

They live apart from that module so that the CLI can offer the names as
choices, and state the limits in its help, without importing it.
"""

STRATA = ("smooth", "singular", "b1zero")

# Largest matrix size r on every stratum: the smooth sampler draws r
# distinct nonzero diagonal entries from [-9, 9], so it cannot go past 18.
MAX_R = 18

# Most samples in one run; the acceptance suite certifies 50 per stratum.
MAX_SAMPLES = 1000

# Largest JSON file the CLI reads, in bytes. The largest manifold file the
# benchmarks write is 172 KB (b2 = 238); a 16 MB one (b2 = 2,338) reads and
# validates in about 1 s and 100 MB on a 2-CPU host.
MAX_FILE_BYTES = 16 * 2**20

# Most classes in a `classify --classes` file. A dense class on a b2 = 238
# lattice takes about 10 ms, so 1,000 of them run in about 10 s on a 2-CPU
# host; 1,000 classes on CP2 take 0.2 s and print 0.3 MB.
MAX_CLASSES = 1000
