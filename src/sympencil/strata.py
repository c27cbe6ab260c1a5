"""Names of the strata that :mod:`sympencil.hilb` samples, the default
seed and size limits of one certification run, and the size limits of an
input file and of the manifold it describes.

They live apart from that module so that the CLI can offer the names as
choices, and state the limits in its help, without importing it.
"""

STRATA = ("smooth", "singular", "b1zero")

# Base seed of a certification run when none is given.
DEFAULT_SEED = 1729

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

# Largest b2 of a manifold file. The benchmarks build lattices up to b2 =
# 478 in process and 238 through the CLI. Past the signature, the cost of a
# command grows with b2 squared through the dense pairing: on a 2-CPU host
# a b2 = 994 file validates in 0.2 s, and a dense class on it takes about
# 0.2 s, so 1,000 classes take about 3 minutes.
MAX_B2 = 1000

# Most rows in one direct-sum block of a manifold file's form. The
# signature eliminates each block densely, at a cost that grows faster
# than n^3 as the entries grow: a dense block with entries in [-3, 3] takes
# 1.1 s at n = 160, 7.5 s at n = 256 and 19 s at n = 320 on a 2-CPU host,
# and three 256-blocks in a b2 = 1,000 form take 18 s. The catalog and the
# benchmarks have no block past 8 rows.
MAX_BLOCK = 256
