"""Names of the strata that :mod:`sympencil.hilb` samples.

They live apart from that module so that the CLI can offer them as
choices without importing it.
"""

STRATA = ("smooth", "singular", "b1zero")
