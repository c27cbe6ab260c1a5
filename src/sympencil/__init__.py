"""sympencil: exact-arithmetic invariants of closed symplectic 4-manifold
lattices, Lefschetz-pencil numerology, Brill-Noether bookkeeping, and
certification of commuting-matrix models of points on a surface.

Everything is exact (int in the lattice core and eliminations, Fraction for
rational input; no floats). The CLI entry point is :mod:`sympencil.cli`.

The package imports nothing: callers import each name from the module that
defines it, so a process loads only the modules it uses.
"""

__version__ = "0.1.0"
