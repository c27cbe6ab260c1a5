"""The shared immutable record type behind every result class."""

import copy
import pickle

import pytest

from sympencil import applications, brill_noether, cli, gromov, hilb, lattice, pencil
from sympencil.catalog import STANDARD_BUILDERS
from sympencil.record import Record

CP2 = STANDARD_BUILDERS["cp2"]()


# One instance of each record class, built through the public API.
EXAMPLES = {
    "HomologyClass": lambda: lattice.HomologyClass(CP2, (1,)),
    "PencilData": lambda: pencil.build_pencil(CP2, 4),
    "SurfaceCountVerdict": lambda: pencil.count_decision(CP2, (1,)),
    "CohomologyProfile": lambda: gromov.vanishing_profile(CP2, (1,), 3, 0),
    "BNQuery": lambda: brill_noether.BNQuery(5, 2, 1),
    "AbelJacobiFibres": lambda: brill_noether.abel_jacobi_fibre_dims(4, 6),
    "CheckReport": lambda: applications.run_all(CP2)[0],
    "ADHMTriple": lambda: hilb.sample_commuting_diagonal(2, 1),
    "RelADHMQuad": lambda: hilb.sample_smooth_stratum(2, 3, 1),
    "CertificationReport": lambda: hilb.certify_stratum("b1zero", 1, 2),
    # The command table of the CLI.
    "_Option": lambda: cli._FORMAT,
    "_Command": lambda: cli.main.commands["bn"],
    "_Program": lambda: cli.main,
}


def _hashable(value):
    try:
        hash(value)
    except TypeError:
        return False
    return True


def test_every_record_class_is_covered():
    assert {cls.__name__ for cls in Record.__subclasses__()} == set(EXAMPLES)


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_record_behaviour(name):
    rec = EXAMPLES[name]()
    cls = type(rec)
    assert cls.__name__ == name
    fields = cls.__slots__
    values = [getattr(rec, f) for f in fields]

    positional = cls(*values)
    by_keyword = cls(**dict(zip(fields, values)))
    assert positional == rec and by_keyword == rec and positional is not rec
    assert copy.copy(rec) == rec
    # A lattice compares by identity, so the fields travel in the same pickle.
    restored, *restored_values = pickle.loads(pickle.dumps([rec, *values]))
    assert restored == cls(*restored_values)
    if all(_hashable(v) for v in values):
        assert hash(positional) == hash(rec)
    else:
        with pytest.raises(TypeError):
            hash(rec)

    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[0])
    with pytest.raises(AttributeError):
        delattr(rec, fields[-1])
    with pytest.raises(AttributeError):
        rec.not_a_field = 1

    text = repr(rec)
    assert text.startswith(f"{name}(")
    assert all(f"{f}=" in text for f in fields)

    # Every field is required: no trailing field has a default.
    with pytest.raises(TypeError):
        cls(*values[:-1])
    with pytest.raises(TypeError):
        cls(**dict(zip(fields[1:], values[1:])))
    with pytest.raises(TypeError):
        cls(*values, None)
    with pytest.raises(TypeError):
        cls(*values, **{fields[0]: values[0]})
    with pytest.raises(TypeError):
        cls(*values[:1], **dict(zip(fields[1:], values[1:])), extra=None)


def test_unequal_fields_or_types_compare_unequal():
    a = brill_noether.BNQuery(5, 2, 1)
    assert a == brill_noether.BNQuery(5, 2, 1)
    assert a != brill_noether.BNQuery(5, 2, 2)
    assert a != (5, 2, 1)


def test_post_init_normalises_and_validates():
    assert lattice.HomologyClass(CP2, [1]).coords == (1,)
    with pytest.raises(ValueError, match="class length"):
        lattice.HomologyClass(CP2, (1, 0))
