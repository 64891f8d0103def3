"""The package's record classes: equality, hash, repr and immutability.

Each record is a plain class.  Those that compare by value are equal only to
a record of the same class with equal fields, and hash like them; maps,
tensors and algebras compare by identity.  Reprs are pinned byte for byte,
since error messages format some of them.

The behaviour comes from one base, ``minimal_model.Record``, driven by each
class's ``_fields``; records that compare by identity derive from its
subclass ``IdentityRecord``.  Copies and pickles keep a record's fields,
and come back read-only: their arrays, cached ones included, cannot be
written, and the original's arrays keep their flags.
"""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from fusioncover import (
    AbelianGroupSpec,
    ClosureViolation,
    CoverCertificate,
    CoverMap,
    FusionTensor,
    GroupContext,
    ModelParams,
    Sector,
    UncoveredTriple,
    canonical_cover,
    fusion_tensor,
    sectors,
)
from fusioncover.cli import OutputDocument

ISING = sectors(ModelParams(3, 4))
VACUUM, SIGMA, EPSILON = ISING
TRIPLE = (EPSILON, EPSILON, SIGMA)
ONE = np.ones((1, 1, 1), dtype=np.uint8)


def render():
    return "rendered"


# Per class: a function building the record, one building a record that
# differs in one field (None where records compare by identity), the
# expected repr, and how records compare: "value", "value, unhashable" for
# records holding a dict, or "identity".  Each call builds a new record.
CASES = {
    "ModelParams": (lambda: ModelParams(3, 4), lambda: ModelParams(4, 3),
                    "ModelParams(p=3, q=4)", "value"),
    "Sector": (lambda: Sector(1, 2, Fraction(1, 16), 1), lambda: Sector(1, 2, Fraction(1, 16), 2),
               "Sector(m=1, n=2, h=Fraction(1, 16), index=1)", "value"),
    "FusionTensor": (
        lambda: FusionTensor((VACUUM,), ONE), None,
        "FusionTensor(sectors=(Sector(m=1, n=1, h=Fraction(0, 1), index=0),), "
        "coefficients=array([[[1]]], dtype=uint8))", "identity"),
    "CoverMap": (lambda: CoverMap(AbelianGroupSpec((4,)), [0, 1, 2, 1], ISING), None,
                 "CoverMap(context=AbelianGroupSpec(factors=(4,)))", "identity"),
    "ClosureViolation": (lambda: ClosureViolation(1, 1, 2, TRIPLE),
                         lambda: ClosureViolation(1, 2, 3, TRIPLE),
                         f"ClosureViolation(g1=1, g2=1, g3=2, sectors={TRIPLE!r})", "value"),
    "UncoveredTriple": (lambda: UncoveredTriple(TRIPLE),
                        lambda: UncoveredTriple((VACUUM, SIGMA, SIGMA)),
                        f"UncoveredTriple(sectors={TRIPLE!r})", "value"),
    "CoverCertificate": (
        lambda: CoverCertificate("FAIL", UncoveredTriple(TRIPLE), {"group_order": 4}),
        lambda: CoverCertificate("FAIL", UncoveredTriple(TRIPLE), {"group_order": 2}),
        f"CoverCertificate(verdict='FAIL', witness=UncoveredTriple(sectors={TRIPLE!r}), "
        "stats={'group_order': 4})", "value, unhashable"),
    "AbelianGroupSpec": (lambda: AbelianGroupSpec([2, 3]), lambda: AbelianGroupSpec((3, 2)),
                         "AbelianGroupSpec(factors=(2, 3))", "value"),
    "GroupContext": (lambda: GroupContext(ModelParams(4, 5)),
                     lambda: GroupContext(ModelParams(3, 4)),
                     "GroupContext(params=ModelParams(p=4, q=5))", "value"),
    # ``render`` is left out of the repr and of comparisons.
    "OutputDocument": (lambda: OutputDocument("text", {"N": 3}, render),
                       lambda: OutputDocument("json", {"N": 3}, render),
                       "OutputDocument(format='text', payload={'N': 3})", "value, unhashable"),
}


@pytest.mark.parametrize("name", sorted(CASES))
class TestRecord:
    def test_repr(self, name):
        build, _, shown, _ = CASES[name]
        assert repr(build()) == shown

    def test_equality_and_hash(self, name):
        build, build_other, _, compared = CASES[name]
        a, b = build(), build()
        assert a == a
        if compared == "identity":
            assert a != b and hash(a) == object.__hash__(a)
            return
        assert a == b and not a != b and a != build_other()
        # Equal to no object of another class, its own fields as a tuple included.
        assert a != tuple(vars(a).values()) and a != object()
        if compared == "value":
            assert hash(a) == hash(b) and len({a, b}) == 1
        else:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)

    def test_fields_cannot_be_set_or_deleted(self, name):
        record = CASES[name][0]()
        before = dict(vars(record))
        for field in before:
            with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
                setattr(record, field, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
                delattr(record, field)
        with pytest.raises(AttributeError):
            record.new_field = None
        assert vars(record).keys() == before.keys()
        assert all(vars(record)[field] is value for field, value in before.items())

    def test_copy_and_pickle_round_trip(self, name):
        build, _, shown, compared = CASES[name]
        record = build()
        if isinstance(record, CoverMap):
            record.support  # cached, so each clone carries a tensor it did not build
        flags = {f: v.flags.writeable for f, v in vars(record).items() if isinstance(v, np.ndarray)}
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert type(clone) is type(record) and repr(clone) == shown
            if compared != "identity":
                assert clone == record
            assert vars(clone).keys() == vars(record).keys()
            for field, value in vars(record).items():
                cloned = vars(clone)[field]
                if isinstance(value, FusionTensor):
                    # Tensors compare by identity: a cached one by its array.
                    value, cloned = value.coefficients, cloned.coefficients
                if isinstance(value, np.ndarray):
                    assert np.array_equal(cloned, value)
                    assert not cloned.flags.writeable, field
                else:
                    assert cloned == value
            with pytest.raises(AttributeError, match="cannot assign to field"):
                setattr(clone, next(iter(vars(clone))), None)
        # A shallow copy shares the original's arrays; cloning leaves their flags.
        assert flags == {f: vars(record)[f].flags.writeable for f in flags}


def test_pickled_canonical_cover_keeps_its_cached_labels():
    # The canonical cover caches its labels and its proved support, the
    # model's fusion tensor, and it holds no counts.
    cover = canonical_cover(GroupContext(ModelParams(4, 5)))
    labels, support = cover.sector_indices, cover.support
    for clone in (copy.deepcopy(cover), pickle.loads(pickle.dumps(cover))):
        assert type(clone) is type(cover) and repr(clone) == repr(cover)
        assert vars(clone).keys() == {"context", "sectors", "sector_indices", "support"}
        assert vars(clone)["support"].model == ModelParams(4, 5)
        assert np.array_equal(clone.sector_indices, labels)
        assert np.array_equal(clone.support.coefficients, support.coefficients)
        assert tuple(clone.vacuum_preimage) == (0,)
        with pytest.raises(ValueError, match="read-only"):
            clone.sector_indices[1] = 0


def test_model_tensor_repr_builds_no_array():
    # A model's tensor prints its model; its N^3 array is built on the first
    # read of ``coefficients``, and a repr does not read it.  Tensors still
    # compare by identity.
    tensor = fusion_tensor.__wrapped__(ModelParams(4, 5))  # a new tensor, not the cached one
    assert repr(tensor) == "_ModelTensor(model=ModelParams(p=4, q=5))"
    assert "coefficients" not in vars(tensor)
    assert tensor == tensor and tensor != fusion_tensor.__wrapped__(ModelParams(4, 5))
    assert hash(tensor) == object.__hash__(tensor)
