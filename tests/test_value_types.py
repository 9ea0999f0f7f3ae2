"""The package's immutable value types: equality, hashing, immutability.

Partitions and labels are lru_cache keys and set members, so two values
built from equal fields must be equal with equal hashes, and no field may
change after construction.
"""

import pickle

import pytest

from braidinv.character_oracle import GroupSpec
from braidinv.core_combinatorics import Partition, PoincareTable
from braidinv.cycle_invariants import InvariantCycle
from braidinv.product_catalog import GeneratorLabel


def _label():
    return GeneratorLabel(
        Partition((3, 1)), (InvariantCycle(3, (0, 1)), InvariantCycle(1, (0,)))
    )


# per class: a builder of one fixed value, a value with other fields, and
# every attribute an instance has
CASES = {
    "Partition": (
        lambda: Partition([3, 2, 2]), Partition((3, 3, 1)), ("parts",)
    ),
    "PoincareTable": (
        lambda: PoincareTable(((2, 1), (0, 3), (5, 0))),
        PoincareTable(((0, 3),)),
        ("entries",),
    ),
    "InvariantCycle": (
        lambda: InvariantCycle(6, [0, 1, 2]),
        InvariantCycle(6, (0, 2, 1)),
        ("length", "gaps", "weight", "_multiplicity", "admissible"),
    ),
    "GeneratorLabel": (
        _label,
        GeneratorLabel(
            Partition((3, 1)), (InvariantCycle(3, (0, 1)), InvariantCycle.empty(1))
        ),
        ("partition", "cycles"),
    ),
    "GroupSpec": (
        lambda: GroupSpec("product", 6, 2), GroupSpec.extension(3), ("variant", "n", "q")
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_give_equal_values_and_hashes(name):
    build, other, _ = CASES[name]
    a, b = build(), build()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != other and other not in {a}
    assert pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("name", CASES)
def test_no_field_can_be_assigned(name):
    build, _, attributes = CASES[name]
    value = build()
    for attribute in attributes:
        before = getattr(value, attribute)
        with pytest.raises(AttributeError):
            setattr(value, attribute, before)
        with pytest.raises(AttributeError):
            delattr(value, attribute)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == build()


def test_invariant_cycle_compares_on_length_and_gaps_only():
    a, b = InvariantCycle(6, (0, 1, 2)), InvariantCycle(6, (0, 1, 2))
    # the derived fields take no part in equality, hashing or the repr
    for attribute, value in (("weight", 5), ("admissible", False), ("_multiplicity", 2)):
        object.__setattr__(b, attribute, value)
    assert a == b and hash(a) == hash(b)
    assert repr(b) == "InvariantCycle(length=6, gaps=(0, 1, 2))"


def test_partition_keeps_its_cached_properties():
    p = Partition((3, 2, 2, 1))
    assert (p.n, p.part_count, p.degree) == (8, 4, 4)
    assert p.blocks == ((3, 1), (2, 2), (1, 1))
    assert p == Partition((3, 2, 2, 1)) and repr(p) == "Partition(parts=(3, 2, 2, 1))"


def test_constructors_keep_their_checks():
    for build, message in (
        (lambda: Partition(()), "at least one part"),
        (lambda: Partition((1, 2)), "weakly decreasing"),
        (lambda: PoincareTable(((1, 2), (1, 3))), "repeated degree"),
        (lambda: InvariantCycle(4, (1, 0, 1)), "sum to length - weight"),
        (lambda: InvariantCycle(4, (2, 0)), "minimal rotation form"),
        (lambda: GeneratorLabel(Partition((2, 1)), ()), "one cycle per part"),
        (lambda: GroupSpec("extension", 4, 1), "n = 2q"),
    ):
        with pytest.raises(ValueError, match=message):
            build()
