"""The two record idioms: value records are namedtuple subclasses that compare
and hash by value and cannot be changed; result objects, which hold groups
or tables, are plain classes that compare by identity and can be weakly
referenced."""

import copy
import weakref

import pytest

from a6k3.chartab import character_table, structure_constants
from a6k3.extbuild import build_all_candidates, build_candidate, verify_extension_structure
from a6k3.k3verify import (
    ArgumentOutcome,
    MultiplicityVector,
    NikulinTable,
    SignCase,
    argument_free_c4,
    decomposition_system,
    lattice_checks,
    run_exclusion,
)
from a6k3.permgrp import class_fusion, conjugacy_classes, fingerprint
from a6k3.pgl9 import build_psl29, classify_overgroups, m10_order4_class_check


def value_records():
    psl = build_psl29()
    split = classify_overgroups()
    equations = decomposition_system(character_table(psl), NikulinTable())
    outcome = argument_free_c4(2)
    return [
        conjugacy_classes(psl)[1],
        class_fusion(split.m10, psl),
        fingerprint(psl),
        split,
        m10_order4_class_check(split.m10, psl),
        NikulinTable(),
        equations[0],
        # witnesses is a dict, which has no hash; a tuple of its items has one
        outcome._replace(witnesses=tuple(outcome.witnesses.items())),
        lattice_checks()[0],
        SignCase(-1, -1, 1),
        MultiplicityVector(1, 1, 0, 0, 1, 0),
        verify_extension_structure(build_candidate("M10_2")),
        run_exclusion(build_all_candidates().values(), character_table(psl), NikulinTable()),
    ]


def result_objects():
    psl = build_psl29()
    return [structure_constants(psl), character_table(psl), build_candidate("M10_2")]


def test_value_records_compare_by_value_and_are_immutable():
    records = value_records()
    assert len({type(r) for r in records}) == 13
    hashed = 0
    for record in records:
        twin = type(record)(**record._asdict())
        assert twin is not record and twin == record
        try:
            hash(tuple(record))
        except TypeError:
            # CycloNum has no hash by design, so neither has a record holding one
            with pytest.raises(TypeError):
                hash(twin)
        else:
            assert hash(twin) == hash(record)
            hashed += 1
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.note = "not a field"
    # all but ClassEquation, which holds CycloNums, and ExclusionReport,
    # whose outcomes hold witness dicts
    assert hashed == 11


def test_result_objects_compare_by_identity_and_allow_weakrefs():
    objects = result_objects()
    assert len({type(r) for r in objects}) == 3
    for obj in objects:
        twin = type(obj)(**vars(obj))
        assert vars(twin).keys() == vars(obj).keys()
        assert all(vars(twin)[k] is v for k, v in vars(obj).items())
        assert twin != obj and twin == twin and copy.copy(obj) != obj
        ref = weakref.ref(twin)
        assert ref() is twin
        del twin
        assert ref() is None


def test_nikulin_table_defaults():
    counts = ((2, 8), (3, 6), (4, 4), (5, 4), (6, 2), (7, 3), (8, 2))
    assert NikulinTable() == NikulinTable(counts=counts, whole_surface_euler=24)
    assert NikulinTable(whole_surface_euler=25).counts == counts
    assert NikulinTable(counts=counts[:1]).whole_surface_euler == 24
    assert ArgumentOutcome("a", None, None, "s", {}).axioms_used == ()

