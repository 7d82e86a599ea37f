"""Every record class is a frozen, slotted dataclass: no instance __dict__,
pickles intact, refuses assignment, and dataclasses.replace still works."""

import dataclasses
import importlib
import inspect
import pickle
import pkgutil
from fractions import Fraction

import pytest

import specgraph
from specgraph import (CpVerdict, DsStats, FamilyKind, FamilySpec, IntPolynomial, NuSearchResult,
                       RationalMatrix, canonical_form, closed_form_spectrum, cospectral_classes,
                       eigenvalues, is_cp_graph, is_ds, make_surd, pyramid_graph,
                       star_cospectral_mate, star_graph, verify)
from specgraph.verify import CheckResult


def _record_classes() -> set[type]:
    """The dataclasses defined in the package's modules."""
    found = set()
    for info in pkgutil.iter_modules(specgraph.__path__):
        module = importlib.import_module(f"specgraph.{info.name}")
        found |= {cls for _, cls in inspect.getmembers(module, inspect.isclass)
                  if cls.__module__ == module.__name__ and dataclasses.is_dataclass(cls)}
    return found


def _samples() -> list:
    """One instance of each record class but exact._Plan, a per-order cache entry
    of numpy arrays that is never pickled or compared."""
    star = star_graph(4)
    ds = is_ds(star)
    cycle = is_cp_graph(pyramid_graph(7, 3))
    return [
        star, FamilySpec(FamilyKind.PYRAMID, (7, 3)), cycle, ds, ds.stats,
        cospectral_classes(5), canonical_form(star), eigenvalues(star),
        NuSearchResult(7, pyramid_graph(7, 3), star_cospectral_mate(6), cycle.witness),
        RationalMatrix.from_rows([[1, Fraction(1, 2)], [0, 3]]),
        IntPolynomial((1, 0, -4)),
        make_surd(1, 1, 5, 2), closed_form_spectrum(FamilySpec(FamilyKind.STAR, (4,))),
        CheckResult("pickled", True, "ok", elapsed_s=0.5),
    ]


def test_every_record_class_is_frozen_and_slotted():
    records = _record_classes()
    assert {cls.__name__ for cls in records} >= {
        "Graph", "FamilySpec", "CpVerdict", "DsVerdict", "DsStats", "EnumerationReport"}
    for cls in records:
        assert cls.__dataclass_params__.frozen, cls
        assert "__slots__" in vars(cls), cls
    # the samples cover every record that is ever pickled or compared
    assert {type(x) for x in _samples()} == {cls for cls in records if cls.__name__ != "_Plan"}


def test_records_have_no_instance_dict_and_refuse_assignment():
    for record in _samples():
        assert not hasattr(record, "__dict__"), type(record)
        first = dataclasses.fields(record)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, first, getattr(record, first))


def test_records_refuse_an_attribute_that_is_not_a_field():
    # which exception depends on the Python version: dataclasses' frozen
    # __setattr__ refers to the class that slots=True replaces, so 3.11 raises
    # TypeError; FrozenInstanceError is an AttributeError
    for record in _samples():
        with pytest.raises((TypeError, AttributeError)):
            record.not_a_field = 1
        assert not hasattr(record, "not_a_field"), type(record)


def test_records_survive_a_pickle_round_trip():
    for record in _samples():
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record)
        assert copy == record
        assert hash(copy) == hash(record)
        for field in dataclasses.fields(record):  # also the fields kept out of equality
            assert getattr(copy, field.name) == getattr(record, field.name), field.name
    stats = DsStats(canonicity_tests=3, prefixes_cut=1, survivors=2, berkowitz_levels=4,
                     multipartite_cuts=0)
    assert pickle.loads(pickle.dumps(stats)) == stats


def test_replace_still_builds_a_new_record(monkeypatch):
    verdict = CpVerdict(True, is_cp_graph(star_graph(3)).reason)
    assert dataclasses.replace(verdict, is_cp=False) == CpVerdict(False, verdict.reason)

    def crash():
        raise RuntimeError("boom")

    monkeypatch.setattr(verify, "ALL_CHECKS", (
        ("fine", lambda: CheckResult("fine", True, "ok")), ("crash", crash)))
    fine, crashed = verify.run_all()
    assert (fine.name, fine.passed, fine.detail) == ("fine", True, "ok")
    assert (crashed.name, crashed.passed) == ("crash", False) and "boom" in crashed.detail
    assert all(r.elapsed_s is not None and r.elapsed_s >= 0 for r in (fine, crashed))
