"""Checked values (subclasses of core.Value) and result records (NamedTuples):
construction, equality, hashing, immutability and repr."""

import pytest

from semiexact.core import (Element, Semiring, Value, ValidationReport, Violation, make_boolean,
                            self_module)
from semiexact.diagrams import Assertion, Certificate
from semiexact.enumeration import UniverseSpec
from semiexact.errors import ParameterError
from semiexact.harness import HarnessSpec
from semiexact.workspace import Problem

B = make_boolean()
M = self_module(B)


def test_value_repr_names_every_field():
    assert repr(Element(M, 1)) == "Element(module=Semimodule('B', size=2, over='B'), index=1)"
    assert repr(UniverseSpec(B, 3)) == ("UniverseSpec(semiring=Semiring('B', size=2), "
                                        "max_module_size=3, max_modules=10000, seed=0)")
    assert repr(HarnessSpec(B, quota=5)) == ("HarnessSpec(semiring=Semiring('B', size=2), "
                                             "max_size=4, seed=0, quota=5)")


def test_keyword_and_default_construction():
    full = UniverseSpec(B, 3, 10_000, 0)
    assert full == UniverseSpec(B, 3) == UniverseSpec(semiring=B, max_module_size=3)
    assert full == UniverseSpec(B, max_module_size=3, seed=0)
    spec = UniverseSpec(B, 3, seed=7)
    assert (spec.max_modules, spec.seed) == (10_000, 7)
    assert HarnessSpec(B) == HarnessSpec(B, 4, 0, 120) == HarnessSpec(semiring=B)
    h = HarnessSpec(B, 2, quota=5)
    assert (h.semiring, h.max_size, h.seed, h.quota) == (B, 2, 0, 5)
    assert Semiring("B", 2, B.add, B.mul) == Semiring("B", 2, B.add, B.mul, one=1) == B


@pytest.mark.parametrize("call", [
    lambda: UniverseSpec(B),
    lambda: HarnessSpec(),
    lambda: HarnessSpec(max_size=2),
    lambda: HarnessSpec(B, 4, 0, 120, 1),
    lambda: HarnessSpec(B, size=3),
    lambda: HarnessSpec(B, semiring=B),
    lambda: Element(module=M),
], ids=["missing", "none", "missing-keyword", "extra", "unknown-keyword", "repeated",
        "keyword-only"])
def test_missing_or_extra_arguments_raise_type_error(call):
    with pytest.raises(TypeError):
        call()


def test_checks_run_for_every_call_form():
    with pytest.raises(ParameterError):
        HarnessSpec(B, quota=0)
    with pytest.raises(ParameterError):
        UniverseSpec(semiring=B, max_module_size=0)


def test_values_are_immutable():
    h = HarnessSpec(B)
    with pytest.raises(AttributeError):
        h.quota = 3
    with pytest.raises(AttributeError):
        del h.seed
    with pytest.raises(AttributeError):
        B.size = 3
    assert h.quota == 120 and B.size == 2


def test_hash_and_equality_follow_the_field_tuple():
    values = {Element(M, 1): (M, 1), HarnessSpec(B): (B, 4, 0, 120),
              B: ("B", 2, B.add, B.mul, 0, 1), M: ("B", B, 2, B.add, B.mul, 0)}
    for value, fields in values.items():
        assert isinstance(value, Value)
        assert hash(value) == hash(fields)
        assert value != fields  # a value equals only values of its own class
    assert Element(M, 1) == Element(self_module(B), 1) != Element(M, 0)


def test_record_reprs_and_tuple_equality():
    a = Assertion("x", True)
    assert repr(a) == "Assertion(id='x', ok=True, witness='-')"
    assert repr(Violation("law", "a=1")) == "Violation(law='law', witness='a=1')"
    assert repr(Problem("f.sx", 3, "syntax", "m")) == \
        "Problem(file='f.sx', line=3, kind='syntax', message='m')"
    assert str(Problem("f.sx", 3, "syntax", "m")) == "f.sx:3: syntax: m"
    assert str(ValidationReport("semiring S", (Violation("law", "a=1"),))) == \
        "semiring S: 1 violation(s)\n  law [a=1]"
    cert = Certificate("short", (), (a, Assertion("y", False, "w")))
    assert not cert.ok and cert.failures() == (Assertion("y", False, "w"),)
    assert a == ("x", True, "-") and hash(a) == hash(("x", True, "-"))
