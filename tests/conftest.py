"""Hypothesis settings for the property tests: derandomized, so every run
draws the same examples and tier-1 stays reproducible, with a fixed
example budget and no per-example deadline (the host's speed varies).
Also the ``from_digits_calls`` guard shared by the parser and Newton
tests, and the ``element_calls`` counter of the Artin-Schreier guards."""

from collections import Counter

import pytest
from hypothesis import settings

from ftk.fields import _RingElem, _RingSpec

settings.register_profile("ftk", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("ftk")


@pytest.fixture
def from_digits_calls(monkeypatch):
    """Patch element sums, differences, negation and scaling to raise, and
    record each ``from_digits`` row."""

    def refuse(*args):
        raise AssertionError("element arithmetic where only digit rows are built")

    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(_RingElem, name, refuse)
    calls = []
    from_digits = _RingSpec.from_digits

    def counted(spec, row):
        calls.append(row)
        return from_digits(spec, row)

    monkeypatch.setattr(_RingSpec, "from_digits", counted)
    return calls


@pytest.fixture
def element_calls(monkeypatch):
    """Count element sums, differences, negations and scalings, by method
    name; clear the counter before the call under test."""
    calls = Counter()

    def counting(name, real):
        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in ("__add__", "__sub__", "__neg__", "scale"):
        monkeypatch.setattr(_RingElem, name, counting(name, getattr(_RingElem, name)))
    return calls
