"""Hypothesis settings for the property tests: derandomized, so every run
draws the same examples and tier-1 stays reproducible, with a fixed
example budget and no per-example deadline (the host's speed varies)."""

from hypothesis import settings

settings.register_profile("ftk", max_examples=150, deadline=None, derandomize=True, database=None)
settings.load_profile("ftk")
