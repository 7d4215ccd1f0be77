"""Hypothesis profiles: the default one for Tier-1, and "ci", a deep search
of the encoder's layout rules (``pytest --hypothesis-profile=ci``)."""

from hypothesis import settings

settings.register_profile("ci", max_examples=2000, derandomize=True, deadline=None)
