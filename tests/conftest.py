"""Shared test settings.

Property tests run a fixed, derandomized set of examples, so the suite
gives the same result on every run and its time stays bounded.
"""

from hypothesis import settings

settings.register_profile("steanedec", derandomize=True, max_examples=150,
                          deadline=None, database=None)
settings.load_profile("steanedec")
