"""Shared test settings.

Property tests run under a derandomized Hypothesis profile: every run
draws the same examples, so a suite that passes once passes again, and no
example database is read or written between runs.
"""

from hypothesis import settings

settings.register_profile("derandomized", derandomize=True, database=None)
settings.load_profile("derandomized")
