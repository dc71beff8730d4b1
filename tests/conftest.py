"""Hypothesis profiles. HYPOTHESIS_PROFILE=ci makes every property test draw
the same examples on every run and keeps no example database, so a CI failure
reproduces from the commit alone."""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
