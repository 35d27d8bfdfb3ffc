"""Shared test settings."""

from hypothesis import settings

# `pytest --hypothesis-profile=ci` draws the same examples on every run, so a
# hosted run repeats exactly; without it, local runs keep the random search
settings.register_profile("ci", derandomize=True)
