"""Shared test configuration.

The ``loewner`` hypothesis profile is derandomized and keeps no example
database, so every run tries the same cases; tests take it with
``settings(settings.get_profile("loewner"), max_examples=...)``.
"""

from hypothesis import settings

settings.register_profile("loewner", derandomize=True, database=None, deadline=None)
