"""One deterministic hypothesis profile, so every property run draws the same examples.

``derandomize`` seeds the search from each test's source; with no example
database, no run depends on what an earlier run found.
"""

from hypothesis import settings

settings.register_profile(
    "deterministic", derandomize=True, database=None, deadline=None, max_examples=60
)
settings.load_profile("deterministic")
