"""Suite-wide settings: property tests draw the same examples on every run.

``derandomize`` seeds each ``@given`` test from the test itself, and no
example database replays failures from earlier runs.
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
