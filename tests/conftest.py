"""Settings shared by the test suite.

Property tests run under one fixed hypothesis profile: derandomized, so
every run draws the same examples, with no per-example deadline and few
examples, so that the suite stays deterministic and quick.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves without hypothesis
    settings = None

if settings is not None:
    settings.register_profile("deterministic", derandomize=True, deadline=None, max_examples=60, database=None)
    settings.load_profile("deterministic")
