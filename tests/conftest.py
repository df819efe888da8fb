"""Shared test settings: a deterministic Hypothesis profile.

Property tests draw the same examples on every run (derandomized, no
example database), have no per-example deadline and a bounded example
count, so the suite stays reproducible and its run time fixed.
"""

try:
    from hypothesis import settings
except ImportError:  # the property tests skip themselves
    pass
else:
    settings.register_profile("qbnet", derandomize=True, database=None,
                              deadline=None, max_examples=60)
    settings.load_profile("qbnet")
