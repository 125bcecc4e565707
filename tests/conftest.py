"""One hypothesis profile for every property: reproducible and without a time limit.

Each ``@settings`` in the suite sets ``max_examples``, and test_weyl's
step-vector properties also leave out shrinking; the rest comes from this
profile, which is loaded before any test module is imported.
"""
from hypothesis import settings

settings.register_profile("screwfn", deadline=None, derandomize=True, database=None)
settings.load_profile("screwfn")
