"""Suite-wide test configuration.

Hypothesis example budgets come from a profile, chosen on the command
line (``--hypothesis-profile ci``), not from per-test ``max_examples``
or an environment variable: ``default`` keeps a property inside tier-1
seconds and draws the same examples on every run; ``ci`` spends ten
times as many on fresh ones.  A test that states its own budget with
``@settings`` keeps it under either profile, unless it asks for the
larger of its budget and the profile's (the Theorem 1 properties do).
"""

from hypothesis import settings

settings.register_profile(
    "default", max_examples=100, derandomize=True, deadline=None)
settings.register_profile("ci", max_examples=1000, deadline=None)
settings.load_profile("default")
