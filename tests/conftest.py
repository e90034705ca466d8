"""Suite-wide settings: hypothesis draws the same examples on every run and
has no per-example deadline, so the property tests are deterministic and do
not depend on the speed of the machine."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
