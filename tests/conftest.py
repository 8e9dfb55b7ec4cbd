"""One hypothesis profile for the whole suite: every property test is
seeded (derandomized), has no per-example deadline, and neither reads nor
writes an example database, so a run never depends on a local
`.hypothesis/` directory."""

from hypothesis import settings

settings.register_profile("aurifeuille", derandomize=True, deadline=None, database=None)
settings.load_profile("aurifeuille")
