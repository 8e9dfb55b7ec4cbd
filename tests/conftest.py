"""One hypothesis profile for the whole suite: every property test is
seeded (derandomized), has no per-example deadline, and neither reads nor
writes an example database, so a run never depends on a local
`.hypothesis/` directory.

`test_mutants.py` runs its ids under `--hypothesis-profile=mutants`, the
same profile without shrinking: it needs only to know that a test fails,
and shrinking a failure of `test_mul_at_the_slot_bound` takes about 50 s."""

from hypothesis import Phase, settings

settings.register_profile("aurifeuille", derandomize=True, deadline=None, database=None)
settings.register_profile(
    "mutants",
    settings.get_profile("aurifeuille"),
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile("aurifeuille")
