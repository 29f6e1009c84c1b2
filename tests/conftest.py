"""Suite-wide Hypothesis settings.

One profile for every property test: examples are derived from each test
rather than drawn at random, so every run tries the same inputs; no example
database is kept; and no per-example deadline applies, because example times
move with the machine's load.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reslearn", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("reslearn")

# Even without a database, Hypothesis caches the constants it finds in the
# source files while pytest collects; keep that cache out of the checkout,
# in a directory removed when the run ends.
_storage = tempfile.TemporaryDirectory(prefix="reslearn-hypothesis-")
set_hypothesis_home_dir(_storage.name)
