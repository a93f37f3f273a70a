"""One Hypothesis profile for the whole suite: no per-example deadline, a
fixed example sequence and no example database, so two runs of one tree
draw the same examples. Hypothesis still caches the constants it reads
from the source; that cache goes to a temporary directory removed at
exit (unless HYPOTHESIS_STORAGE_DIRECTORY is set), not into the checkout."""

import os
import tempfile

from hypothesis import settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
os.environ.setdefault("HYPOTHESIS_STORAGE_DIRECTORY", _storage.name)
settings.register_profile("reproducible", deadline=None, derandomize=True, database=None)
settings.load_profile("reproducible")
