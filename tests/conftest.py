"""Suite-wide test configuration.

Hypothesis draws fresh random examples on every local run.  Under CI
(the ``CI`` environment variable, which GitHub Actions sets) the ``ci``
profile derandomizes the draws and drops the example database, so every
CI run checks the same examples and a red run reproduces.  Example counts
and every test's own settings are unchanged.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)

if os.environ.get("CI"):
    settings.load_profile("ci")
