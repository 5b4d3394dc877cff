"""Hypothesis profiles.

``HYPOTHESIS_PROFILE=deep`` runs many more examples per property with no
deadline, for the differential tests of the integer kernels in CI; without
it the default profile applies.
"""

import os

from hypothesis import settings

settings.register_profile("deep", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))
